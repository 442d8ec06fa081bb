package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"

	neogeo "repro"
	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/disambig"
	"repro/internal/extract"
	"repro/internal/feedback"
	"repro/internal/gazetteer"
	"repro/internal/integrate"
	"repro/internal/kb"
	"repro/internal/mq"
	"repro/internal/ner"
	"repro/internal/ontology"
	"repro/internal/persist"
	"repro/internal/qa"
	"repro/internal/readpath"
	"repro/internal/server"
	"repro/internal/tweetgen"
	"repro/internal/xmldb"
)

// span is one timed call from this file into a layer. Times are
// nanoseconds since the tracer began; Parent is the span that caused it
// (0 for the root) and spans of one replayed operation share a Trace.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. The replay is sequential, so the open
// spans form a stack and the top of it is the parent of the next one.
type tracer struct {
	began time.Time
	spans []span
	open  []int // indices into spans
	trace int
	off   bool // the untraced pass of the overhead measurement
}

func newTracer() *tracer { return &tracer{began: time.Now()} }

// op starts a new replayed operation: its spans share a fresh trace id.
func (t *tracer) op() { t.trace++ }

// in times fn as a span named name under the innermost open span.
func (t *tracer) in(name string, fn func()) {
	if t.off {
		fn()
		return
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{ID: i + 1, Parent: parent, Trace: t.trace, Name: name})
	t.open = append(t.open, i)
	t.spans[i].Start = int64(time.Since(t.began))
	fn()
	t.spans[i].End = int64(time.Since(t.began))
	t.open = t.open[:len(t.open)-1]
}

// layerRow is one line of the per-layer table: every span of one name.
type layerRow struct {
	name        string
	n           int
	total, self time.Duration
}

// table folds the spans by name. A span's self time is its duration
// minus its children's; the replay never overlaps spans, so the self
// times of a subtree add up to its root exactly.
func (t *tracer) table() (rows []layerRow, byName map[string]*layerRow) {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	byName = map[string]*layerRow{}
	for _, s := range t.spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			byName[s.Name] = r
		}
		r.n++
		r.total += time.Duration(s.End - s.Start)
		r.self += time.Duration(s.End - s.Start - child[s.ID])
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return rows, byName
}

// stageSizes says how many operations each stage of the traced replay
// runs for a workload: the stage the workload stresses gets the large
// count, the others enough to keep their layers' numbers meaningful.
type stageSizes struct{ ingest, ask, mix, window int }

var traceStages = map[string]stageSizes{
	"ingest_stream": {ingest: 6000, ask: 3000, mix: 4000, window: 2000},
	"ask_cold":      {ingest: 3000, ask: 6000, mix: 4000, window: 2000},
	"serve_mix":     {ingest: 3000, ask: 3000, mix: 10000, window: 2000},
	"crash_recover": {ingest: 4000, ask: 3000, mix: 4000, window: 4000},
}

// batchSize is the coordinator's default integration batch: the staged
// replay folds and acknowledges messages in groups of this many, as the
// pipeline's lanes do.
const batchSize = 16

// replay is the state of one traced run.
type replay struct {
	*harness
	t    *tracer
	in   *inputs
	sz   stageSizes
	dir  string
	gaz  *gazetteer.Gazetteer
	sys  *core.System
	now  time.Time
	vals map[string]float64

	enqueued         int
	inserted, merged int
	integrateMallocs uint64
	asked            []asked
}

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"server.submit_overhead_us", "us"}, {"server.ask_overhead_us", "us"},
	{"mq.enqueue_us", "us"}, {"mq.ack_batch_us_per_msg", "us"}, {"mq.wal_bytes_per_msg", "B"}, {"mq.replay_ms_per_kmsg", "ms"},
	{"coordinator.drain_us_per_msg", "us"}, {"coordinator.self_us_per_msg", "us"}, {"coordinator.drain_1w_us_per_msg", "us"},
	{"extract.report_us", "us"}, {"extract.question_us", "us"}, {"extract.classify_us", "us"}, {"extract.allocs_per_msg", "count"}, {"extract.bytes_per_msg", "B"},
	{"ner.informal_us", "us"}, {"disambig.resolve_us", "us"}, {"gazetteer.fuzzy_miss_us", "us"}, {"gazetteer.fuzzy_hit_us", "us"},
	{"gazetteer.synthesize_ms", "ms"}, {"ontology.containment_ms", "ms"}, {"kb.train_ms", "ms"}, {"core.new_ms", "ms"},
	{"integrate.us_per_msg", "us"}, {"integrate.merge_ratio", "ratio"}, {"integrate.allocs_per_msg", "count"},
	{"shard.route_us", "us"}, {"shard.skew", "ratio"}, {"shard.run_us", "us"},
	{"xmldb.parse_us", "us"}, {"xmldb.execute_us", "us"}, {"xmldb.snapshot_ms", "ms"}, {"xmldb.restore_ms", "ms"},
	{"qa.answer_us", "us"}, {"qa.allocs_per_ask", "count"}, {"core.ask_us", "us"},
	{"readpath.hit_us", "us"}, {"readpath.miss_overhead_us", "us"}, {"readpath.hit_ratio", "ratio"}, {"readpath.invalidations", "count"},
	{"feedback.submit_us", "us"}, {"feedback.flush_us_per_verdict", "us"},
	{"persist.checkpoint_ms", "ms"}, {"persist.recover_ms", "ms"}, {"persist.image_bytes_per_record", "B"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"harness.trace_overhead_frac", "ratio"},
}

// runTrace replays a workload's generated inputs in-process, stage by
// stage, through the layers core.New exposes, timing every call from
// here; it writes the spans to <outDir>/trace-<workload>.json and
// reports the per-layer metrics.
func (h *harness) runTrace(ctx context.Context, name, outDir string) (map[string]metric, error) {
	sz := traceStages[name]
	n := func(x int) int { return max(int(float64(x)*h.scale), 8) }
	sz = stageSizes{n(sz.ingest), n(sz.ask), n(sz.mix), n(sz.window)}
	gen := sizesFor(name, h.seconds, h.scale)
	gen.preload, gen.warm = 8, 8
	gen.reports, gen.questions, gen.pool, gen.mix = sz.ingest+sz.window+sz.mix, sz.ask, min(500, sz.ask), sz.mix
	r := &replay{
		harness: h, t: newTracer(), in: generate(h.seed, gen), sz: sz,
		dir: filepath.Join(h.scratch, "trace-"+name), now: time.Now(), vals: map[string]float64{},
	}
	h.printf("\n== %s, traced replay (inputs %s): %d reports ingested, %d questions, %d mixed ops, %d-report crash window\n",
		name, r.in.digest(), sz.ingest, sz.ask, sz.mix, sz.window)
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	r.t.in("replay", func() {
		for _, stage := range []func(context.Context) error{
			r.boot, r.ingest, r.drains, r.ask, r.probes, r.readPath, r.feedback, r.serve, r.persist,
		} {
			if err = stage(ctx); err != nil {
				return
			}
		}
	})
	if r.sys != nil {
		if cerr := r.sys.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	return r.report(name, outDir)
}

// boot times what every daemon start pays, piece by piece and then as
// core.New runs it.
func (r *replay) boot(context.Context) (err error) {
	r.t.op()
	r.t.in("boot", func() {
		r.t.in("gazetteer.synthesize", func() {
			r.gaz, err = gazetteer.Synthesize(gazetteer.Config{Names: 20000, Seed: 2011})
		})
		if err != nil {
			return
		}
		r.t.in("ontology.containment", func() { ontology.New().LoadContainment(r.gaz) })
		r.t.in("kb.train", func() { _, err = kb.New().TrainTypeClassifier() })
		if err != nil {
			return
		}
		cfg, cerr := r.config("main", 2)
		if err = cerr; err != nil {
			return
		}
		r.t.in("core.new", func() { r.sys, err = core.New(cfg) })
	})
	return err
}

// config is the daemon's configuration on its own scratch directory.
// Systems after the first share the synthesized gazetteer (and so its
// warm fuzzy-lookup memo) rather than pay for another.
func (r *replay) config(sub string, width int) (core.Config, error) {
	if err := os.MkdirAll(filepath.Join(r.dir, sub), 0o755); err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		GazetteerNames: 20000, GazetteerSeed: 2011, Workers: width, Shards: width,
		QueueWAL: filepath.Join(r.dir, sub, "q.wal"), DataDir: filepath.Join(r.dir, sub, "data"),
		// Verdicts apply only at the explicit Flush the feedback stage times.
		FeedbackBatch: 1 << 30,
	}
	if sub != "main" {
		cfg.Gazetteer = r.gaz
	}
	return cfg, nil
}

// ingest walks reports through the write path the way the pipeline
// does, but one call at a time: enqueue each, then lease, extract and
// route them in batches, integrate each lane's share of a batch, and
// group-acknowledge it.
func (r *replay) ingest(ctx context.Context) error {
	return r.stagedIngest(ctx, "ingest", r.in.Reports[:r.sz.ingest])
}

func (r *replay) stagedIngest(ctx context.Context, stage string, reports []msg) (err error) {
	sys := r.sys
	r.t.op()
	r.t.in(stage, func() {
		for _, m := range reports {
			r.t.op()
			r.t.in("mq.enqueue", func() { _, err = sys.Queue.EnqueueTraced(m.Text, m.Source, "") })
			if err != nil {
				return
			}
		}
		r.enqueued += len(reports)
		for done := 0; done < len(reports) && err == nil; done += batchSize {
			r.t.op()
			r.t.in("coordinator.batch", func() { err = r.batch(ctx) })
		}
	})
	return err
}

// batch processes up to batchSize queued messages.
func (r *replay) batch(ctx context.Context) (err error) {
	sys := r.sys
	lanes := make([][][]extract.Template, sys.Integrator.Lanes())
	var ids []int64
	for len(ids) < batchSize {
		var m mq.Message
		var ok bool
		r.t.in("mq.dequeue", func() { m, ok = sys.Queue.Dequeue() })
		if !ok {
			break
		}
		ids = append(ids, m.ID)
		var ex *extract.Extraction
		r.t.in("extract.report", func() { ex, err = sys.IE.Extract(ctx, m.Body, m.Source, r.now) })
		if err != nil {
			return err
		}
		if len(ex.Templates) == 0 {
			continue
		}
		lane := 0
		r.t.in("shard.route", func() { lane = sys.Integrator.Route(ex.Templates) })
		lanes[lane] = append(lanes[lane], ex.Templates)
	}
	var ms0, ms1 runtime.MemStats
	for lane, groups := range lanes {
		if len(groups) == 0 {
			continue
		}
		var results [][]integrate.BatchResult
		runtime.ReadMemStats(&ms0)
		r.t.in("integrate.groups", func() { results = sys.Integrator.IntegrateGroups(lane, groups) })
		runtime.ReadMemStats(&ms1)
		r.integrateMallocs += ms1.Mallocs - ms0.Mallocs
		for _, group := range results {
			for _, res := range group {
				switch {
				case res.Err != nil:
					return fmt.Errorf("integrating: %w", res.Err)
				case res.Result.Action == integrate.ActionInserted:
					r.inserted++
				case res.Result.Action == integrate.ActionMerged:
					r.merged++
				}
			}
		}
	}
	r.t.in("mq.ack_batch", func() { _, err = sys.Queue.AckBatch(ids) })
	return err
}

// drains runs the real concurrent pipeline, Coordinator.DrainEach, over
// the same reports on fresh systems: at the daemon's width and
// single-threaded. Their children run on other goroutines and cannot be
// timed from here, so the coordinator's own cost is what DrainEach's
// CPU time per message exceeds the staged children's by.
func (r *replay) drains(ctx context.Context) error {
	reports := r.in.Reports[:r.sz.ingest]
	for _, run := range []struct {
		span, sub string
		width     int
	}{{"coordinator.drain", "drain", 2}, {"coordinator.drain_1w", "drain1w", 1}} {
		cfg, err := r.config(run.sub, run.width)
		if err != nil {
			return err
		}
		sys, err := core.New(cfg)
		if err != nil {
			return err
		}
		for _, m := range reports {
			if _, err := sys.Queue.EnqueueTraced(m.Text, m.Source, ""); err != nil {
				return err
			}
		}
		runtime.GC() // both drains start from a collected heap
		gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
		metrics.Read(gc)
		gc0, all0, cpu0 := gc[0].Value.Float64(), gc[1].Value.Float64(), selfCPU()
		var failed error
		r.t.op()
		r.t.in(run.span, func() {
			sys.MC.DrainEach(ctx, 0, func(_ *coordinator.Outcome, err error) {
				if err != nil {
					failed = err
				}
			})
		})
		cpu1 := selfCPU()
		metrics.Read(gc)
		if err := sys.Close(); err != nil {
			return err
		}
		if failed != nil {
			return fmt.Errorf("%s: %w", run.span, failed)
		}
		if run.width == 2 {
			r.vals["drain_cpu_us_per_msg"] = (cpu1 - cpu0) * 1e6 / float64(len(reports))
			r.vals["runtime.gc_cpu_frac"] = div(gc[0].Value.Float64()-gc0, gc[1].Value.Float64()-all0)
		}
	}
	return nil
}

// ask sends the questions through the read path: once untimed, which
// fills the fuzzy-lookup memo as the live run's warm-up does; whole, as
// core.System.Ask with the cache off; then call by call, with the tracer
// off and on in turn. Those passes differ only by the tracing, which is
// how its overhead is measured.
func (r *replay) ask(ctx context.Context) (err error) {
	qs := r.in.Questions[:r.sz.ask]
	r.t.op()
	r.t.in("ask.warm", func() {
		for _, q := range qs {
			_, _ = r.sys.Ask(ctx, q.Text, q.Source) // a refusal is an outcome; the staged pass counts them
		}
	})
	r.t.in("ask", func() {
		for _, q := range qs {
			r.t.op()
			r.t.in("core.ask", func() { _, _ = r.sys.Ask(ctx, q.Text, q.Source) })
		}
	})
	staged := func() time.Duration {
		start := time.Now()
		r.t.op()
		r.t.in("ask.staged", func() {
			for _, q := range qs {
				r.t.op()
				r.t.in("ask.one", func() { err = r.askOne(ctx, q) })
				if err != nil {
					return
				}
			}
		})
		return time.Since(start)
	}
	// Two passes of each kind, alternating, and the faster of each: what
	// the host adds to a pass it adds to either kind.
	fastest := map[bool]time.Duration{} // by whether the tracer was off
	for pass := range 4 {
		r.t.off = pass%2 == 0
		r.asked = nil
		took := staged()
		if err != nil {
			break
		}
		if best, ok := fastest[r.t.off]; !ok || took < best {
			fastest[r.t.off] = took
		}
	}
	r.t.off = false
	untraced, traced := fastest[true], fastest[false]
	r.vals["harness.trace_overhead_frac"] = div((traced - untraced).Seconds(), untraced.Seconds())
	return err
}

// asked is one answered question of the ask stage, kept for the stages
// that work on answers.
type asked struct {
	question string
	ex       *extract.Extraction
	ans      *qa.Answer
}

// askOne is core.System.Ask's uncached path, one layer call at a time.
func (r *replay) askOne(ctx context.Context, q msg) (err error) {
	var ex *extract.Extraction
	r.t.in("extract.question", func() { ex, err = r.sys.IE.Extract(ctx, q.Text, q.Source, r.now) })
	if err != nil || ex.Type != extract.TypeRequest {
		return err // a question taken for a contribution: the 422 of the live run
	}
	var ans qa.Answer
	r.t.in("qa.answer", func() { ans, err = r.sys.QA.Answer(ctx, ex) })
	if err == nil && ans.Query != "" {
		r.asked = append(r.asked, asked{q.Text, ex, &ans})
	}
	return err
}

// probes times the leaf layers on their own, on the same texts.
func (r *replay) probes(ctx context.Context) (err error) {
	texts := make([]string, 0, 1000)
	for _, m := range r.in.Reports[:min(500, r.sz.ingest)] {
		texts = append(texts, m.Text)
	}
	for _, m := range r.in.Questions[:min(500, r.sz.ask)] {
		texts = append(texts, m.Text)
	}
	r.t.op()
	r.t.in("probes", func() {
		for _, txt := range texts {
			r.t.in("extract.classify", func() { r.sys.IE.ClassifyType(txt) })
		}
		x := ner.NewExtractor(r.gaz, r.sys.Ont)
		for _, txt := range texts {
			r.t.in("ner.informal", func() { x.ExtractInformal(txt) })
		}
		for i := range 1000 {
			city := tweetgen.Cities[i%len(tweetgen.Cities)]
			r.t.in("disambig.resolve", func() {
				_, err = r.sys.IE.Resolver().Resolve(city, disambig.Context{PreferCities: true})
			})
			if err != nil {
				return
			}
		}
		// Names no message has carried: a city with two letters swapped
		// and a digit the generator never emits, so the first lookup must
		// scan the length buckets and the second is served from the memo.
		for i := range 200 {
			b := []byte(tweetgen.Cities[i%len(tweetgen.Cities)])
			p := 1 + i/len(tweetgen.Cities)%(len(b)-2)
			b[p], b[p+1] = b[p+1], b[p]
			name := string(b) + strconv.Itoa(i)
			r.t.in("gazetteer.fuzzy_miss", func() { r.gaz.LookupFuzzy(name, 1) })
			r.t.in("gazetteer.fuzzy_hit", func() { r.gaz.LookupFuzzy(name, 1) })
		}
		// Allocation per extracted report, on its own pass so that reading
		// the allocator's counters stays out of the ingest spans.
		var ms0, ms1 runtime.MemStats
		reports := r.in.Reports[:min(1000, r.sz.ingest)]
		runtime.ReadMemStats(&ms0)
		r.t.in("extract.alloc_pass", func() {
			for _, m := range reports {
				if _, err = r.sys.IE.Extract(ctx, m.Text, m.Source, r.now); err != nil {
					return
				}
			}
		})
		runtime.ReadMemStats(&ms1)
		r.vals["extract.allocs_per_msg"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(reports))
		r.vals["extract.bytes_per_msg"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(reports))
		some := r.asked[:min(500, len(r.asked))]
		runtime.ReadMemStats(&ms0)
		r.t.in("qa.alloc_pass", func() {
			for _, a := range some {
				if _, err = r.sys.QA.Answer(ctx, a.ex); err != nil {
					return
				}
			}
		})
		runtime.ReadMemStats(&ms1)
		r.vals["qa.allocs_per_ask"] = div(float64(ms1.Mallocs-ms0.Mallocs), float64(len(some)))
		if err != nil {
			return
		}
		// The store under the answers: each formulated query run across
		// the shards, parsed, and executed on one shard.
		for _, a := range r.asked[:min(1000, len(r.asked))] {
			ans := a.ans
			r.t.in("shard.run", func() { _, err = r.sys.Store.RunContext(ctx, ans.Query) })
			if err != nil {
				return
			}
			var q *xmldb.Query
			r.t.in("xmldb.parse", func() { q, err = xmldb.Parse(ans.Query) })
			if err != nil {
				return
			}
			r.t.in("xmldb.execute", func() { _, err = r.sys.Store.Shard(0).Execute(q) })
			if err != nil {
				return
			}
		}
	})
	return err
}

// readPath times the answer cache's two halves on a cache of its own
// over the main system's store: what a miss adds to an ask (planning
// the touched shards and storing the answer) and what a hit costs.
func (r *replay) readPath(context.Context) error {
	if len(r.asked) == 0 {
		return fmt.Errorf("the ask stage produced no answer to cache")
	}
	cache := readpath.NewCache(4096)
	store := r.sys.Store
	r.t.op()
	r.t.in("readpath", func() {
		for _, a := range r.asked {
			q := readpath.NormalizeQuestion(a.question)
			versions, drift := store.Versions(), store.Drift()
			r.t.in("readpath.miss_overhead", func() {
				cache.Put(q, a.ans, readpath.TouchedShards(a.ans.Query, store), versions, drift)
			})
			r.t.in("readpath.hit", func() { cache.Get(q, versions, drift) })
		}
	})
	if st := cache.Stats(); st.Hits != int64(len(r.asked)) {
		return fmt.Errorf("readpath: %d hits out of %d lookups of entries just stored", st.Hits, len(r.asked))
	}
	return nil
}

// feedback submits verdicts about records the answers exposed, then
// applies them all in one flush.
func (r *replay) feedback(context.Context) (err error) {
	var ids []int64
	seen := map[int64]bool{}
	for _, a := range r.asked {
		for _, res := range a.ans.Results {
			if id := res.Record.ID; !seen[id] && len(ids) < 500 {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		return fmt.Errorf("no answer exposed a record id")
	}
	r.t.op()
	r.t.in("feedback", func() {
		for i, id := range ids {
			kind := feedback.KindConfirm
			if i%4 == 3 {
				kind = feedback.KindReject
			}
			r.t.op()
			r.t.in("feedback.submit", func() {
				_, err = r.sys.Feedback.Submit(feedback.Verdict{RecordID: id, Kind: kind, Source: "bench"})
			})
			if err != nil {
				return
			}
		}
		applied := 0
		r.t.in("feedback.flush", func() { applied = r.sys.Feedback.Flush() })
		if applied != len(ids) {
			err = fmt.Errorf("feedback: %d of %d verdicts applied", applied, len(ids))
		}
		r.vals["verdicts"] = float64(applied)
	})
	return err
}

// timedSystem is the facade with the three request-path calls timed, so
// that a server span's self time is the serving layer's own overhead.
type timedSystem struct {
	*neogeo.System
	t *tracer
}

func (s timedSystem) Submit(ctx context.Context, body, source string) (id int64, err error) {
	s.t.in("facade.submit", func() { id, err = s.System.Submit(ctx, body, source) })
	return id, err
}

func (s timedSystem) Ask(ctx context.Context, question, source string) (ans *neogeo.Answer, err error) {
	s.t.in("facade.ask", func() { ans, err = s.System.Ask(ctx, question, source) })
	return ans, err
}

func (s timedSystem) Feedback(ctx context.Context, fb neogeo.Feedback) (rc neogeo.FeedbackReceipt, err error) {
	s.t.in("facade.feedback", func() { rc, err = s.System.Feedback(ctx, fb) })
	return rc, err
}

// serve replays the serve_mix schedule through Server.ServeHTTP with the
// answer cache on, draining every 20 operations as the daemon's 20 ms
// loop does at 1000 ops/s. The facade hides its layers, so this stage
// builds its own system, with a 2000-name gazetteer to keep its boot
// short: the serving overhead does not depend on the gazetteer.
func (r *replay) serve(ctx context.Context) error {
	sys, err := neogeo.New(neogeo.WithGazetteerNames(2000), neogeo.WithShards(2), neogeo.WithWorkers(2), neogeo.WithAnswerCache(4096))
	if err != nil {
		return err
	}
	defer sys.Close()
	srv := server.New(timedSystem{sys, r.t})
	reports := r.in.Reports[r.sz.ingest+r.sz.window:]
	call := func(spanName, path string, body []byte) (*httptest.ResponseRecorder, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		r.t.op()
		r.t.in(spanName, func() { srv.ServeHTTP(rec, req) })
		return rec, nil
	}
	tick := func() error {
		var failed error
		r.t.in("server.drain_tick", func() {
			for _, err := range sys.Drain(ctx, 0) {
				if err != nil {
					failed = err
				}
			}
			if _, err := sys.FlushFeedback(ctx); err != nil {
				failed = err
			}
		})
		return failed
	}
	// Something to answer from and to give verdicts on before the mix.
	for _, m := range reports[:min(200, len(reports))] {
		if _, err := sys.Submit(ctx, m.Text, m.Source); err != nil {
			return err
		}
	}
	if err := tick(); err != nil {
		return err
	}
	var ids []int64
	var stageErr error
	r.t.op()
	r.t.in("serve", func() {
		for i, op := range r.in.Mix {
			var rec *httptest.ResponseRecorder
			var err error
			want := http.StatusAccepted
			switch {
			case op.Kind == opReport:
				rec, err = call("server.submit", "/v1/messages", reports[op.Idx%len(reports)].reportBody())
			case op.Kind == opFeedback && len(ids) > 0:
				rec, err = call("server.feedback", "/v1/feedback", verdictBody(ids[op.Idx%len(ids)], op.Confirm))
			default:
				want = http.StatusOK
				rec, err = call("server.ask", "/v1/ask", r.in.Pool[op.Idx%len(r.in.Pool)].askBody())
				if err == nil && len(ids) < 64 {
					ids = append(ids, resultIDs(rec.Body.Bytes())...)
				}
			}
			if err == nil && rec.Code != want && rec.Code != http.StatusUnprocessableEntity {
				err = fmt.Errorf("%s: status %d: %.120s", paths[op.Kind], rec.Code, rec.Body.Bytes())
			}
			if err == nil && i%20 == 19 {
				err = tick()
			}
			if err != nil {
				stageErr = err
				return
			}
		}
	})
	st := sys.Stats()
	r.vals["readpath.hit_ratio"] = st.Cache.HitRate
	r.vals["readpath.invalidations"] = float64(st.Cache.Invalidations)
	return stageErr
}

// persist times checkpointing, then leaves reports in the WAL only,
// copies the directory as it would be after kill -9, and times what a
// restart does with it: the queue's replay and the checkpoint's restore.
func (r *replay) persist(ctx context.Context) (err error) {
	var info persist.Info
	r.t.op()
	r.t.in("persist", func() {
		for range 3 {
			r.t.in("persist.checkpoint", func() { info, err = r.sys.Checkpoint(ctx) })
			if err != nil {
				return
			}
		}
		var img bytes.Buffer
		shard0 := r.sys.Store.Shard(0)
		r.t.in("xmldb.snapshot", func() { err = shard0.Snapshot(&img) })
		if err != nil {
			return
		}
		//lint:ignore singlewriter the restore target is a database of this function's own that nothing else reads or writes
		r.t.in("xmldb.restore", func() { err = xmldb.New().Restore(bytes.NewReader(img.Bytes())) })
	})
	if err != nil {
		return err
	}
	records := 0
	for _, n := range r.sys.Store.Balance() {
		records += n
	}
	r.vals["persist.image_bytes_per_record"] = div(float64(info.Size), float64(records))

	window := r.in.Reports[r.sz.ingest : r.sz.ingest+r.sz.window]
	if err := r.stagedIngest(ctx, "crash.window", window); err != nil {
		return err
	}
	wal, err := os.Stat(filepath.Join(r.dir, "main", "q.wal"))
	if err != nil {
		return err
	}
	r.vals["mq.wal_bytes_per_msg"] = float64(wal.Size()) / float64(r.enqueued)
	crashed := filepath.Join(r.dir, "crashed")
	if err := copyTree(filepath.Join(r.dir, "main"), crashed); err != nil {
		return err
	}
	r.t.op()
	r.t.in("recover", func() {
		var q *mq.Queue
		r.t.in("mq.replay", func() { q, err = mq.Open(filepath.Join(crashed, "q.wal"), mq.WithReplayAckedAfter(info.LSN)) })
		if err != nil {
			return
		}
		replayed := q.Len()
		if err = q.Close(); err != nil {
			return
		}
		if replayed != len(window) {
			err = fmt.Errorf("mq.Open replayed %d messages, the crash window holds %d", replayed, len(window))
			return
		}
		// A store-only system to restore into; the data dir it reads is
		// the crashed copy's.
		var into *core.System
		cfg, cerr := r.config("restore", 2)
		if err = cerr; err != nil {
			return
		}
		cfg.QueueWAL, cfg.DataDir = "", ""
		if into, err = core.New(cfg); err != nil {
			return
		}
		defer into.Close()
		var mgr *persist.Manager
		if mgr, err = persist.NewManager(filepath.Join(crashed, "data")); err != nil {
			return
		}
		var got *persist.Info
		r.t.in("persist.recover", func() { got, err = mgr.Recover(into) })
		if err == nil && (got == nil || got.Seq != info.Seq) {
			err = fmt.Errorf("persist.Recover restored %+v, the newest checkpoint is %d", got, info.Seq)
		}
	})
	return err
}

// report turns the spans into the per-layer table and metrics, checks
// that the table adds up, and writes the span file.
func (r *replay) report(name, outDir string) (map[string]metric, error) {
	rows, by := r.t.table()
	var selfSum time.Duration
	r.printf("%-26s %8s %12s %12s %12s\n", "span", "n", "total ms", "self ms", "self us/call")
	for _, row := range rows {
		selfSum += row.self
		r.printf("%-26s %8d %12.3f %12.3f %12.3f\n", row.name, row.n, ms(row.total), ms(row.self), us(row.self)/float64(row.n))
	}
	root := by["replay"].total // the root span always exists
	r.printf("self times sum to %.3f ms; the root span is %.3f ms\n", ms(selfSum), ms(root))
	r.check(selfSum == root, "%s: span self times sum to %v, the root span is %v", name, selfSum, root)

	// A smoke run can be too small to reach every layer; a layer without
	// spans reports 0 rather than dividing by nothing.
	row := func(span string) layerRow {
		if r := by[span]; r != nil {
			return *r
		}
		return layerRow{}
	}
	mean := func(span string) float64 { return div(us(row(span).total), float64(row(span).n)) }
	selfMean := func(span string) float64 { return div(us(row(span).self), float64(row(span).n)) }
	msgs := float64(row("extract.report").n)
	perMsg := func(span string) float64 { return div(us(row(span).total), msgs) }
	total := func(span string) float64 { return ms(row(span).total) }
	v := r.vals
	v["server.submit_overhead_us"] = selfMean("server.submit")
	v["server.ask_overhead_us"] = selfMean("server.ask")
	v["mq.enqueue_us"] = mean("mq.enqueue")
	v["mq.ack_batch_us_per_msg"] = perMsg("mq.ack_batch")
	v["mq.replay_ms_per_kmsg"] = total("mq.replay") * 1000 / float64(r.sz.window)
	v["coordinator.drain_us_per_msg"] = total("coordinator.drain") * 1000 / float64(r.sz.ingest)
	v["coordinator.drain_1w_us_per_msg"] = total("coordinator.drain_1w") * 1000 / float64(r.sz.ingest)
	staged := perMsg("mq.dequeue") + perMsg("extract.report") + perMsg("shard.route") + perMsg("integrate.groups") + perMsg("mq.ack_batch")
	v["coordinator.self_us_per_msg"] = v["drain_cpu_us_per_msg"] - staged
	v["extract.report_us"] = mean("extract.report")
	v["extract.question_us"] = mean("extract.question")
	v["extract.classify_us"] = mean("extract.classify")
	v["ner.informal_us"] = mean("ner.informal")
	v["disambig.resolve_us"] = mean("disambig.resolve")
	v["gazetteer.fuzzy_miss_us"] = mean("gazetteer.fuzzy_miss")
	v["gazetteer.fuzzy_hit_us"] = mean("gazetteer.fuzzy_hit")
	v["gazetteer.synthesize_ms"] = total("gazetteer.synthesize")
	v["ontology.containment_ms"] = total("ontology.containment")
	v["kb.train_ms"] = total("kb.train")
	v["core.new_ms"] = total("core.new")
	v["integrate.us_per_msg"] = perMsg("integrate.groups")
	v["integrate.merge_ratio"] = div(float64(r.merged), float64(r.inserted+r.merged))
	v["integrate.allocs_per_msg"] = div(float64(r.integrateMallocs), msgs)
	v["shard.route_us"] = mean("shard.route")
	balance := r.sys.Store.Balance()
	most, all := 0, 0
	for _, n := range balance {
		most, all = max(most, n), all+n
	}
	v["shard.skew"] = div(float64(most)*float64(len(balance)), float64(all))
	v["shard.run_us"] = mean("shard.run")
	v["xmldb.parse_us"] = mean("xmldb.parse")
	v["xmldb.execute_us"] = mean("xmldb.execute")
	v["xmldb.snapshot_ms"] = total("xmldb.snapshot")
	v["xmldb.restore_ms"] = total("xmldb.restore")
	v["qa.answer_us"] = mean("qa.answer")
	v["core.ask_us"] = mean("core.ask")
	v["readpath.hit_us"] = mean("readpath.hit")
	v["readpath.miss_overhead_us"] = mean("readpath.miss_overhead")
	v["feedback.submit_us"] = mean("feedback.submit")
	v["feedback.flush_us_per_verdict"] = div(total("feedback.flush")*1000, v["verdicts"])
	v["persist.checkpoint_ms"] = mean("persist.checkpoint") / 1000
	v["persist.recover_ms"] = total("persist.recover")

	out := map[string]metric{}
	r.printf("\n")
	for _, m := range perLayer {
		out[m.name] = metric{Value: v[m.name], Unit: m.unit}
		r.printf("%-32s %14.4f %s\n", m.name, v[m.name], m.unit)
	}
	r.printf("  coordinator.self_us_per_msg = DrainEach CPU %.1f us/msg - staged dequeue+extract+route+integrate+ack %.1f us/msg\n", v["drain_cpu_us_per_msg"], staged)
	r.attempted += len(r.t.spans)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "trace-"+name+".json")
	b, err := json.Marshal(r.t.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, err
	}
	r.printf("  %d spans written to %s\n", len(r.t.spans), path)
	return out, nil
}

// div is a/b, and 0 when there is nothing to divide by.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
