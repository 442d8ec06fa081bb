// Benchmark harness: one benchmark (or benchmark pair) per paper artifact
// and per extended experiment in DESIGN.md §4. Run with
//
//	go test -bench=. -benchmem
//
// E1-E3 regenerate Table 1 / Figure 1 / Figure 2 statistics from the
// calibrated synthetic gazetteer; E4 replays the paper's worked Berlin
// scenario through the full Figure 3 pipeline; E5-E10 are the quantitative
// experiments the paper's research questions call for (see EXPERIMENTS.md
// for the accuracy numbers — these benches measure the cost side).
package neogeo

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/disambig"
	"repro/internal/extract"
	"repro/internal/feedback"
	"repro/internal/gazetteer"
	"repro/internal/geo"
	"repro/internal/integrate"
	"repro/internal/kb"
	"repro/internal/ner"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/pxml"
	"repro/internal/shard"
	"repro/internal/tweetgen"
	"repro/internal/uncertain"
	"repro/internal/xmldb"
)

// ---------------------------------------------------------------------------
// Shared fixtures. Building the calibrated 20k-name gazetteer takes real
// time, so every benchmark shares one read-only copy.

var (
	benchOnce sync.Once
	benchGaz  *gazetteer.Gazetteer
	benchOnt  *ontology.Ontology
)

func benchFixtures(b *testing.B) (*gazetteer.Gazetteer, *ontology.Ontology) {
	b.Helper()
	benchOnce.Do(func() {
		g, err := gazetteer.Synthesize(gazetteer.Config{Names: 20000, Seed: 2011})
		if err != nil {
			panic(err)
		}
		o := ontology.New()
		o.LoadContainment(g)
		benchGaz, benchOnt = g, o
	})
	return benchGaz, benchOnt
}

// ---------------------------------------------------------------------------
// E1 — Table 1: the ten most ambiguous geographic names.

func BenchmarkTable1TopAmbiguous(b *testing.B) {
	g, _ := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := g.TopAmbiguous(10)
		if len(stats) != 10 {
			b.Fatalf("want 10 rows, got %d", len(stats))
		}
	}
}

// ---------------------------------------------------------------------------
// E2 — Figure 1: number of names per ambiguity degree (log-log series).

func BenchmarkFigure1AmbiguityHistogram(b *testing.B) {
	g, _ := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := g.AmbiguityHistogram()
		if len(h) == 0 {
			b.Fatal("empty histogram")
		}
	}
}

// ---------------------------------------------------------------------------
// E3 — Figure 2: share of names by reference count (54/12/5/29).

func BenchmarkFigure2ReferenceShares(b *testing.B) {
	g, _ := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := g.Shares()
		if s.One <= 0 {
			b.Fatal("degenerate shares")
		}
	}
}

// ---------------------------------------------------------------------------
// E4 — the paper's worked scenario: three Berlin hotel tweets ingested,
// one request answered. Each iteration runs the full Figure 3 workflow
// (MQ -> MC -> IE -> DI -> XMLDB -> QA).

var paperScenarioMessages = []string{
	"berlin has some nice hotels i just loved the hetero friendly love that word Axel Hotel in Berlin.",
	"Good morning Berlin. The sun is out!!!! Very impressed by the customer service at #movenpick hotel in berlin. Well done guys!",
	"In Berlin hotel room, nice enough, weather grim however",
}

const paperScenarioRequest = "Can anyone recommend a good, but not ridiculously expensive hotel right in the middle of Berlin?"

func BenchmarkScenarioPipeline(b *testing.B) {
	g, _ := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := core.New(core.Config{Gazetteer: g})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j, m := range paperScenarioMessages {
			if _, err := sys.Ingest(context.Background(), m, fmt.Sprintf("user%d", j)); err != nil {
				b.Fatal(err)
			}
		}
		answer, err := sys.Ask(context.Background(), paperScenarioRequest, "asker")
		if err != nil {
			b.Fatal(err)
		}
		if answer.Text == "" {
			b.Fatal("empty answer")
		}
		b.StopTimer()
		sys.Close()
		b.StartTimer()
	}
}

// ---------------------------------------------------------------------------
// E5 — NER on ill-behaved text: informal recogniser vs traditional
// capitalisation/POS baseline, at increasing noise. EXPERIMENTS.md reports
// the precision/recall collapse of the baseline; these measure cost.

func benchCorpus(b *testing.B, noise float64, n int) []tweetgen.Message {
	b.Helper()
	gen, err := tweetgen.New(tweetgen.Config{Seed: 2011, Noise: noise, Domain: tweetgen.DomainTourism, RequestRatio: 0})
	if err != nil {
		b.Fatal(err)
	}
	return gen.Generate(n)
}

func BenchmarkNERInformal(b *testing.B) {
	g, o := benchFixtures(b)
	x := ner.NewExtractor(g, o)
	for _, noise := range []float64{0, 0.5, 1.0} {
		b.Run(fmt.Sprintf("noise=%.1f", noise), func(b *testing.B) {
			msgs := benchCorpus(b, noise, 200)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = x.ExtractInformal(msgs[i%len(msgs)].Text)
			}
		})
	}
}

func BenchmarkNERTraditional(b *testing.B) {
	g, o := benchFixtures(b)
	x := ner.NewExtractor(g, o)
	for _, noise := range []float64{0, 0.5, 1.0} {
		b.Run(fmt.Sprintf("noise=%.1f", noise), func(b *testing.B) {
			msgs := benchCorpus(b, noise, 200)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = x.ExtractTraditional(msgs[i%len(msgs)].Text)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E6 — disambiguation: population-prior baseline vs full context-aware
// resolver over ambiguous names sampled from the gazetteer.

func ambiguousNames(g *gazetteer.Gazetteer, n int) []string {
	stats := g.TopAmbiguous(n)
	names := make([]string, 0, len(stats))
	for _, s := range stats {
		names = append(names, s.Name)
	}
	return names
}

func BenchmarkDisambiguationPriorOnly(b *testing.B) {
	g, o := benchFixtures(b)
	r := disambig.NewResolver(g, o)
	names := ambiguousNames(g, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ResolvePriorOnly(names[i%len(names)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDisambiguationContext(b *testing.B) {
	g, o := benchFixtures(b)
	r := disambig.NewResolver(g, o)
	names := ambiguousNames(g, 100)
	// A co-toponym near the first reference of each name provides the
	// geographic coherence signal a real message carries.
	ctxs := make([]disambig.Context, len(names))
	for i, name := range names {
		refs := g.Lookup(name)
		if len(refs) == 0 {
			continue
		}
		near := g.Near(refs[0].Location, 200_000)
		if len(near) > 1 {
			ctxs[i] = disambig.Context{CoToponyms: [][]*gazetteer.Entry{near[:1]}}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(names)
		if _, err := r.Resolve(names[k], ctxs[k]); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E7 — integration: probabilistic conflict resolution vs naive overwrite.
// Each iteration integrates one pre-extracted template into a database
// seeded with conflicting facts about the same entities.

func benchTemplates(b *testing.B, g *gazetteer.Gazetteer, o *ontology.Ontology, n int) []extract.Template {
	b.Helper()
	k := kb.New()
	ie, err := extract.NewService(k, g, o, core.NewTrustModel().Reliability, nil)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := tweetgen.New(tweetgen.Config{Seed: 7, Noise: 0.3, Domain: tweetgen.DomainTourism, RequestRatio: 0})
	if err != nil {
		b.Fatal(err)
	}
	var tpls []extract.Template
	now := time.Unix(1_300_000_000, 0)
	for _, m := range gen.Generate(n * 3) {
		ex, err := ie.Extract(context.Background(), m.Text, m.Source, now)
		if err != nil {
			continue
		}
		tpls = append(tpls, ex.Templates...)
		if len(tpls) >= n {
			break
		}
	}
	if len(tpls) == 0 {
		b.Fatal("no templates extracted")
	}
	return tpls
}

func BenchmarkIntegrationProbabilistic(b *testing.B) {
	g, o := benchFixtures(b)
	tpls := benchTemplates(b, g, o, 64)
	db := xmldb.New()
	di, err := integrate.NewService(kb.New(), core.NewTrustModel(), db)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := di.Integrate(tpls[i%len(tpls)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntegrationNaive(b *testing.B) {
	g, o := benchFixtures(b)
	tpls := benchTemplates(b, g, o, 64)
	db := xmldb.New()
	di, err := integrate.NewService(kb.New(), core.NewTrustModel(), db)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := di.IntegrateNaive(tpls[i%len(tpls)]); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E8 — spatial index: R-tree vs linear scan, range and kNN, with the point
// count swept to expose the crossover, plus the fanout ablation (DESIGN §5).

func randomPoints(n int, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	for i := range pts {
		p, _ := geo.NewPoint(rng.Float64()*180-90, rng.Float64()*360-180)
		pts[i] = p
	}
	return pts
}

func BenchmarkRTreeRange(b *testing.B) {
	for _, n := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			pts := randomPoints(n, 42)
			t := geo.NewRTree[int]()
			for i, p := range pts {
				if err := t.Insert(geo.BBoxOf(p), i); err != nil {
					b.Fatal(err)
				}
			}
			queries := randomPoints(64, 43)
			b.ResetTimer()
			var dst []int
			for i := 0; i < b.N; i++ {
				q := geo.BBoxAround(queries[i%len(queries)], 100_000)
				dst = t.Search(q, dst[:0])
			}
		})
	}
}

func BenchmarkLinearScanRange(b *testing.B) {
	for _, n := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			pts := randomPoints(n, 42)
			queries := randomPoints(64, 43)
			b.ResetTimer()
			var hits int
			for i := 0; i < b.N; i++ {
				q := geo.BBoxAround(queries[i%len(queries)], 100_000)
				hits = 0
				for _, p := range pts {
					if q.Contains(p) {
						hits++
					}
				}
			}
			_ = hits
		})
	}
}

func BenchmarkRTreeKNN(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			pts := randomPoints(n, 42)
			t := geo.NewRTree[int]()
			for i, p := range pts {
				if err := t.Insert(geo.BBoxOf(p), i); err != nil {
					b.Fatal(err)
				}
			}
			queries := randomPoints(64, 43)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := t.Nearest(queries[i%len(queries)], 10); len(got) != 10 {
					b.Fatalf("want 10 neighbours, got %d", len(got))
				}
			}
		})
	}
}

func BenchmarkRTreeFanout(b *testing.B) {
	pts := randomPoints(20000, 42)
	queries := randomPoints(64, 43)
	for _, max := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("max=%d", max), func(b *testing.B) {
			t, err := geo.NewRTreeWithFanout[int](max/2, max)
			if err != nil {
				b.Fatal(err)
			}
			for i, p := range pts {
				if err := t.Insert(geo.BBoxOf(p), i); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var dst []int
			for i := 0; i < b.N; i++ {
				q := geo.BBoxAround(queries[i%len(queries)], 100_000)
				dst = t.Search(q, dst[:0])
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E9 — end-to-end throughput of the coordinator pipeline over a mixed
// informative/request stream. ns/op here is "time per message".

func BenchmarkPipelineThroughput(b *testing.B) {
	g, _ := benchFixtures(b)
	gen, err := tweetgen.New(tweetgen.Config{Seed: 99, Noise: 0.4, Domain: tweetgen.DomainMixed, RequestRatio: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	msgs := gen.Generate(512)
	sys, err := core.New(core.Config{Gazetteer: g})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := msgs[i%len(msgs)]
		if _, err := sys.Ingest(context.Background(), m.Text, m.Source); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E9b — concurrent drain: the coordinator's worker-pool + batching
// pipeline versus the sequential drain, on a WAL-backed queue (the
// durable production configuration whose per-ack fsync the batching stage
// group-commits). The msgs/sec metric is the throughput headline; on a
// single-core machine the speedup comes from batching and I/O overlap,
// on multi-core additionally from parallel extraction.

// drainPipeline runs the queue through the pipeline engine, returning how
// many messages finished and the first error.
func drainPipeline(sys *core.System) (done int, first error) {
	sys.MC.DrainEach(context.Background(), 0, func(_ *coordinator.Outcome, err error) {
		switch {
		case err == nil:
			done++
		case first == nil:
			first = err
		}
	})
	return done, first
}

// drainSequential is the same over the reference engine, in queue order.
func drainSequential(sys *core.System) (done int, first error) {
	for {
		_, ok, err := sys.MC.ProcessOne(context.Background())
		switch {
		case !ok:
			return done, first
		case err == nil:
			done++
		case first == nil:
			first = err
		}
	}
}

func BenchmarkDrainParallel(b *testing.B) {
	g, _ := benchFixtures(b)
	gen, err := tweetgen.New(tweetgen.Config{Seed: 99, Noise: 0.4, Domain: tweetgen.DomainMixed, RequestRatio: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	msgs := gen.Generate(256)
	const perIter = 64

	configs := []struct {
		name       string
		workers    int
		concurrent bool
	}{
		{"sequential", 1, false},
		{"workers=1", 1, true},
		{"workers=4", 4, true},
		{"workers=8", 8, true},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			processed := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := core.New(core.Config{
					Gazetteer: g,
					Workers:   cfg.workers,
					QueueWAL:  filepath.Join(b.TempDir(), "queue.wal"),
				})
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < perIter; j++ {
					m := msgs[(i*perIter+j)%len(msgs)]
					if _, err := sys.Submit(context.Background(), m.Text, m.Source); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				var done int
				var derr error
				if cfg.concurrent {
					done, derr = drainPipeline(sys)
				} else {
					done, derr = drainSequential(sys)
				}
				b.StopTimer()
				if derr != nil {
					b.Fatalf("drain errors: %v", derr)
				}
				processed += done
				sys.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(processed)/b.Elapsed().Seconds(), "msgs/sec")
		})
	}
}

// ---------------------------------------------------------------------------
// E14 — observability cost: the same WAL-backed concurrent drain with the
// metrics registry recording versus disabled (one atomic load per
// instrument call and every observation skipped). The two msgs/sec
// figures bound what the whole instrumentation layer charges the hot
// path; the roadmap's acceptance bar is within 5%.

func BenchmarkDrainMetricsOverhead(b *testing.B) {
	g, _ := benchFixtures(b)
	gen, err := tweetgen.New(tweetgen.Config{Seed: 99, Noise: 0.4, Domain: tweetgen.DomainMixed, RequestRatio: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	msgs := gen.Generate(256)
	const perIter = 64

	for _, cfg := range []struct {
		name    string
		enabled bool
	}{
		{"metrics=on", true},
		{"metrics=off", false},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			obs.Default().SetEnabled(cfg.enabled)
			defer obs.Default().SetEnabled(true)
			processed := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := core.New(core.Config{
					Gazetteer: g,
					Workers:   4,
					QueueWAL:  filepath.Join(b.TempDir(), "queue.wal"),
				})
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < perIter; j++ {
					m := msgs[(i*perIter+j)%len(msgs)]
					if _, err := sys.Submit(context.Background(), m.Text, m.Source); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				_, derr := drainPipeline(sys)
				b.StopTimer()
				if derr != nil {
					b.Fatalf("drain errors: %v", derr)
				}
				processed += perIter
				sys.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(processed)/b.Elapsed().Seconds(), "msgs/sec")
		})
	}
}

// BenchmarkDrainTracingOverhead prices the span layer the same way the
// metrics leg does: recorder=off is the default deployment (StartSpan
// degrades to a context lookup plus an atomic load and must sit within
// the drain benchmark's noise floor); recorder=on pays span allocation
// and the keep-policy decision per message.
func BenchmarkDrainTracingOverhead(b *testing.B) {
	g, _ := benchFixtures(b)
	gen, err := tweetgen.New(tweetgen.Config{Seed: 99, Noise: 0.4, Domain: tweetgen.DomainMixed, RequestRatio: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	msgs := gen.Generate(256)
	const perIter = 64

	for _, cfg := range []struct {
		name     string
		recorder *obs.Recorder
	}{
		{"recorder=on", obs.NewRecorder(obs.RecorderConfig{Capacity: 256, SampleN: 1})},
		{"recorder=off", nil},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			obs.SetDefaultRecorder(cfg.recorder)
			defer obs.SetDefaultRecorder(nil)
			processed := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := core.New(core.Config{
					Gazetteer: g,
					Workers:   4,
					QueueWAL:  filepath.Join(b.TempDir(), "queue.wal"),
				})
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < perIter; j++ {
					m := msgs[(i*perIter+j)%len(msgs)]
					if _, err := sys.Submit(context.Background(), m.Text, m.Source); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				_, derr := drainPipeline(sys)
				b.StopTimer()
				if derr != nil {
					b.Fatalf("drain errors: %v", derr)
				}
				processed += perIter
				sys.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(processed)/b.Elapsed().Seconds(), "msgs/sec")
		})
	}
}

// ---------------------------------------------------------------------------
// E12 — durability cost: what checkpointing charges the pipeline. One
// benchmark prices a single checkpoint as the store grows; the other
// compares batch-drain throughput with a checkpoint after every batch
// (the worst-case cadence) against no checkpointing at all.

func BenchmarkCheckpoint(b *testing.B) {
	g, _ := benchFixtures(b)
	gen, err := tweetgen.New(tweetgen.Config{Seed: 99, Noise: 0.4, Domain: tweetgen.DomainMixed})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			sys, err := core.New(core.Config{
				Gazetteer: g,
				Workers:   4,
				DataDir:   b.TempDir(),
				// Retention keeps the directory bounded however many
				// iterations the harness runs.
				CheckpointRetain: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			for _, m := range gen.Generate(n) {
				if _, err := sys.Submit(context.Background(), m.Text, m.Source); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := drainPipeline(sys); err != nil {
				b.Fatalf("drain errors: %v", err)
			}
			var bytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				info, err := sys.Checkpoint(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				bytes = info.Size
			}
			b.ReportMetric(float64(bytes), "ckpt-bytes")
		})
	}
}

func BenchmarkDrainWithCheckpointing(b *testing.B) {
	g, _ := benchFixtures(b)
	gen, err := tweetgen.New(tweetgen.Config{Seed: 99, Noise: 0.4, Domain: tweetgen.DomainMixed, RequestRatio: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	msgs := gen.Generate(256)
	const perIter = 64
	for _, checkpointing := range []bool{false, true} {
		name := "off"
		if checkpointing {
			name = "per-batch"
		}
		b.Run(name, func(b *testing.B) {
			processed := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := core.Config{
					Gazetteer: g,
					Workers:   4,
					QueueWAL:  filepath.Join(b.TempDir(), "queue.wal"),
				}
				if checkpointing {
					cfg.DataDir = filepath.Join(b.TempDir(), "data")
					cfg.CheckpointRetain = 2
				}
				sys, err := core.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < perIter; j++ {
					m := msgs[(i*perIter+j)%len(msgs)]
					if _, err := sys.Submit(context.Background(), m.Text, m.Source); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				done, derr := drainPipeline(sys)
				if checkpointing {
					if _, err := sys.Checkpoint(context.Background()); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if derr != nil {
					b.Fatalf("drain errors: %v", derr)
				}
				processed += done
				sys.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(processed)/b.Elapsed().Seconds(), "msgs/sec")
		})
	}
}

// ---------------------------------------------------------------------------
// E15 — the hot read path: the shard-versioned answer cache. Both
// benchmarks serve the same rotating question set over the same drained
// store; the cached system answers every repeat from the cache (the
// store is quiescent, so no version moves and every ask after the warm
// pass is a hit) while the uncached one re-runs the full QA pipeline.
// The roadmap's acceptance bar is a >=5x lower hit latency.

var askBenchQuestions = []string{
	"can anyone recommend a good hotel in Berlin?",
	"any good hotels near Paris?",
	"is the road to the airport open?",
}

func benchAskSystem(b *testing.B, cache int) *core.System {
	b.Helper()
	g, _ := benchFixtures(b)
	gen, err := tweetgen.New(tweetgen.Config{Seed: 99, Noise: 0.4, Domain: tweetgen.DomainMixed})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.New(core.Config{Gazetteer: g, Workers: 4, Shards: 4, AnswerCache: cache})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range gen.Generate(256) {
		if _, err := sys.Submit(context.Background(), m.Text, m.Source); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := drainPipeline(sys); err != nil {
		b.Fatalf("drain errors: %v", err)
	}
	// Warm pass: fills the cache when one is configured; for the uncached
	// system it just equalises any lazy one-time costs.
	for _, q := range askBenchQuestions {
		if _, err := sys.Ask(context.Background(), q, "asker"); err != nil {
			b.Fatal(err)
		}
	}
	return sys
}

func BenchmarkAskUncached(b *testing.B) {
	sys := benchAskSystem(b, 0)
	defer sys.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Ask(context.Background(), askBenchQuestions[i%len(askBenchQuestions)], "asker"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAskCached(b *testing.B) {
	sys := benchAskSystem(b, 64)
	defer sys.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Ask(context.Background(), askBenchQuestions[i%len(askBenchQuestions)], "asker"); err != nil {
			b.Fatal(err)
		}
	}
	if st := sys.Cache.Stats(); st.Hits == 0 {
		b.Fatalf("benchmark never hit the cache: %+v", st)
	}
}

// ---------------------------------------------------------------------------
// E10 — probabilistic XML query cost: marginal-probability evaluation vs
// explicit possible-world enumeration, as the number of distribution nodes
// (and thus worlds) grows.

func benchPXMLDoc(choices int) *pxml.Node {
	kids := make([]*pxml.Node, 0, choices+1)
	kids = append(kids, pxml.ElemText("Name", "Essex House Hotel"))
	for i := 0; i < choices; i++ {
		a := pxml.ElemText("City", fmt.Sprintf("City%d-A", i))
		a.Prob = 0.6
		bNode := pxml.ElemText("City", fmt.Sprintf("City%d-B", i))
		bNode.Prob = 0.4
		kids = append(kids, pxml.Mux(a, bNode))
	}
	return pxml.Elem("Hotel", kids...)
}

func BenchmarkPXMLMarginal(b *testing.B) {
	for _, choices := range []int{1, 4, 8, 12} {
		b.Run(fmt.Sprintf("mux=%d", choices), func(b *testing.B) {
			doc := benchPXMLDoc(choices)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p := pxml.ValueProb(doc, "/Hotel/City", "City0-A"); p <= 0 {
					b.Fatalf("prob = %v", p)
				}
			}
		})
	}
}

func BenchmarkPXMLWorlds(b *testing.B) {
	for _, choices := range []int{1, 4, 8, 12} {
		b.Run(fmt.Sprintf("mux=%d", choices), func(b *testing.B) {
			doc := benchPXMLDoc(choices)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				worlds, err := pxml.EnumerateWorlds(doc, pxml.DefaultWorldLimit)
				if err != nil {
					b.Fatal(err)
				}
				if len(worlds) == 0 {
					b.Fatal("no worlds")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation (DESIGN §5): MYCIN certainty-factor combination vs Bayesian
// product fusion for evidence pooling.

func BenchmarkUncertainCombineMYCIN(b *testing.B) {
	cfs := make([]uncertain.CF, 16)
	for i := range cfs {
		cfs[i] = uncertain.CF(0.1 + 0.05*float64(i%10))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = uncertain.CombineAll(cfs)
	}
}

func BenchmarkUncertainCombineBayes(b *testing.B) {
	ps := make([]float64, 16)
	for i := range ps {
		ps[i] = 0.5 + 0.03*float64(i%10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Odds-product fusion of independent evidence.
		odds := 1.0
		for _, p := range ps {
			odds *= p / (1 - p)
		}
		_ = odds / (1 + odds)
	}
}

// ---------------------------------------------------------------------------
// E11 — sharded store: per-shard integration lanes versus the single
// batching integrator. The workload is the integration stage in
// isolation (pre-extracted templates, location-less so duplicate
// detection must scan its shard's collection): sharding divides every
// scan by the shard count — a single-core win — and on multi-core
// hardware the lanes additionally commit in parallel. See EXPERIMENTS.md
// §E11 for reference runs and cmd/integbench -mode=parallel -shards for
// the end-to-end pipeline numbers.

// shardBenchGroups builds per-message template groups over `entities`
// distinct location-less hotels, pre-partitioned by the integrator's
// routing (one slice of batches per lane, batch size 16 as in the
// pipeline).
func shardBenchGroups(in *shard.Integrator, n, entities int) [][][][]extract.Template {
	d := uncertain.NewDist()
	_ = d.Add("Positive", 0.9)
	_ = d.Add("Negative", 0.1)
	now := time.Unix(1_300_000_000, 0)
	names := hotelBenchNames(entities)
	perLane := make([][][]extract.Template, in.Lanes())
	for i := 0; i < n; i++ {
		tpl := extract.Template{
			Domain:    "tourism",
			RecordTag: "Hotel",
			Fields: map[string]extract.FieldValue{
				"Hotel_Name":    {Kind: kb.FieldText, Text: names[i%entities], CF: 0.9},
				"User_Attitude": {Kind: kb.FieldAttitude, Dist: d.Clone(), CF: 0.8},
			},
			Certainty: 0.5,
			Source:    fmt.Sprintf("citizen%d", i%11),
			Extracted: now.Add(time.Duration(i) * time.Second),
		}
		group := []extract.Template{tpl}
		perLane[in.Route(group)] = append(perLane[in.Route(group)], group)
	}
	const batch = 16
	out := make([][][][]extract.Template, in.Lanes())
	for lane, groups := range perLane {
		for len(groups) > 0 {
			k := batch
			if k > len(groups) {
				k = len(groups)
			}
			out[lane] = append(out[lane], groups[:k])
			groups = groups[k:]
		}
	}
	return out
}

// hotelBenchNames builds mutually dissimilar entity names (see
// cmd/integbench) so the benchmark measures scan cost, not accidental
// merging.
func hotelBenchNames(n int) []string {
	first := []string{"Azure", "Bravado", "Crimson", "Dunmore", "Elysian", "Falcon",
		"Gilded", "Harbour", "Ivory", "Juniper", "Kestrel", "Lakeside",
		"Meridian", "Northgate", "Opal", "Paragon"}
	second := []string{"Palace", "Lodge", "Retreat", "Towers", "Courtyard", "Manor",
		"Pavilion", "Terrace", "Springs", "Villa", "Quarters", "Haven"}
	names := make([]string, 0, n)
	for i := 0; len(names) < n; i++ {
		names = append(names, fmt.Sprintf("%s %s %d",
			first[i%len(first)], second[(i/len(first)+i)%len(second)], i))
	}
	return names
}

func BenchmarkShardIntegrateLanes(b *testing.B) {
	const msgs, entities = 1024, 768
	for _, nShards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", nShards), func(b *testing.B) {
			processed := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, err := shard.New(nShards)
				if err != nil {
					b.Fatal(err)
				}
				in, err := shard.NewIntegrator(kb.New(), core.NewTrustModel(), st)
				if err != nil {
					b.Fatal(err)
				}
				laneBatches := shardBenchGroups(in, msgs, entities)
				b.StartTimer()
				var wg sync.WaitGroup
				for lane := 0; lane < in.Lanes(); lane++ {
					wg.Add(1)
					go func(lane int) {
						defer wg.Done()
						for _, batch := range laneBatches[lane] {
							for _, group := range in.IntegrateGroups(lane, batch) {
								for _, r := range group {
									if r.Err != nil {
										b.Error(r.Err)
									}
								}
							}
						}
					}(lane)
				}
				wg.Wait()
				processed += msgs
			}
			b.ReportMetric(float64(processed)/b.Elapsed().Seconds(), "msgs/sec")
		})
	}
}

// BenchmarkDrainSharded is the end-to-end variant: the full concurrent
// pipeline (workers=4) over a WAL-backed queue, with the store and the
// integration tail partitioned per configuration. On a single core the
// pipeline is extraction-bound and the lanes only shrink dedup scans; on
// multi-core hardware the lanes also integrate in parallel.
func BenchmarkDrainSharded(b *testing.B) {
	g, _ := benchFixtures(b)
	gen, err := tweetgen.New(tweetgen.Config{Seed: 99, Noise: 0.4, Domain: tweetgen.DomainMixed, RequestRatio: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	msgs := gen.Generate(256)
	const perIter = 64

	for _, nShards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", nShards), func(b *testing.B) {
			processed := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := core.New(core.Config{
					Gazetteer: g,
					Workers:   4,
					Shards:    nShards,
					QueueWAL:  filepath.Join(b.TempDir(), "queue.wal"),
				})
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < perIter; j++ {
					m := msgs[(i*perIter+j)%len(msgs)]
					if _, err := sys.Submit(context.Background(), m.Text, m.Source); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				done, derr := drainPipeline(sys)
				b.StopTimer()
				if derr != nil {
					b.Fatalf("drain errors: %v", derr)
				}
				processed += done
				sys.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(processed)/b.Elapsed().Seconds(), "msgs/sec")
		})
	}
}

// ---------------------------------------------------------------------------
// E13: the feedback loop. BenchmarkFeedbackApply prices the new write
// path that is not message integration — verdict validation, durable
// ledger sequencing and the per-shard batched apply (certainty + trust
// + reinforcement) — across shard layouts. BenchmarkMixedAskFeedback
// drains the mixed serving workload the loop creates in production:
// questions answered while verdicts about earlier answers apply.

// benchFeedbackSystem builds a drained store of n records and returns
// the system plus every record ID (feedback targets).
func benchFeedbackSystem(b *testing.B, shards, n int) (*core.System, []int64) {
	b.Helper()
	g, _ := benchFixtures(b)
	gen, err := tweetgen.New(tweetgen.Config{Seed: 99, Noise: 0.4, Domain: tweetgen.DomainMixed})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.New(core.Config{Gazetteer: g, Workers: 4, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range gen.Generate(n) {
		if _, err := sys.Submit(context.Background(), m.Text, m.Source); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := drainPipeline(sys); err != nil {
		b.Fatalf("drain errors: %v", err)
	}
	var ids []int64
	for _, coll := range sys.Store.Collections() {
		for i := 0; i < sys.Store.NumShards(); i++ {
			sys.Store.Shard(i).Each(coll, func(rec *xmldb.Record) bool {
				ids = append(ids, rec.ID)
				return true
			})
		}
	}
	if len(ids) == 0 {
		b.Fatal("no records to give feedback about")
	}
	return sys, ids
}

func BenchmarkFeedbackApply(b *testing.B) {
	kinds := []feedback.Kind{feedback.KindConfirm, feedback.KindConfirm, feedback.KindReject}
	for _, nShards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", nShards), func(b *testing.B) {
			sys, ids := benchFeedbackSystem(b, nShards, 256)
			defer sys.Close()
			b.ResetTimer()
			applied := 0
			for i := 0; i < b.N; i++ {
				if _, err := sys.Feedback.Submit(feedback.Verdict{
					RecordID: ids[i%len(ids)],
					Kind:     kinds[i%len(kinds)],
					Source:   fmt.Sprintf("judge%d", i%13),
				}); err != nil {
					b.Fatal(err)
				}
				applied++
				if i%64 == 63 {
					sys.Feedback.Flush()
				}
			}
			sys.Feedback.Flush()
			b.ReportMetric(float64(applied)/b.Elapsed().Seconds(), "verdicts/sec")
		})
	}
}

func BenchmarkMixedAskFeedbackDrain(b *testing.B) {
	questions := []string{
		"can anyone recommend a good hotel in Berlin?",
		"any good hotels near Paris?",
		"is the road to the airport open?",
	}
	sys, ids := benchFeedbackSystem(b, 4, 256)
	defer sys.Close()
	gen, err := tweetgen.New(tweetgen.Config{Seed: 7, Noise: 0.4, Domain: tweetgen.DomainMixed})
	if err != nil {
		b.Fatal(err)
	}
	stream := gen.Generate(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One serving beat: a fresh contribution drains, a question is
		// answered, a verdict arrives and the buffered batch applies.
		m := stream[i%len(stream)]
		if _, err := sys.Submit(context.Background(), m.Text, m.Source); err != nil {
			b.Fatal(err)
		}
		if _, err := drainPipeline(sys); err != nil {
			b.Fatalf("drain errors: %v", err)
		}
		if _, err := sys.Ask(context.Background(), questions[i%len(questions)], "asker"); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Feedback.Submit(feedback.Verdict{
			RecordID: ids[i%len(ids)],
			Kind:     feedback.KindConfirm,
			Source:   fmt.Sprintf("fan%d", i%7),
		}); err != nil {
			b.Fatal(err)
		}
		sys.Feedback.Flush()
	}
}
