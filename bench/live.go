package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// setUps is how many times a run sets up; setup_s is their median.
const setUps = 3

// live is one workload's state against a live daemon.
type live struct {
	*harness
	name   string
	in     *inputs
	golden string
	ids    []int64 // record ids answers exposed during warm-up (serve_mix)
	extra  []string
}

// runLive measures one workload end to end and prints its report.
func (h *harness) runLive(ctx context.Context, name string) (map[string]metric, error) {
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	l := &live{harness: h, name: name, in: generate(h.seed, sizesFor(name, h.seconds, h.scale))}
	if name == "serve_mix" {
		l.extra = []string{"-answer-cache", "4096"}
	}
	h.printf("\n== %s (inputs %s)\n", name, l.in.digest())

	goldenS, err := l.buildGolden(ctx)
	if err != nil {
		return nil, fmt.Errorf("building the golden store: %w", err)
	}
	d, setups, err := l.setUp(ctx)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var m measured
	switch name {
	case "ingest_stream":
		m, err = l.ingestStream(ctx, d)
	case "ask_cold":
		m, err = l.askCold(ctx, d)
	case "serve_mix":
		m, err = l.serveMix(ctx, d)
	case "crash_recover":
		m, err = l.crashRecover(ctx, d)
	}
	if err != nil {
		return nil, err
	}
	// A graceful stop must drain, flush and checkpoint without a word.
	if err := d.stop(syscall.SIGTERM); err != nil {
		h.check(false, "%s: %v", name, err)
	}
	h.check(d.quiet() == nil, "%s: %v", name, d.quiet())

	m.set("setup_s", median(setups), "spawn to end of warm-up from a copy of the golden store: median of %s", fmtFloats(setups, 3))
	out := map[string]metric{}
	for _, e := range endToEnd {
		v := m.values[e.name]
		h.check(v > 0, "%s: metric %s is %v", name, e.name, v)
		out[e.name] = metric{Value: v, Unit: e.unit}
		h.printf("%-18s %12.4f %-4s %s\n", e.name, v, e.unit, m.notes[e.name])
	}
	h.printf("  harness.golden_build_s %.3f\n", goldenS)
	for _, line := range m.info {
		h.printf("  %s\n", line)
	}
	h.printf("  ops_attempted %d  ops_failed %d\n", m.attempted, m.failed)
	h.attempted += m.attempted
	h.failed += m.failed
	return out, nil
}

// measured is what a workload hands back: the end-to-end values, a note
// per value saying what it is on this workload, and informational lines.
type measured struct {
	values            map[string]float64
	notes             map[string]string
	info              []string
	attempted, failed int
}

func newMeasured() measured {
	return measured{values: map[string]float64{}, notes: map[string]string{}}
}

func (m *measured) set(name string, v float64, note string, args ...any) {
	m.values[name] = v
	m.notes[name] = fmt.Sprintf(note, args...)
}

func (m *measured) infof(format string, args ...any) {
	m.info = append(m.info, fmt.Sprintf(format, args...))
}

// ok says whether a reply is the one the operation should get. A 422 is
// what a question the classifier takes for a contribution earns.
func (s sample) ok() bool {
	switch s.kind {
	case opAsk:
		return s.status == http.StatusOK || s.status == http.StatusUnprocessableEntity
	default:
		return s.status == http.StatusAccepted
	}
}

// tally counts a phase's operations into m.
func (m *measured) tally(samples []sample) {
	for _, s := range samples {
		m.attempted++
		if !s.ok() {
			m.failed++
		}
	}
}

// latencies are those of the successful operations of one kind.
func latencies(samples []sample, kind opKind) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if s.kind == kind && s.ok() {
			out = append(out, s.lat)
		}
	}
	return out
}

func (l *live) dir(name string) string { return filepath.Join(l.scratch, name) }

func reports(ms []msg) func(int) request {
	bodies := make([][]byte, len(ms))
	for i, m := range ms {
		bodies[i] = m.reportBody()
	}
	return func(i int) request { return request{opReport, bodies[i%len(bodies)]} }
}

func questions(ms []msg) func(int) request {
	bodies := make([][]byte, len(ms))
	for i, m := range ms {
		bodies[i] = m.askBody()
	}
	return func(i int) request { return request{opAsk, bodies[i%len(bodies)]} }
}

// submitAll sends n reports closed-loop and waits until the queue has
// settled them; every one must be accepted and none dead-lettered.
func (l *live) submitAll(ctx context.Context, d *daemon, ms []msg, what string) error {
	before, err := getStats(ctx, l.ctl, d.base)
	if err != nil {
		return err
	}
	for _, s := range closedLoop(ctx, l.load, d.base, len(ms), 0, false, reports(ms)) {
		if !s.ok() {
			return fmt.Errorf("%s: a report got status %d", what, s.status)
		}
	}
	after, err := waitSettled(ctx, l.ctl, d.base, before.settled()+len(ms))
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if after.Queue.DeadLettered != 0 {
		return fmt.Errorf("%s: %d messages dead-lettered", what, after.Queue.DeadLettered)
	}
	return nil
}

// checkpoint asks the daemon for a checkpoint now.
func (l *live) checkpoint(ctx context.Context, d *daemon) error {
	status, body, err := post(ctx, l.ctl, d.base+"/v1/checkpoint", nil)
	if err != nil {
		return fmt.Errorf("POST /v1/checkpoint: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST /v1/checkpoint: status %d: %.120s", status, body)
	}
	return nil
}

// buildGolden ingests the preload into a fresh daemon over HTTP,
// checkpoints and stops it gracefully. Each workload starts from a copy
// of the directory left behind. It is rebuilt by every run, by the code
// under test, because the snapshot format belongs to that code.
func (l *live) buildGolden(ctx context.Context) (seconds float64, err error) {
	l.golden = l.dir("golden")
	if err := os.MkdirAll(l.golden, 0o755); err != nil {
		return 0, err
	}
	start := time.Now()
	d, err := l.spawn(l.golden)
	if err != nil {
		return 0, err
	}
	if err := d.waitHealthy(ctx, l.ctl); err != nil {
		return 0, err
	}
	if err := l.submitAll(ctx, d, l.in.Preload, "preload"); err != nil {
		return 0, err
	}
	if err := l.checkpoint(ctx, d); err != nil {
		return 0, err
	}
	if err := d.stop(syscall.SIGTERM); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), d.quiet()
}

// setUp brings a daemon from a copy of the golden directory to the end
// of the workload's warm-up, setUps times, and keeps the last one.
// setup_s runs from spawn to the end of warm-up, so work moved from the
// request path into boot shows here.
func (l *live) setUp(ctx context.Context) (*daemon, []float64, error) {
	var times []float64
	for k := 0; ; k++ {
		dir := l.dir(fmt.Sprintf("run-%d", k))
		if err := copyTree(l.golden, dir); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		d, err := l.spawn(dir, l.extra...)
		if err != nil {
			return nil, nil, err
		}
		if err := d.waitHealthy(ctx, l.ctl); err != nil {
			return nil, nil, err
		}
		if err := l.warmUp(ctx, d); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if k == setUps-1 {
			return d, times, nil
		}
		if err := d.stop(syscall.SIGKILL); err != nil {
			return nil, nil, err
		}
		l.check(d.quiet() == nil, "set-up %d: %v", k, d.quiet())
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
}

// warmUp sends untimed operations of the workload's own mix, which fill
// the fuzzy-lookup memo and other lazy state.
func (l *live) warmUp(ctx context.Context, d *daemon) error {
	switch l.name {
	case "ask_cold":
		for _, s := range closedLoop(ctx, l.load, d.base, len(l.in.Questions), 0, false, questions(l.in.Questions)) {
			if !s.ok() {
				return fmt.Errorf("a question got status %d", s.status)
			}
		}
		return nil
	case "serve_mix":
		// Asks first: their answers expose the record ids the feedback
		// verdicts are about.
		n := len(l.in.Warm)
		l.ids = l.ids[:0]
		seen := map[int64]bool{}
		for _, s := range closedLoop(ctx, l.load, d.base, n*9/10, 0, true, questions(l.in.Pool)) {
			if !s.ok() {
				return fmt.Errorf("a question got status %d", s.status)
			}
			for _, id := range resultIDs(s.body) {
				if !seen[id] {
					seen[id] = true
					l.ids = append(l.ids, id)
				}
			}
		}
		if len(l.ids) == 0 {
			return fmt.Errorf("no warm-up answer exposed a record id")
		}
		sort.Slice(l.ids, func(i, j int) bool { return l.ids[i] < l.ids[j] })
		if err := l.submitAll(ctx, d, l.in.Warm[:n*8/100], "warm-up reports"); err != nil {
			return err
		}
		verdicts := func(i int) request { return request{opFeedback, verdictBody(l.ids[i%len(l.ids)], true)} }
		for _, s := range closedLoop(ctx, l.load, d.base, max(n*2/100, 1), 0, false, verdicts) {
			if !s.ok() {
				return fmt.Errorf("a verdict got status %d", s.status)
			}
		}
		_, err := l.waitApplied(ctx, d)
		return err
	default:
		return l.submitAll(ctx, d, l.in.Warm, "warm-up reports")
	}
}

// verdictBody is a POST /v1/feedback body about one record.
func verdictBody(id int64, confirm bool) []byte {
	verdict := "reject"
	if confirm {
		verdict = "confirm"
	}
	return []byte(`{"record_id":` + strconv.FormatInt(id, 10) + `,"verdict":"` + verdict + `","source":"bench"}`)
}

// waitApplied polls until no accepted verdict is still buffered (they
// apply on the drain cadence) and returns the snapshot that showed it.
func (l *live) waitApplied(ctx context.Context, d *daemon) (stats, error) {
	for {
		st, err := getStats(ctx, l.ctl, d.base)
		if err != nil || st.Feedback.Pending == 0 {
			return st, err
		}
		select {
		case <-ctx.Done():
			return st, fmt.Errorf("waiting for %d buffered verdicts: %w", st.Feedback.Pending, ctx.Err())
		case <-time.After(pollEvery):
		}
	}
}

// askReply is the part of a POST /v1/ask reply the harness reads.
type askReply struct {
	Answer struct {
		Text    string `json:"text"`
		Results []struct {
			ID int64 `json:"id"`
		} `json:"results"`
	} `json:"answer"`
}

// resultIDs extracts the record ids of an /v1/ask reply.
func resultIDs(body []byte) []int64 {
	var reply askReply
	if json.Unmarshal(body, &reply) != nil {
		return nil // a 422 envelope has no answer
	}
	ids := make([]int64, len(reply.Answer.Results))
	for i, r := range reply.Answer.Results {
		ids[i] = r.ID
	}
	return ids
}

// answers is what the fixed check questions got, asked one at a time:
// how many had each of the three outcomes a question can have, and a
// fingerprint of the answer texts. On a static store both repeat; across
// two builds of a store only the outcomes do, because two workers
// integrate the same reports in a different order every time.
type answers struct {
	digest                  string
	answered, refused, none int // 200 with results / 422 not a question / 200 with no results
}

// sameOutcomes compares everything but the texts.
func (a answers) sameOutcomes(b answers) bool {
	return a.answered == b.answered && a.refused == b.refused && a.none == b.none
}

func (l *live) ask(ctx context.Context, d *daemon, m *measured) (answers, error) {
	var a answers
	h := sha256.New()
	for _, q := range l.in.Check {
		status, body, err := post(ctx, l.ctl, d.base+"/v1/ask", q.askBody())
		if err != nil {
			return a, err
		}
		m.attempted++
		var reply askReply
		switch {
		case status == http.StatusUnprocessableEntity:
			a.refused++
		case status == http.StatusOK && json.Unmarshal(body, &reply) == nil && reply.Answer.Text != "":
			if len(reply.Answer.Results) == 0 {
				a.none++
			} else {
				a.answered++
			}
		default:
			m.failed++
			l.check(false, "%s: check question %q got status %d, body %.80q", l.name, q.Text, status, body)
		}
		fmt.Fprintf(h, "%d\x00%s\x00", status, reply.Answer.Text)
	}
	a.digest = hex.EncodeToString(h.Sum(nil)[:8])
	return a, nil
}

func (a answers) String() string {
	return fmt.Sprintf("answered=%d not_a_question=%d empty=%d digest=%s", a.answered, a.refused, a.none, a.digest)
}

// usage reads the daemon's CPU clock and peak RSS.
func usage(d *daemon) (cpu, rssMB float64, err error) {
	if cpu, err = d.cpuSeconds(); err != nil {
		return 0, 0, err
	}
	rssMB, err = d.peakRSSMB()
	return cpu, rssMB, err
}

// fromSlices reports the median slice of each figure, and the rate of
// every slice so that drift and disturbed slices are visible. serve_mix,
// whose slices all complete what arrived in them, passes no rate name
// and reports its rate over the whole phase. tail is the percentile
// reported as latency_tail_ms: 99, or 90 where the p99 does not repeat.
func (m *measured) fromSlices(stats []sliceStat, rate, lat, from string, tail int) {
	rates := make([]float64, len(stats))
	n := 0
	for i, st := range stats {
		rates[i] = st.rate
		n += st.n
	}
	if rate != "" {
		m.set("throughput_per_s", median(rates), "%s: median of %d slices %s", rate, len(stats), fmtFloats(rates, 0))
	}
	m.set("latency_p50_ms", medianOf(stats, func(s sliceStat) float64 { return s.p50 }), "%s_p50_ms%s: median slice, n=%d in all", lat, from, n)
	p99 := medianOf(stats, func(s sliceStat) float64 { return s.p99 })
	if tail == 99 {
		m.set("latency_tail_ms", p99, "%s_p99_ms%s: median slice, about %d per slice", lat, from, n/len(stats))
	} else {
		m.set("latency_tail_ms", medianOf(stats, func(s sliceStat) float64 { return s.p90 }), "%s_p90_ms%s: median slice, about %d per slice", lat, from, n/len(stats))
		m.infof("%s_p99_ms%s %.4f (median slice; set by a handful of stalls per slice, it repeats only within a fifth)", lat, from, p99)
	}
	m.set("cpu_ms_per_op", medianOf(stats, func(s sliceStat) float64 { return s.cpuMs }), "daemon user+sys per operation: median slice")
}

// burst is how many reports ingest_stream submits at a time.
const burst = 2500

// ingestStream: closed loop, bursts of reports as fast as replies allow,
// each burst timed from its first submit to its last acknowledgement,
// until the phase is over. A burst is one slice.
func (l *live) ingestStream(ctx context.Context, d *daemon) (measured, error) {
	m := newMeasured()
	before, err := getStats(ctx, l.ctl, d.base)
	if err != nil {
		return m, err
	}
	size := max(int(burst*l.scale), 8)
	next := reports(l.in.Reports)
	var bursts []sliceStat
	settled := before.settled()
	var after stats
	for start := time.Now(); time.Since(start) < l.phase() || len(bursts) < 3; {
		cpu0, _, err := usage(d)
		if err != nil {
			return m, err
		}
		offset := len(bursts) * size
		t := time.Now()
		samples := closedLoop(ctx, l.load, d.base, size, 0, false, func(i int) request { return next(offset + i) })
		m.tally(samples)
		lat := latencies(samples, opReport)
		settled += len(lat)
		if after, err = waitSettled(ctx, l.ctl, d.base, settled); err != nil {
			return m, err
		}
		took := time.Since(t)
		cpu1, _, err := usage(d)
		if err != nil {
			return m, err
		}
		bursts = append(bursts, sliceStat{
			rate:  float64(len(lat)) / took.Seconds(),
			cpuMs: (cpu1 - cpu0) * 1000 / float64(len(lat)),
			p50:   percentile(lat, 50), p99: percentile(lat, 99), n: len(lat),
		})
	}
	_, rss, err := usage(d)
	if err != nil {
		return m, err
	}
	accepted := settled - before.settled()
	l.check(after.Queue.DeadLettered == 0, "ingest_stream: %d messages dead-lettered", after.Queue.DeadLettered)
	l.check(after.Queue.Acked == before.Queue.Acked+accepted, "ingest_stream: acked %d, want %d", after.Queue.Acked, before.Queue.Acked+accepted)
	l.check(records(after) > records(before), "ingest_stream: the store did not grow (%d records)", records(after))
	a, err := l.ask(ctx, d, &m)
	if err != nil {
		return m, err
	}
	l.check(a.answered > 0, "ingest_stream: no check question was answered from the store")

	m.fromSlices(bursts, fmt.Sprintf("ingest_per_s, bursts of %d reports from first submit to last ack", size), "submit", "", 99)
	m.set("rss_peak_mb", rss, "VmHWM at the last ack")
	m.infof("records %d -> %d in %d collections; check questions: %s", records(before), records(after), len(after.Collections), a)
	if wraps := accepted / len(l.in.Reports); wraps > 0 {
		m.infof("the report stream wrapped around %d times", wraps)
	}
	return m, nil
}

func records(st stats) int {
	n := 0
	for _, c := range st.Collections {
		n += c
	}
	return n
}

// A slice of a stationary phase is long enough to hold the 2000 asks a
// p99 needs and short enough that a phase has several: ask_cold answers
// some 3000 asks a second, serve_mix is sent 900.
const (
	askColdSlice  = 1500 * time.Millisecond
	serveMixSlice = 3 * time.Second
)

// sliced runs a stationary phase against d and cuts it into slices of
// the given length.
func (l *live) sliced(ctx context.Context, d *daemon, slice time.Duration, kind opKind, run func() []sample) ([]sample, []sliceStat) {
	n := max(int(l.phase()/slice), 1)
	if n == 1 {
		slice = l.phase()
	}
	marks := cpuSampler(ctx, d, time.Now(), slice, n)
	samples := run()
	return samples, cut(samples, kind, <-marks, slice, n)
}

// askCold: closed loop, questions against the static golden store,
// answer cache off.
func (l *live) askCold(ctx context.Context, d *daemon) (measured, error) {
	m := newMeasured()
	before, err := getStats(ctx, l.ctl, d.base)
	if err != nil {
		return m, err
	}
	a0, err := l.ask(ctx, d, &m)
	if err != nil {
		return m, err
	}
	samples, stats := l.sliced(ctx, d, askColdSlice, opAsk, func() []sample {
		return closedLoop(ctx, l.load, d.base, 0, l.phase(), false, questions(l.in.Questions))
	})
	_, rss, err := usage(d)
	if err != nil {
		return m, err
	}
	m.tally(samples)
	a1, err := l.ask(ctx, d, &m)
	if err != nil {
		return m, err
	}
	after, err := getStats(ctx, l.ctl, d.base)
	if err != nil {
		return m, err
	}
	l.check(a0 == a1, "ask_cold: the static store answered differently after the phase: %s, then %s", a0, a1)
	l.check(reflect.DeepEqual(before.Collections, after.Collections), "ask_cold: asking changed the store: %v -> %v", before.Collections, after.Collections)
	l.check(a0.answered > 0, "ask_cold: no check question was answered from the store")

	m.fromSlices(stats, "ask_per_s", "ask", "", 99)
	m.set("rss_peak_mb", rss, "VmHWM at the end of the phase")
	var answered, refused, none int
	for _, s := range samples {
		switch {
		case s.status == http.StatusUnprocessableEntity:
			refused++
		case s.empty:
			none++
		case s.ok():
			answered++
		}
	}
	m.infof("asks: %d answered, %d not_a_question (422), %d with no result; check questions: %s", answered, refused, none, a0)
	m.infof("%d distinct questions, each asked about %d times", len(l.in.Questions), len(samples)/len(l.in.Questions))
	return m, nil
}

// serveMix: open loop at serveRate for the phase; cache hits with
// writes beside them invalidating entries.
func (l *live) serveMix(ctx context.Context, d *daemon) (measured, error) {
	m := newMeasured()
	before, err := getStats(ctx, l.ctl, d.base)
	if err != nil {
		return m, err
	}
	ask, report := questions(l.in.Pool), reports(l.in.Reports)
	next := func(i int) request {
		switch op := l.in.Mix[i]; op.Kind {
		case opAsk:
			return ask(op.Idx)
		case opReport:
			return report(op.Idx)
		default:
			return request{opFeedback, verdictBody(l.ids[op.Idx%len(l.ids)], op.Confirm)}
		}
	}
	self0 := selfCPU()
	samples, stats := l.sliced(ctx, d, serveMixSlice, opAsk, func() []sample {
		return openLoop(ctx, l.load, d.base, len(l.in.Mix), serveRate, next)
	})
	self1 := selfCPU()
	_, rss, err := usage(d)
	if err != nil {
		return m, err
	}
	m.tally(samples)
	var late []time.Duration
	for _, s := range samples {
		late = append(late, s.late)
	}
	sub, fb := latencies(samples, opReport), latencies(samples, opFeedback)
	after, err := waitSettled(ctx, l.ctl, d.base, before.settled()+len(sub))
	if err != nil {
		return m, err
	}
	if after, err = l.waitApplied(ctx, d); err != nil {
		return m, err
	}
	l.check(after.Queue.DeadLettered == 0, "serve_mix: %d messages dead-lettered", after.Queue.DeadLettered)
	l.check(after.Queue.Acked == before.Queue.Acked+len(sub), "serve_mix: acked %d, want %d", after.Queue.Acked, before.Queue.Acked+len(sub))
	l.check(after.Feedback.Applied-before.Feedback.Applied == int64(len(fb)), "serve_mix: %d verdicts applied, %d accepted", after.Feedback.Applied-before.Feedback.Applied, len(fb))
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	l.check(hits > 0, "serve_mix: the answer cache never hit")
	a, err := l.ask(ctx, d, &m)
	if err != nil {
		return m, err
	}

	m.fromSlices(stats, "", "ask", " from the due time", 90)
	// The arrival rate is fixed, so a slice completes what arrived in it;
	// over the whole phase the rate shows whether the daemon kept up.
	took := samples[len(samples)-1].done
	asks := latencies(samples, opAsk)
	m.set("throughput_per_s", float64(len(asks)+len(sub)+len(fb))/took.Seconds(), "ops of every kind completed per second, first due time to last reply, at a fixed %d/s arrival rate", serveRate)
	m.set("rss_peak_mb", rss, "VmHWM at the end of the phase")
	m.infof("submit_p50_ms %.4f (n=%d)  feedback_p50_ms %.4f (n=%d), both from the due time, over the whole phase", percentile(sub, 50), len(sub), percentile(fb, 50), len(fb))
	m.infof("readpath.hit_ratio %.4f (%d hits, %d misses)  readpath.invalidations %d", float64(hits)/float64(hits+misses), hits, misses, after.Cache.Invalidations-before.Cache.Invalidations)
	m.infof("loadgen.late_p99_ms %.4f (send - due)  loadgen.cpu_ms_per_op %.4f", percentile(late, 99), (self1-self0)*1000/float64(len(samples)))
	m.infof("check questions: %s", a)
	return m, nil
}

// selfCPU is this process's user+system CPU time.
func selfCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// recoverySeconds is about what one recovery takes on the reference box;
// the phase length buys -seconds/recoverySeconds of them. The count is
// fixed per run, not timed, so that "the slowest of n" means the same
// thing on every run.
const recoverySeconds = 3

// crashRecover: write past the last checkpoint, kill -9, then recover
// from a fresh copy of the crashed directory several times. One
// operation is one recovery: spawn until /healthz answers and the queue
// has settled as many messages as before the crash.
func (l *live) crashRecover(ctx context.Context, d *daemon) (measured, error) {
	m := newMeasured()
	sz := sizesFor(l.name, l.seconds, l.scale)
	covered, window := l.in.Reports[:sz.covered], l.in.Reports[sz.covered:]
	if err := l.submitAll(ctx, d, covered, "reports the checkpoints cover"); err != nil {
		return m, err
	}
	var ckpt []time.Duration
	for range 10 {
		t := time.Now()
		if err := l.checkpoint(ctx, d); err != nil {
			return m, err
		}
		ckpt = append(ckpt, time.Since(t))
	}
	if err := l.submitAll(ctx, d, window, "reports left in the WAL only"); err != nil {
		return m, err
	}
	m.attempted += len(covered) + len(window) + len(ckpt)
	want, err := getStats(ctx, l.ctl, d.base)
	if err != nil {
		return m, err
	}
	a0, err := l.ask(ctx, d, &m)
	if err != nil {
		return m, err
	}
	if err := d.stop(syscall.SIGKILL); err != nil {
		return m, err
	}
	l.check(d.quiet() == nil, "crash_recover: %v", d.quiet())
	image := l.dir("crashed")
	if err := copyTree(d.dir, image); err != nil {
		return m, err
	}

	var secs, cpus, rsss []float64
	var last stats
	var a1 answers
	for len(secs) < max(3, int(l.seconds/recoverySeconds)) {
		dir := l.dir(fmt.Sprintf("recover-%d", len(secs)))
		if err := copyTree(image, dir); err != nil {
			return m, err
		}
		t := time.Now()
		r, err := l.spawn(dir)
		if err != nil {
			return m, err
		}
		if err := r.waitHealthy(ctx, l.ctl); err != nil {
			return m, err
		}
		healthy := time.Since(t)
		if last, err = waitSettled(ctx, l.ctl, r.base, want.settled()); err != nil {
			return m, err
		}
		secs = append(secs, time.Since(t).Seconds())
		cpu, rss, err := usage(r)
		if err != nil {
			return m, err
		}
		cpus, rsss = append(cpus, cpu*1000/float64(len(window))), append(rsss, rss)
		m.attempted++
		if len(secs) == 1 {
			m.infof("first recovery: /healthz after %.3f s, caught up after %.3f s", healthy.Seconds(), secs[0])
			// crashed ≡ uninterrupted, checked once: every cycle starts
			// from the same bytes.
			if a1, err = l.ask(ctx, r, &m); err != nil {
				return m, err
			}
		}
		if err := r.stop(syscall.SIGKILL); err != nil {
			return m, err
		}
		l.check(r.quiet() == nil, "crash_recover: recovery %d: %v", len(secs), r.quiet())
		if err := os.RemoveAll(dir); err != nil {
			return m, err
		}
	}
	// Not byte-for-byte: with two workers the replayed window integrates
	// in another order than it first did, and fuzzy duplicate detection
	// and trust feedback depend on that order (the repository's own
	// equivalence test pins one worker and distinct hotels). What must
	// hold is that nothing is lost or dead-lettered, every collection
	// comes back within 2% of its size, and every check question gets
	// the same kind of reply.
	l.check(last.settled() == want.settled() && last.Queue.DeadLettered == 0, "crash_recover: settled %d (dead-lettered %d) after recovery, %d before the crash", last.settled(), last.Queue.DeadLettered, want.settled())
	for name, n := range want.Collections {
		got := last.Collections[name]
		l.check(math.Abs(float64(got-n)) <= 0.02*float64(n), "crash_recover: collection %s has %d records after recovery, %d before the crash", name, got, n)
	}
	l.check(a0.sameOutcomes(a1), "crash_recover: check questions: %s before the crash, %s after recovery", a0, a1)

	m.set("throughput_per_s", float64(len(window))/median(secs), "WAL-only messages re-integrated per second of recovery: %d / median recover_s %.4f", len(window), median(secs))
	m.set("latency_p50_ms", median(secs)*1000, "recover_s in ms: median of %d recoveries %s", len(secs), fmtFloats(secs, 3))
	m.set("latency_tail_ms", slices.Max(secs)*1000, "the slowest of the %d recoveries", len(secs))
	m.set("cpu_ms_per_op", median(cpus), "daemon user+sys from spawn to caught up / replayed message, median recovery")
	m.set("rss_peak_mb", median(rsss), "VmHWM when caught up, median recovery")
	m.infof("checkpoint_p50_ms %.4f (n=%d, %d records)", percentile(ckpt, 50), len(ckpt), records(want))
	m.infof("check questions before the crash: %s; after recovery: %s", a0, a1)
	// The caller stops d again; it is already gone, which stop accepts.
	return m, nil
}

func fmtFloats(xs []float64, prec int) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += strconv.FormatFloat(x, 'f', prec, 64)
	}
	return s + "]"
}
