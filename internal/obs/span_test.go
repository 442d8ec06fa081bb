package obs

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

// withRecorder installs r as the process recorder for one test and
// restores the previous one afterwards.
func withRecorder(t *testing.T, r *Recorder) {
	t.Helper()
	prev := DefaultRecorder()
	SetDefaultRecorder(r)
	t.Cleanup(func() { SetDefaultRecorder(prev) })
}

// TestStartSpanDisabledIsNoop pins the hot-path contract: with no
// recorder installed and no parent span, StartSpan returns the exact
// ctx it was given plus a nil span, and every Span method is nil-safe.
func TestStartSpanDisabledIsNoop(t *testing.T) {
	withRecorder(t, nil)
	ctx := context.Background()
	got, sp := StartSpan(ctx, "ask")
	if got != ctx {
		t.Error("StartSpan with tracing off returned a derived context")
	}
	if sp != nil {
		t.Fatalf("StartSpan with tracing off returned a span: %+v", sp)
	}
	sp.SetAttr("k", "v")
	sp.SetInt("n", 1)
	sp.SetError(errors.New("x"))
	sp.End()
	if id := sp.SpanID(); id != 0 {
		t.Errorf("nil span SpanID = %d, want 0", id)
	}
	if v := sp.Snapshot(); v != nil {
		t.Errorf("nil span Snapshot = %+v, want nil", v)
	}
}

// TestSpanTreeSnapshot builds a small tree and checks the recorded
// structure: parent/child nesting, attributes, the error flag, and the
// trace ID reusing the context's flat ID.
func TestSpanTreeSnapshot(t *testing.T) {
	withRecorder(t, NewRecorder(RecorderConfig{Capacity: 4, Slow: time.Nanosecond}))

	ctx := WithTrace(context.Background(), "req-1")
	ctx, root := StartSpan(ctx, "http_request")
	if got := Trace(ctx); got != "req-1" {
		t.Fatalf("root trace ID = %q, want req-1 (the flat ID)", got)
	}
	childCtx, child := StartSpan(ctx, "extract")
	child.SetAttr("type", "request")
	_, grand := StartSpan(childCtx, "ner")
	grand.SetInt("entities", 2)
	grand.End()
	child.End()
	_, errSpan := StartSpan(ctx, "answer")
	errSpan.SetError(errors.New("no results"))
	errSpan.End()
	root.End()

	v, ok := DefaultRecorder().Get("req-1")
	if !ok {
		t.Fatal("completed trace not kept (Slow=1ns should always keep)")
	}
	if v.KeepReason != "error" {
		// The errored span outranks the slow bar in the keep policy.
		t.Errorf("KeepReason = %q, want error", v.KeepReason)
	}
	if !v.Errored {
		t.Error("trace with an errored span not marked Errored")
	}
	if v.SpanCount != 4 {
		t.Errorf("SpanCount = %d, want 4", v.SpanCount)
	}
	r := v.Root
	if r == nil || r.Name != "http_request" || len(r.Children) != 2 {
		t.Fatalf("root = %+v, want http_request with 2 children", r)
	}
	ex := r.Children[0]
	if ex.Name != "extract" || len(ex.Children) != 1 || ex.Children[0].Name != "ner" {
		t.Errorf("first child = %+v, want extract > ner", ex)
	}
	if len(ex.Attrs) != 1 || ex.Attrs[0] != (Attr{Key: "type", Value: "request"}) {
		t.Errorf("extract attrs = %+v", ex.Attrs)
	}
	if got := r.Children[1].Error; got != "no results" {
		t.Errorf("answer span error = %q, want no results", got)
	}
}

// TestForceSpanWithoutRecorder pins the explain path's independence
// from deployment configuration: ForceSpan records a snapshotable
// trace even when tracing is off process-wide.
func TestForceSpanWithoutRecorder(t *testing.T) {
	withRecorder(t, nil)
	ctx, sp := ForceSpan(context.Background(), "ask_explain")
	_, child := StartSpan(ctx, "ask")
	child.End()
	sp.End()
	v := sp.Snapshot()
	if v == nil || v.Root == nil {
		t.Fatal("ForceSpan trace did not snapshot without a recorder")
	}
	if len(v.Root.Children) != 1 || v.Root.Children[0].Name != "ask" {
		t.Errorf("snapshot = %+v, want ask_explain > ask", v.Root)
	}
	if v.TraceID == "" {
		t.Error("forced trace minted no ID")
	}
}

// TestRecorderKeepPolicy is the policy table: which completed traces
// the flight recorder retains, and why.
func TestRecorderKeepPolicy(t *testing.T) {
	never := time.Hour // no trace in this test is genuinely slow
	cases := []struct {
		name   string
		cfg    RecorderConfig
		run    func(id string)
		reason string // "" means dropped
	}{
		{"slow_always_kept", RecorderConfig{Slow: time.Nanosecond}, nil, "slow"},
		{"fast_dropped", RecorderConfig{Slow: never}, nil, ""},
		{"errored_kept", RecorderConfig{Slow: never}, func(id string) {
			ctx := WithTrace(context.Background(), id)
			_, sp := StartSpan(ctx, "ask")
			sp.SetError(errors.New("boom"))
			sp.End()
		}, "error"},
		{"forced_kept", RecorderConfig{Slow: never}, func(id string) {
			ctx := WithTrace(context.Background(), id)
			_, sp := ForceSpan(ctx, "ask_explain")
			sp.End()
		}, "forced"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := NewRecorder(tc.cfg)
			withRecorder(t, rec)
			if tc.run == nil {
				tc.run = func(id string) {
					ctx := WithTrace(context.Background(), id)
					_, sp := StartSpan(ctx, "ask")
					sp.End()
				}
			}
			tc.run("t1")
			v, ok := rec.Get("t1")
			if tc.reason == "" {
				if ok {
					t.Fatalf("trace kept with reason %q, want dropped", v.KeepReason)
				}
				if st := rec.Stats(); st.Dropped != 1 || st.KeptTotal != 0 {
					t.Errorf("stats = %+v, want 1 dropped", st)
				}
				return
			}
			if !ok {
				t.Fatal("trace dropped, want kept")
			}
			if v.KeepReason != tc.reason {
				t.Errorf("KeepReason = %q, want %q", v.KeepReason, tc.reason)
			}
		})
	}
}

// TestRecorderSampling checks 1-in-N retention of ordinary traces:
// with SampleN=3, every third fast, clean trace is kept.
func TestRecorderSampling(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 16, Slow: time.Hour, SampleN: 3})
	withRecorder(t, rec)
	for i := 0; i < 9; i++ {
		ctx := WithTrace(context.Background(), fmt.Sprintf("t%d", i))
		_, sp := StartSpan(ctx, "ask")
		sp.End()
	}
	st := rec.Stats()
	if st.Completed != 9 || st.KeptTotal != 3 || st.Dropped != 6 {
		t.Fatalf("stats = %+v, want 9 completed / 3 kept / 6 dropped", st)
	}
	for _, s := range rec.Recent(10) {
		if s.KeepReason != "sampled" {
			t.Errorf("trace %s kept with reason %q, want sampled", s.TraceID, s.KeepReason)
		}
	}
}

// TestRecorderEviction fills the ring past capacity and checks the
// oldest kept traces are displaced, stay counted, and stop resolving
// by ID.
func TestRecorderEviction(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 2, Slow: time.Nanosecond})
	withRecorder(t, rec)
	for i := 0; i < 5; i++ {
		ctx := WithTrace(context.Background(), fmt.Sprintf("t%d", i))
		_, sp := StartSpan(ctx, "ask")
		sp.End()
	}
	st := rec.Stats()
	if st.Kept != 2 || st.KeptTotal != 5 || st.Evicted != 3 {
		t.Fatalf("stats = %+v, want kept 2 / kept_total 5 / evicted 3", st)
	}
	for i := 0; i < 3; i++ {
		if _, ok := rec.Get(fmt.Sprintf("t%d", i)); ok {
			t.Errorf("evicted trace t%d still resolves by ID", i)
		}
	}
	recent := rec.Recent(10)
	if len(recent) != 2 || recent[0].TraceID != "t4" || recent[1].TraceID != "t3" {
		t.Errorf("Recent = %+v, want [t4 t3]", recent)
	}
}

// TestSpanCapDropsChildren pins the per-trace memory bound: spans past
// maxSpansPerTrace are counted, not recorded, and the snapshot reports
// the drop.
func TestSpanCapDropsChildren(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 2, Slow: time.Nanosecond})
	withRecorder(t, rec)
	ctx := WithTrace(context.Background(), "big")
	ctx, root := StartSpan(ctx, "http_request")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, sp := StartSpan(ctx, "shard_run")
		sp.End()
	}
	root.End()
	v, ok := rec.Get("big")
	if !ok {
		t.Fatal("capped trace not kept")
	}
	if v.SpanCount != maxSpansPerTrace {
		t.Errorf("SpanCount = %d, want the cap %d", v.SpanCount, maxSpansPerTrace)
	}
	if v.SpansDropped != 11 {
		t.Errorf("SpansDropped = %d, want 11", v.SpansDropped)
	}
}

// TestRecorderConcurrency hammers trace creation and completion from
// many goroutines while readers snapshot every view — run under -race
// in CI. Counter totals must be exact: every trace completes exactly
// once.
func TestRecorderConcurrency(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 32, Slow: time.Nanosecond})
	withRecorder(t, rec)

	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec.Get("w0-10")
				rec.Recent(10)
				rec.Slowest(10)
				rec.Active(10)
				rec.Stats()
			}
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx := WithTrace(context.Background(), fmt.Sprintf("w%d-%d", w, i))
				ctx, root := StartSpan(ctx, "http_request")
				_, child := StartSpan(ctx, "extract")
				child.SetInt("i", i)
				child.End()
				root.End()
			}
		}(w)
	}
	// The writers drive Completed to its total; once there, stop the
	// readers and join everyone.
	for rec.Stats().Completed != workers*perWorker {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	st := rec.Stats()
	if st.Completed != workers*perWorker {
		t.Errorf("completed = %d, want %d", st.Completed, workers*perWorker)
	}
	if st.KeptTotal != workers*perWorker {
		t.Errorf("kept_total = %d, want %d (1ns slow bar keeps everything)", st.KeptTotal, workers*perWorker)
	}
	if st.Kept != 32 {
		t.Errorf("kept = %d, want ring capacity 32", st.Kept)
	}
	if st.Active != 0 {
		t.Errorf("active = %d, want 0 after all roots ended", st.Active)
	}
}

// TestTracesHandler exercises both renderings of the debug view and
// the disabled message.
func TestTracesHandler(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 4, Slow: time.Nanosecond})
	withRecorder(t, rec)
	_, sp := StartSpan(WithTrace(context.Background(), "dbg-2"), "http_request")
	sp.End()

	h := TracesHandler(func() *Recorder { return rec })
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces", nil))
	if got := w.Header().Get("Content-Type"); !strings.HasPrefix(got, "text/html") {
		t.Errorf("Content-Type = %q, want text/html", got)
	}
	if body := w.Body.String(); !strings.Contains(body, "dbg-2") || !strings.Contains(body, "flight recorder") {
		t.Errorf("HTML view missing recorded trace: %s", body)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces?format=json", nil))
	if got := w.Header().Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", got)
	}
	if body := w.Body.String(); !strings.Contains(body, `"enabled": true`) || !strings.Contains(body, "dbg-2") {
		t.Errorf("JSON view missing recorded trace: %s", body)
	}

	w = httptest.NewRecorder()
	TracesHandler(func() *Recorder { return nil }).ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces", nil))
	if body := w.Body.String(); !strings.Contains(body, "tracing disabled") {
		t.Errorf("nil-recorder view missing disabled message: %s", body)
	}
}

// TestExemplarExpositionGolden pins the two expositions byte for byte:
// OpenMetrics bucket lines gain " # {trace_id=...} value timestamp"
// only on buckets that hold an exemplar (plain Observe never attaches
// one), counters drop _total from HELP/TYPE, and the output ends with
// # EOF — while the classic 0.0.4 exposition of the same registry
// carries no exemplars at all, because its grammar rejects any token
// after the sample value.
func TestExemplarExpositionGolden(t *testing.T) {
	prev := exemplarNow
	exemplarNow = func() time.Time { return time.UnixMilli(1700000000123) }
	defer func() { exemplarNow = prev }()

	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	h.With().Observe(0.005) // no exemplar on le=0.01
	h.With().Observe(0.05)
	h.With().setExemplar(0.05, "trace-slow") // exemplar on le=0.1
	h.With().Observe(5)
	h.With().setExemplar(5, "trace-inf") // exemplar on +Inf
	h.With().Observe(0.07)               // counted, no exemplar
	r.Counter("test_requests_total", "Requests.").With().Inc()

	var om strings.Builder
	if err := r.WriteOpenMetrics(&om); err != nil {
		t.Fatalf("WriteOpenMetrics: %v", err)
	}
	want := `# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.01"} 1
test_latency_seconds_bucket{le="0.1"} 3 # {trace_id="trace-slow"} 0.05 1700000000.123
test_latency_seconds_bucket{le="1"} 3
test_latency_seconds_bucket{le="+Inf"} 4 # {trace_id="trace-inf"} 5 1700000000.123
test_latency_seconds_sum 5.125
test_latency_seconds_count 4
# HELP test_requests Requests.
# TYPE test_requests counter
test_requests_total 1
# EOF
`
	if got := om.String(); got != want {
		t.Errorf("OpenMetrics exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	var classic strings.Builder
	if err := r.WritePrometheus(&classic); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	wantClassic := `# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.01"} 1
test_latency_seconds_bucket{le="0.1"} 3
test_latency_seconds_bucket{le="1"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 5.125
test_latency_seconds_count 4
# HELP test_requests_total Requests.
# TYPE test_requests_total counter
test_requests_total 1
`
	if got := classic.String(); got != wantClassic {
		t.Errorf("classic exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, wantClassic)
	}
}

// TestMetricsHandlerNegotiation pins the /metrics content negotiation:
// the default scrape gets classic 0.0.4 text with no exemplar suffix,
// and an Accept header naming application/openmetrics-text switches
// the response to the OpenMetrics exposition with exemplars and # EOF.
func TestMetricsHandlerNegotiation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("nego_latency_seconds", "Latency.", []float64{0.1})
	h.With().Observe(0.05)
	h.With().setExemplar(0.05, "trace-nego")
	handler := Handler(r)

	w := httptest.NewRecorder()
	handler.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if got := w.Header().Get("Content-Type"); !strings.HasPrefix(got, "text/plain; version=0.0.4") {
		t.Errorf("default Content-Type = %q, want classic 0.0.4", got)
	}
	if body := w.Body.String(); strings.Contains(body, " # {") || strings.Contains(body, "# EOF") {
		t.Errorf("classic exposition leaks OpenMetrics syntax:\n%s", body)
	}

	w = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text;version=1.0.0;q=0.5,text/plain;version=0.0.4;q=0.2")
	handler.ServeHTTP(w, req)
	if got := w.Header().Get("Content-Type"); !strings.HasPrefix(got, "application/openmetrics-text") {
		t.Errorf("negotiated Content-Type = %q, want openmetrics", got)
	}
	body := w.Body.String()
	if !strings.Contains(body, `# {trace_id="trace-nego"} 0.05`) {
		t.Errorf("OpenMetrics exposition missing exemplar:\n%s", body)
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("OpenMetrics exposition not terminated by # EOF:\n%s", body)
	}
}

// TestTruncateAttrRuneBoundary pins that attribute truncation never
// splits a multi-byte UTF-8 rune: the cut backs up to a rune start, so
// the stored value stays valid UTF-8 and the JSON trace view never
// shows a U+FFFD replacement character.
func TestTruncateAttrRuneBoundary(t *testing.T) {
	for _, v := range []string{
		strings.Repeat("a", maxAttrValueLen+10),
		strings.Repeat("a", maxAttrValueLen-1) + "é",   // 2-byte rune straddles the cut
		strings.Repeat("日", maxAttrValueLen),           // 3-byte runes throughout
		strings.Repeat("a", maxAttrValueLen-3) + "🌍🌍🌍", // 4-byte runes at the cut
	} {
		got := truncateAttr(v)
		if !utf8.ValidString(got) {
			t.Errorf("truncateAttr(%q) = %q: invalid UTF-8", v, got)
		}
		if len(got) > maxAttrValueLen+len("…") {
			t.Errorf("truncateAttr(%q) = %d bytes, want ≤ %d", v, len(got), maxAttrValueLen+len("…"))
		}
		if !strings.HasSuffix(got, "…") {
			t.Errorf("truncateAttr(%q) = %q: missing ellipsis", v, got)
		}
	}
	if got := truncateAttr("short"); got != "short" {
		t.Errorf("truncateAttr(short) = %q, want unchanged", got)
	}
}

// TestStageTimesOnce pins Stage's contract: End observes the stage's
// duration into its histogram exactly once, recorder or not, and with
// no recorder it allocates nothing.
func TestStageTimesOnce(t *testing.T) {
	h := NewRegistry().Histogram("stage_seconds", "Stage.", nil).With()
	withRecorder(t, nil)
	ctx := context.Background()
	errAgain := errors.New("again")
	if allocs := testing.AllocsPerRun(100, func() {
		_, st := Stage(ctx, "extract", h)
		st.End(nil)
		st.End(errAgain)
	}); allocs != 0 {
		t.Errorf("Stage+End with tracing off allocates %v times, want 0", allocs)
	}
	if got := h.Summary().Count; got != 101 { // AllocsPerRun adds a warm-up run
		t.Errorf("histogram count = %d after 101 stages ended twice, want 101", got)
	}

	// Recording, the span and the histogram share one clock reading.
	withRecorder(t, NewRecorder(RecorderConfig{Slow: time.Nanosecond}))
	h = NewRegistry().Histogram("stage_seconds", "Stage.", nil).With()
	_, st := Stage(WithTrace(ctx, "stage-1"), "extract", h)
	st.End(errors.New("boom"))
	st.End(nil)
	v, ok := DefaultRecorder().Get("stage-1")
	if !ok || v.Root.Name != "extract" || v.Root.Error != "boom" {
		t.Fatalf("stage trace = %+v, %v; want a kept extract root flagged boom", v, ok)
	}
	if sum := h.Summary(); sum.Count != 1 || sum.Sum != v.Root.DurationSeconds {
		t.Errorf("histogram = %d obs, sum %v; want 1 obs of the span's %v", sum.Count, sum.Sum, v.Root.DurationSeconds)
	}
}

// TestWithTraceDropsForeignSpan pins the single trace identity: a new
// trace ID on a context recording another trace drops that span, so
// the next span roots the new ID's own trace instead of recording
// under the old one.
func TestWithTraceDropsForeignSpan(t *testing.T) {
	withRecorder(t, NewRecorder(RecorderConfig{Slow: time.Nanosecond}))
	ctx, outer := StartSpan(WithTrace(context.Background(), "outer"), "drain")
	if same := WithTrace(ctx, "outer"); same != ctx {
		t.Error("WithTrace with the span's own ID derived a new context")
	}
	inner := WithTrace(ctx, "inner")
	if got := Trace(inner); got != "inner" {
		t.Fatalf("Trace = %q, want inner", got)
	}
	_, sp := StartSpan(inner, "pipeline_message")
	sp.End()
	outer.End()
	if v, ok := DefaultRecorder().Get("inner"); !ok || v.Root.Name != "pipeline_message" {
		t.Errorf("inner trace = %+v, %v; want its own pipeline_message root", v, ok)
	}
	if v, _ := DefaultRecorder().Get("outer"); v == nil || v.SpanCount != 1 {
		t.Errorf("outer trace = %+v, want only its drain root", v)
	}
}
