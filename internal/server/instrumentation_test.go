package server

import (
	"net/http"
	"testing"
	"time"

	neogeo "repro"
	"repro/internal/obs"
)

// stageTimings maps each stage histogram series to the span names whose
// stages feed it: every stage is timed once, by its span, so with every
// trace kept the series' count moves exactly as often as those spans
// are recorded. Integration is one series fed by the inline engine's
// integrate span and the pipeline's integrate_batch span.
var stageTimings = []struct {
	metric string
	labels []string
	spans  []string
}{
	{"neogeo_http_request_seconds", []string{"/v1/ask"}, []string{"http_request"}},
	{"neogeo_ask_seconds", nil, []string{"ask_direct"}},
	{"neogeo_pipeline_stage_seconds", []string{"extract"}, []string{"extract"}},
	{"neogeo_pipeline_stage_seconds", []string{"answer"}, []string{"answer"}},
	{"neogeo_pipeline_stage_seconds", []string{"integrate"}, []string{"integrate", "integrate_batch"}},
	{"neogeo_extract_stage_seconds", []string{"classify"}, []string{"classify"}},
	{"neogeo_extract_stage_seconds", []string{"ner"}, []string{"ner"}},
	{"neogeo_extract_stage_seconds", []string{"disambiguate"}, []string{"disambiguate"}},
	{"neogeo_qa_stage_seconds", []string{"store_query"}, []string{"store_query"}},
	{"neogeo_qa_stage_seconds", []string{"rank"}, []string{"rank"}},
	{"neogeo_checkpoint_seconds", nil, []string{"checkpoint"}},
	{"neogeo_feedback_flush_seconds", nil, []string{"feedback_flush"}},
}

func stageCount(metric string, labels []string) uint64 {
	return obs.Default().FindHistogram(metric, labels...).Summary().Count
}

// TestInstrumentationCoverage drives every timed stage — a report
// through the inline engine (Ingest) and one through the pipeline
// (Drain), a question through Ask and through HTTP, a checkpoint and a
// feedback flush — with every trace kept, and checks that each stage
// histogram moved exactly once per recorded span of its stage. A stage
// timed by a second clock, or missing its span or its histogram, fails.
func TestInstrumentationCoverage(t *testing.T) {
	sys, err := neogeo.New(
		neogeo.WithGazetteerNames(2000),
		neogeo.WithGazetteerSeed(2011),
		neogeo.WithWorkers(1),
		neogeo.WithDataDir(t.TempDir()),
		neogeo.WithTraceRecorder(256),
		neogeo.WithTraceSlowThreshold(time.Hour),
		neogeo.WithTraceSampling(1),
		neogeo.WithClock(func() time.Time { return time.Date(2011, 4, 1, 9, 0, 0, 0, time.UTC) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = sys.Close()
		obs.SetDefaultRecorder(nil)
	})
	rec := obs.DefaultRecorder()
	ctx := t.Context()

	before := make([]uint64, len(stageTimings))
	for i, st := range stageTimings {
		before[i] = stageCount(st.metric, st.labels)
	}

	if _, err := sys.Ingest(ctx, tourismMessages[0], "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(ctx, tourismMessages[1], "bob"); err != nil {
		t.Fatal(err)
	}
	for _, err := range sys.Drain(ctx, 0) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Ask(ctx, tourismQuestion, "carol"); err != nil {
		t.Fatal(err)
	}
	srv := New(sys, withTestLog(t))
	if w := doJSON(t, srv, http.MethodPost, "/v1/ask",
		`{"question":"can anyone recommend a good hotel in Berlin?","source":"dave"}`); w.Code != http.StatusOK {
		t.Fatalf("HTTP ask: %d: %s", w.Code, w.Body.String())
	}
	if _, err := sys.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.FlushFeedback(ctx); err != nil {
		t.Fatal(err)
	}

	stats := rec.Stats()
	if stats.Dropped != 0 || stats.Evicted != 0 || stats.Active != 0 {
		t.Fatalf("recorder stats = %+v, want every trace finished and kept", stats)
	}
	spans := map[string]uint64{}
	var walk func(*obs.SpanView)
	walk = func(v *obs.SpanView) {
		spans[v.Name]++
		for _, c := range v.Children {
			walk(c)
		}
	}
	for _, sum := range rec.Recent(stats.Kept) {
		v, ok := rec.Get(sum.TraceID)
		if !ok {
			t.Fatalf("trace %s listed but not fetchable", sum.TraceID)
		}
		walk(v.Root)
	}

	for i, st := range stageTimings {
		delta := stageCount(st.metric, st.labels) - before[i]
		var recorded uint64
		for _, name := range st.spans {
			recorded += spans[name]
		}
		if delta == 0 {
			t.Errorf("%s%v: stage never ran", st.metric, st.labels)
		}
		if delta != recorded {
			t.Errorf("%s%v moved by %d, but %d %v spans were recorded", st.metric, st.labels, delta, recorded, st.spans)
		}
	}
}
