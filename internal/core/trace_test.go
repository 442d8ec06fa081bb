package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestDrainedMessageKeepsItsTrace pins the single trace identity across
// the queue hop: a message drained under a context that is recording
// another trace records its pipeline under its own trace ID — the ID
// its outcome and log lines carry — and the drainer's trace gains none
// of its spans.
func TestDrainedMessageKeepsItsTrace(t *testing.T) {
	s, err := New(Config{
		GazetteerNames: 300,
		GazetteerSeed:  2011,
		Clock:          func() time.Time { return t0 },
		TraceRecorder:  16,
		TraceSlow:      time.Hour,
		TraceSampleN:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = s.Close()
		obs.SetDefaultRecorder(nil)
	})

	const msgTrace, drainTrace = "bbbbbbbbbbbbbbbb", "aaaaaaaaaaaaaaaa"
	ctx := context.Background()
	if _, err := s.Submit(obs.WithTrace(ctx, msgTrace),
		"berlin has some nice hotels i just loved the hetero friendly love that word Axel Hotel in Berlin.", "alice"); err != nil {
		t.Fatal(err)
	}
	drainCtx, drain := obs.StartSpan(obs.WithTrace(ctx, drainTrace), "drain")
	out, ok, err := s.MC.ProcessOne(drainCtx)
	drain.End()
	if err != nil || !ok {
		t.Fatalf("ProcessOne = %v, %v", ok, err)
	}
	if out.Trace != msgTrace {
		t.Fatalf("outcome trace = %q, want %q", out.Trace, msgTrace)
	}

	v, ok := s.Recorder.Get(msgTrace)
	if !ok {
		t.Fatalf("message trace %s not recorded", msgTrace)
	}
	if v.Root == nil || v.Root.Name != "pipeline_message" {
		t.Fatalf("message trace root = %+v, want pipeline_message", v.Root)
	}
	names := map[string]bool{}
	var walk func(*obs.SpanView)
	walk = func(sv *obs.SpanView) {
		names[sv.Name] = true
		for _, c := range sv.Children {
			walk(c)
		}
	}
	walk(v.Root)
	for _, want := range []string{"extract", "classify", "ner", "integrate"} {
		if !names[want] {
			t.Errorf("message trace missing span %q (have %v)", want, names)
		}
	}

	d, ok := s.Recorder.Get(drainTrace)
	if !ok {
		t.Fatalf("drainer trace %s not recorded", drainTrace)
	}
	if d.SpanCount != 1 {
		t.Errorf("drainer trace holds %d spans, want only its own root", d.SpanCount)
	}
}
