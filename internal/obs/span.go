// Span tracing: the per-request timeline of a trace ID. A Span
// brackets one stage of work (HTTP request, pipeline stage, per-shard
// query, cache lookup); spans form a tree per trace, carry bounded
// key-value attributes and an error flag, and on root completion the
// whole trace is offered to the process-wide flight Recorder, which
// decides whether to keep it (slow, errored, forced, or 1-in-N
// sampled). A stage that also has a latency histogram opens its span
// with Stage, so one clock reading times both.
//
// The hot-path contract mirrors the metrics registry's disabled mode:
// with no recorder installed, StartSpan is one context value lookup
// plus one atomic pointer load, returns the caller's own ctx and a nil
// *Span, and every Span method is nil-safe — the drain benchmark pins
// this as free. Stage adds only its histogram's two clock reads.
package obs

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Caps keep a single trace's memory bounded no matter how wide a
// fan-out gets; spans past the cap are counted, not recorded.
const (
	maxSpansPerTrace = 512
	maxAttrsPerSpan  = 8
	maxAttrValueLen  = 128
)

// Attr is one key-value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation within a trace. A nil *Span is a valid
// no-op receiver for every method, so call sites never branch on
// whether tracing is enabled.
type Span struct {
	t      *trace
	id     int
	parent int
	name   string
	start  time.Time
	hist   *Histogram // Stage spans: observed into, exemplar when kept

	// Guarded by t.mu — spans from a shard fan-out finish on their own
	// goroutines while /debug/traces snapshots the trace.
	attrs []Attr
	err   string
	dur   time.Duration
	done  bool
}

// trace is the span tree for one trace ID, accumulated while any span
// is open and handed to the recorder when the root span ends.
type trace struct {
	id        string
	rec       *Recorder
	start     time.Time
	forceKeep bool

	mu      sync.Mutex
	spans   []*Span // creation order; spans[0] is the root
	dropped int
	errored bool
	done    bool
	reason  string // keep decision, set by the recorder
}

// defaultRecorder is the process-wide flight recorder; nil means span
// tracing is off (the default).
var defaultRecorder atomic.Pointer[Recorder]

// SetDefaultRecorder installs (or, with nil, removes) the process-wide
// recorder new root spans report to. In-flight traces keep their
// original recorder.
func SetDefaultRecorder(r *Recorder) { defaultRecorder.Store(r) }

// DefaultRecorder returns the installed recorder, or nil when tracing
// is off.
func DefaultRecorder() *Recorder { return defaultRecorder.Load() }

// StartSpan starts a span named name. Inside an already-recording
// trace it adds a child span; at the top of a request it starts a new
// trace rooted here, under the context's trace ID — but only when a
// recorder is installed. When not recording it returns ctx unchanged
// and a nil span.
//
// Span names must come from a bounded set (the metriclabels analyzer
// enforces constants); variable data belongs in SetAttr.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return openSpan(ctx, name, nil, false)
}

// ForceSpan is StartSpan for the explain path: it records even with no
// recorder installed (the caller snapshots the trace itself) and marks
// the trace force-kept, so an explained request is always fetchable by
// ID afterwards when a recorder exists.
func ForceSpan(ctx context.Context, name string) (context.Context, *Span) {
	return openSpan(ctx, name, nil, true)
}

// openSpan starts a span whose duration also feeds hist (nil: none),
// as a child of ctx's recording span or as the root of a new trace
// under ctx's trace ID (minted when absent), so log lines, X-Request-Id
// and the recorded timeline all correlate.
func openSpan(ctx context.Context, name string, hist *Histogram, force bool) (context.Context, *Span) {
	v := ctx.Value(traceKey{})
	if parent, ok := v.(*Span); ok {
		t := parent.t
		t.mu.Lock()
		defer t.mu.Unlock()
		t.forceKeep = t.forceKeep || force
		if len(t.spans) >= maxSpansPerTrace {
			t.dropped++
			return ctx, nil // keep the parent current
		}
		sp := &Span{t: t, id: len(t.spans) + 1, parent: parent.id, name: name, start: time.Now(), hist: hist}
		t.spans = append(t.spans, sp)
		return context.WithValue(ctx, traceKey{}, sp), sp
	}
	rec := defaultRecorder.Load()
	if rec == nil && !force {
		return ctx, nil
	}
	id, _ := v.(string)
	if id == "" {
		id = NewTraceID()
	}
	now := time.Now()
	t := &trace{id: id, rec: rec, start: now, forceKeep: force}
	root := &Span{t: t, id: 1, name: name, start: now, hist: hist}
	t.spans = append(t.spans, root)
	if rec != nil {
		rec.register(t)
	}
	return context.WithValue(ctx, traceKey{}, root), root
}

// SetAttr annotates the span; at most maxAttrsPerSpan stick and long
// values are truncated. Safe on a nil span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	value = truncateAttr(value)
	s.t.mu.Lock()
	if len(s.attrs) < maxAttrsPerSpan {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.t.mu.Unlock()
}

// truncateAttr bounds v to maxAttrValueLen bytes, backing the cut up
// to a rune boundary so a multi-byte UTF-8 sequence is never split
// (a split would surface as U+FFFD in the JSON trace view).
func truncateAttr(v string) string {
	if len(v) <= maxAttrValueLen {
		return v
	}
	cut := maxAttrValueLen
	for cut > 0 && !utf8.RuneStart(v[cut]) {
		cut--
	}
	return v[:cut] + "…"
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, v int) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.Itoa(v))
}

// SetError flags the span (and therefore the trace) as errored; an
// errored trace is always kept by the recorder. Nil err is a no-op.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	msg := truncateAttr(err.Error())
	s.t.mu.Lock()
	s.err = msg
	s.t.errored = true
	s.t.mu.Unlock()
}

// SpanID returns the span's ID within its trace (0 on nil; recorded
// spans start at 1).
func (s *Span) SpanID() int {
	if s == nil {
		return 0
	}
	return s.id
}

// End finishes the span. Ending the root span completes the trace and
// offers it to the recorder; children still open at that point show as
// unfinished in the snapshot. Safe on a nil span and idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.end(time.Since(s.start))
}

// end finishes a non-nil span with duration d.
func (s *Span) end(d time.Duration) {
	t := s.t
	t.mu.Lock()
	if !s.done {
		s.done = true
		s.dur = d
	}
	complete := s.id == 1 && !t.done
	if complete {
		t.done = true
	}
	rec := t.rec
	t.mu.Unlock()
	if complete && rec != nil {
		rec.complete(t)
	}
}

// StageSpan is one timed pipeline stage: its span (nil when not
// recording; the span methods are promoted and nil-safe) and the
// latency histogram it feeds.
type StageSpan struct {
	*Span
	hist  *Histogram
	start time.Time
	ended bool
}

// Stage opens a stage named name whose duration End observes into
// hist, recorder or not — the one timing source for a stage's span
// and its histogram. The span nests like StartSpan's; hist must be
// non-nil. Name it from a bounded set, as for StartSpan.
func Stage(ctx context.Context, name string, hist *Histogram) (context.Context, StageSpan) {
	ctx, sp := openSpan(ctx, name, hist, false)
	if sp == nil {
		return ctx, StageSpan{hist: hist, start: time.Now()}
	}
	return ctx, StageSpan{Span: sp, hist: hist, start: sp.start}
}

// End reads the clock once, observes the stage's duration into its
// histogram, and ends the span, flagged with err when non-nil. Only
// the first call has any effect.
func (s *StageSpan) End(err error) {
	if s.ended {
		return
	}
	s.ended = true
	d := time.Since(s.start)
	s.hist.Observe(d.Seconds())
	if s.Span != nil {
		s.Span.SetError(err)
		s.Span.end(d)
	}
}

// Snapshot renders the span's whole trace as a view tree — the explain
// path snapshots its ForceSpan trace directly, recorder or not. Call
// after End; open spans render with Duration 0 and Unfinished set.
func (s *Span) Snapshot() *TraceView {
	if s == nil {
		return nil
	}
	return s.t.snapshot()
}
