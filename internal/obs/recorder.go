// The flight recorder: a bounded in-memory ring of completed traces.
// Keeping every trace at production rates is impossible, so the
// recorder applies an always-keep policy for the traces worth debugging
// (slower than the threshold, errored, or force-kept by the explain
// path) plus optional 1-in-N sampling for the rest; everything else is
// counted and dropped. GET /v1/traces/{id} and /debug/traces serve its
// contents.
package obs

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RecorderConfig sizes a flight recorder.
type RecorderConfig struct {
	// Capacity is the ring size in traces; <= 0 means 256.
	Capacity int
	// Slow is the always-keep latency threshold; <= 0 means 1s.
	Slow time.Duration
	// SampleN keeps one in N traces that no always-keep rule matched;
	// 0 (the default) disables sampling so only slow, errored and
	// forced traces are retained.
	SampleN int
}

// Recorder is the bounded trace store. All methods are safe for
// concurrent use; a nil *Recorder is inert.
type Recorder struct {
	capacity int
	slow     time.Duration
	sampleN  int
	sampled  atomic.Uint64 // sampling counter, advanced per candidate

	mu     sync.Mutex
	ring   []*trace // kept traces, oldest first
	byID   map[string]*trace
	active map[string]*trace

	completed uint64
	kept      uint64
	dropped   uint64
	evicted   uint64
}

// NewRecorder builds a flight recorder; install it process-wide with
// SetDefaultRecorder.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256
	}
	if cfg.Slow <= 0 {
		cfg.Slow = time.Second
	}
	return &Recorder{
		capacity: cfg.Capacity,
		slow:     cfg.Slow,
		sampleN:  cfg.SampleN,
		byID:     make(map[string]*trace),
		active:   make(map[string]*trace),
	}
}

// register tracks a newly started trace for the active view. A second
// root with the same trace ID (a request reusing an X-Request-Id)
// simply displaces the old entry.
func (r *Recorder) register(t *trace) {
	r.mu.Lock()
	r.active[t.id] = t
	r.mu.Unlock()
}

// complete applies the keep policy to a finished trace. Never call
// with store locks held — span ends outside hot critical sections (the
// lockdiscipline analyzer pins this).
func (r *Recorder) complete(t *trace) {
	t.mu.Lock()
	dur := t.spans[0].dur
	reason := ""
	switch {
	case t.forceKeep:
		reason = "forced"
	case t.errored:
		reason = "error"
	case dur >= r.slow:
		reason = "slow"
	case r.sampleN > 0 && r.sampled.Add(1)%uint64(r.sampleN) == 0:
		reason = "sampled"
	}
	t.reason = reason
	t.mu.Unlock()

	r.mu.Lock()
	if r.active[t.id] == t {
		delete(r.active, t.id)
	}
	r.completed++
	if reason == "" {
		r.dropped++
		r.mu.Unlock()
		return
	}
	r.kept++
	if old, ok := r.byID[t.id]; ok {
		// Same trace ID kept twice: drop the older timeline in place.
		for i, rt := range r.ring {
			if rt == old {
				r.ring = append(r.ring[:i], r.ring[i+1:]...)
				break
			}
		}
	}
	r.ring = append(r.ring, t)
	r.byID[t.id] = t
	for len(r.ring) > r.capacity {
		r.evicted++
		delete(r.byID, r.ring[0].id)
		r.ring[0] = nil
		r.ring = r.ring[1:]
	}
	r.mu.Unlock()

	// Only now that the trace is kept and fetchable does each finished
	// stage become its histogram bucket's exemplar, so an exemplar
	// never names a trace the recorder dropped.
	t.mu.Lock()
	for _, sp := range t.spans {
		if sp.hist != nil && sp.done {
			sp.hist.setExemplar(sp.dur.Seconds(), t.id)
		}
	}
	t.mu.Unlock()
}

// Get returns the kept trace with the given ID.
func (r *Recorder) Get(id string) (*TraceView, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	t, ok := r.byID[id]
	r.mu.Unlock()
	if !ok {
		return nil, false
	}
	return t.snapshot(), true
}

// Recent returns up to n kept traces, newest first.
func (r *Recorder) Recent(n int) []TraceSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	traces := make([]*trace, 0, n)
	for i := len(r.ring) - 1; i >= 0 && len(traces) < n; i-- {
		traces = append(traces, r.ring[i])
	}
	r.mu.Unlock()
	return summarize(traces)
}

// Slowest returns up to n kept traces by descending root duration.
func (r *Recorder) Slowest(n int) []TraceSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	traces := append([]*trace(nil), r.ring...)
	r.mu.Unlock()
	out := summarize(traces)
	sort.SliceStable(out, func(i, j int) bool { return out[i].DurationSeconds > out[j].DurationSeconds })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Active returns up to n traces whose root span has not ended yet —
// the requests in flight right now.
func (r *Recorder) Active(n int) []TraceSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	traces := make([]*trace, 0, len(r.active))
	for _, t := range r.active {
		traces = append(traces, t)
	}
	r.mu.Unlock()
	out := summarize(traces)
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// RecorderStats is the recorder's own health view, surfaced through
// the facade's Stats.
type RecorderStats struct {
	// Capacity is the ring size; Kept is how many traces it holds now.
	Capacity int `json:"capacity"`
	Kept     int `json:"kept"`
	// Active counts traces whose root span is still open.
	Active int `json:"active"`
	// Completed/KeptTotal/Dropped/Evicted are lifetime counters:
	// finished traces seen, kept by policy, dropped by policy, and
	// kept-then-displaced by ring overflow.
	Completed uint64 `json:"completed"`
	KeptTotal uint64 `json:"kept_total"`
	Dropped   uint64 `json:"dropped"`
	Evicted   uint64 `json:"evicted"`
	// SlowThresholdSeconds and SampleN echo the policy knobs.
	SlowThresholdSeconds float64 `json:"slow_threshold_seconds"`
	SampleN              int     `json:"sample_n"`
}

// Stats returns current counters; zero value on a nil recorder.
func (r *Recorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return RecorderStats{
		Capacity:             r.capacity,
		Kept:                 len(r.ring),
		Active:               len(r.active),
		Completed:            r.completed,
		KeptTotal:            r.kept,
		Dropped:              r.dropped,
		Evicted:              r.evicted,
		SlowThresholdSeconds: r.slow.Seconds(),
		SampleN:              r.sampleN,
	}
}

// SpanView is one rendered span in a trace snapshot.
type SpanView struct {
	ID              int         `json:"id"`
	Name            string      `json:"name"`
	StartOffsetSecs float64     `json:"start_offset_seconds"`
	DurationSeconds float64     `json:"duration_seconds"`
	Unfinished      bool        `json:"unfinished,omitempty"`
	Error           string      `json:"error,omitempty"`
	Attrs           []Attr      `json:"attrs,omitempty"`
	Children        []*SpanView `json:"children,omitempty"`
}

// TraceView is a whole recorded trace as served by /v1/traces/{id}.
type TraceView struct {
	TraceID         string    `json:"trace_id"`
	Start           time.Time `json:"start"`
	DurationSeconds float64   `json:"duration_seconds"`
	Errored         bool      `json:"errored,omitempty"`
	SpanCount       int       `json:"span_count"`
	SpansDropped    int       `json:"spans_dropped,omitempty"`
	KeepReason      string    `json:"keep_reason,omitempty"`
	Root            *SpanView `json:"root"`
}

// TraceSummary is the listing row for the debug views.
type TraceSummary struct {
	TraceID         string    `json:"trace_id"`
	Root            string    `json:"root"`
	Start           time.Time `json:"start"`
	DurationSeconds float64   `json:"duration_seconds"`
	Errored         bool      `json:"errored,omitempty"`
	SpanCount       int       `json:"span_count"`
	KeepReason      string    `json:"keep_reason,omitempty"`
}

// snapshot copies the trace into an immutable view tree under t.mu.
// Spans whose parent was dropped at the cap re-attach to the root so
// the tree always accounts for every recorded span.
func (t *trace) snapshot() *TraceView {
	t.mu.Lock()
	defer t.mu.Unlock()
	views := make([]*SpanView, len(t.spans))
	for i, sp := range t.spans {
		views[i] = &SpanView{
			ID:              sp.id,
			Name:            sp.name,
			StartOffsetSecs: sp.start.Sub(t.start).Seconds(),
			DurationSeconds: sp.dur.Seconds(),
			Unfinished:      !sp.done,
			Error:           sp.err,
			Attrs:           append([]Attr(nil), sp.attrs...),
		}
	}
	for i, sp := range t.spans {
		if sp.parent == 0 {
			continue
		}
		parent := views[0]
		if sp.parent-1 < len(views) && sp.parent != sp.id {
			parent = views[sp.parent-1]
		}
		parent.Children = append(parent.Children, views[i])
	}
	v := &TraceView{
		TraceID:      t.id,
		Start:        t.start,
		Errored:      t.errored,
		SpanCount:    len(t.spans),
		SpansDropped: t.dropped,
		KeepReason:   t.reason,
	}
	if len(views) > 0 {
		v.Root = views[0]
		v.DurationSeconds = views[0].DurationSeconds
	}
	return v
}

func summarize(traces []*trace) []TraceSummary {
	out := make([]TraceSummary, 0, len(traces))
	for _, t := range traces {
		t.mu.Lock()
		s := TraceSummary{
			TraceID:    t.id,
			Start:      t.start,
			Errored:    t.errored,
			SpanCount:  len(t.spans),
			KeepReason: t.reason,
		}
		if len(t.spans) > 0 {
			s.Root = t.spans[0].name
			s.DurationSeconds = t.spans[0].dur.Seconds()
		}
		t.mu.Unlock()
		out = append(out, s)
	}
	return out
}

// debugTraceRows caps each section of the /debug/traces view.
const debugTraceRows = 50

// TracesHandler serves the recorder's recent/active/slowest view for
// the private debug listener: HTML by default, JSON with ?format=json.
// Works (empty) when rec is nil so the route can be mounted
// unconditionally.
func TracesHandler(rec func() *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r := rec()
		type payload struct {
			Enabled bool           `json:"enabled"`
			Stats   RecorderStats  `json:"stats"`
			Active  []TraceSummary `json:"active"`
			Recent  []TraceSummary `json:"recent"`
			Slowest []TraceSummary `json:"slowest"`
		}
		p := payload{
			Enabled: r != nil,
			Stats:   r.Stats(),
			Active:  r.Active(debugTraceRows),
			Recent:  r.Recent(debugTraceRows),
			Slowest: r.Slowest(debugTraceRows),
		}
		if req.URL.Query().Get("format") == "json" {
			// Two-space indentation, like the public API's JSON.
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(p)
			return
		}
		var b strings.Builder
		b.WriteString("<!DOCTYPE html><html><head><title>neogeo traces</title>" +
			"<style>body{font-family:monospace}table{border-collapse:collapse}" +
			"td,th{border:1px solid #999;padding:2px 8px;text-align:left}</style>" +
			"</head><body><h1>flight recorder</h1>")
		if !p.Enabled {
			b.WriteString("<p>tracing disabled — start with -trace-recorder &gt; 0</p></body></html>")
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			_, _ = w.Write([]byte(b.String()))
			return
		}
		sample := "off"
		if p.Stats.SampleN > 0 {
			sample = fmt.Sprintf("1/%d", p.Stats.SampleN)
		}
		fmt.Fprintf(&b, "<p>kept %d/%d · active %d · completed %d · dropped %d · evicted %d · slow ≥ %ss · sample %s</p>",
			p.Stats.Kept, p.Stats.Capacity, p.Stats.Active, p.Stats.Completed, p.Stats.Dropped,
			p.Stats.Evicted, fmtFloat(p.Stats.SlowThresholdSeconds), sample)
		section := func(title string, rows []TraceSummary) {
			fmt.Fprintf(&b, "<h2>%s</h2>", html.EscapeString(title))
			if len(rows) == 0 {
				b.WriteString("<p>none</p>")
				return
			}
			b.WriteString("<table><tr><th>trace</th><th>root</th><th>start</th><th>duration</th><th>spans</th><th>kept</th><th>err</th></tr>")
			for _, row := range rows {
				fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%ss</td><td>%d</td><td>%s</td><td>%v</td></tr>",
					html.EscapeString(row.TraceID), html.EscapeString(row.Root),
					row.Start.Format(time.RFC3339Nano), fmtFloat(row.DurationSeconds),
					row.SpanCount, html.EscapeString(row.KeepReason), row.Errored)
			}
			b.WriteString("</table>")
		}
		section("active", p.Active)
		section("recent", p.Recent)
		section("slowest", p.Slowest)
		b.WriteString("</body></html>")
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
}
