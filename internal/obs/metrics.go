// Package obs is the observability layer of the pipeline: a
// zero-dependency metrics registry (atomic counters, gauges and
// fixed-bucket latency histograms with labeled families, exposed in
// Prometheus text format), per-message trace IDs carried through
// context.Context and the message-queue envelope, and slog helpers for
// the structured-logging migration. Every stage of the system — queue,
// pipeline, Ask path, feedback, durability, HTTP — reports into the
// process-wide Default registry, which cmd/neogeod serves at
// GET /metrics; perf work on the paper's extract → disambiguate →
// integrate → feedback loop is measured through this package.
//
// The registry is deliberately small rather than a Prometheus client
// re-implementation: families are created once (idempotent per name),
// series are cheap atomics on the hot path, and a disabled registry
// (SetEnabled(false)) turns every observation into a single atomic
// load, which is what the metrics-on/metrics-off drain benchmark pins.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency buckets in seconds, spanning the
// microsecond-scale store operations up to multi-second stalls.
var DefBuckets = []float64{
	0.000005, 0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// ExpBuckets returns n buckets starting at start, each factor times the
// previous — for sizes (bytes, batch lengths) rather than latencies.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// kind discriminates family types in the exposition output.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families and serves them in Prometheus text
// format. All methods are safe for concurrent use.
type Registry struct {
	// disabled short-circuits every observation when set; it is the only
	// state touched on the hot path.
	disabled atomic.Bool

	mu         sync.RWMutex
	families   map[string]*family
	gaugeFuncs map[string]*gaugeFunc
}

// family is one named metric family with a fixed label schema.
type family struct {
	reg     *Registry
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histogram families only

	mu     sync.Mutex
	series map[string]any // label-value key -> *Counter/*Gauge/*Histogram
}

type gaugeFunc struct {
	help string
	fn   func() float64
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		families:   make(map[string]*family),
		gaugeFuncs: make(map[string]*gaugeFunc),
	}
}

var defaultRegistry = NewRegistry()

// Default is the process-wide registry every subsystem's package-level
// families register on; cmd/neogeod serves it at GET /metrics.
func Default() *Registry { return defaultRegistry }

// SetEnabled turns observation on or off. Disabled, every Add/Observe
// returns after one atomic load — the knob the instrumentation-overhead
// benchmark compares against. Exposition still works while disabled.
func (r *Registry) SetEnabled(on bool) { r.disabled.Store(!on) }

// family returns the named family, creating it if needed. Re-registering
// an existing name returns the existing family (package-level vars in
// independent packages may race at init); a kind or label-schema
// mismatch panics — that is a programming error, not runtime input.
func (r *Registry) family(name, help string, k kind, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: conflicting registration of %s", name))
		}
		return f
	}
	f := &family{
		reg: r, name: name, help: help, kind: k,
		labels: append([]string(nil), labels...), buckets: buckets,
		series: make(map[string]any),
	}
	r.families[name] = f
	return f
}

// CounterFamily is a labeled family of counters.
type CounterFamily struct{ f *family }

// Counter registers (or returns) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterFamily {
	return &CounterFamily{r.family(name, help, kindCounter, nil, labels)}
}

// With returns the series for the given label values, creating it at
// zero on first use.
func (cf *CounterFamily) With(values ...string) *Counter {
	v := cf.f.seriesOf(values, func() any { return &Counter{reg: cf.f.reg} })
	return v.(*Counter)
}

// GaugeFamily is a labeled family of gauges.
type GaugeFamily struct{ f *family }

// Gauge registers (or returns) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeFamily {
	return &GaugeFamily{r.family(name, help, kindGauge, nil, labels)}
}

// With returns the series for the given label values.
func (gf *GaugeFamily) With(values ...string) *Gauge {
	v := gf.f.seriesOf(values, func() any { return &Gauge{reg: gf.f.reg} })
	return v.(*Gauge)
}

// HistogramFamily is a labeled family of fixed-bucket histograms.
type HistogramFamily struct{ f *family }

// Histogram registers (or returns) a histogram family with the given
// upper-bound buckets (nil: DefBuckets). Buckets are sorted ascending;
// a +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramFamily {
	if buckets == nil {
		buckets = DefBuckets
	}
	b := append([]float64(nil), buckets...)
	sort.Float64s(b)
	return &HistogramFamily{r.family(name, help, kindHistogram, b, labels)}
}

// With returns the series for the given label values.
func (hf *HistogramFamily) With(values ...string) *Histogram {
	f := hf.f
	v := f.seriesOf(values, func() any {
		return &Histogram{
			reg: f.reg, buckets: f.buckets,
			counts:    make([]atomic.Uint64, len(f.buckets)+1),
			exemplars: make([]atomic.Pointer[exemplar], len(f.buckets)+1),
		}
	})
	return v.(*Histogram)
}

// GaugeFunc registers a gauge sampled by fn at exposition time —
// queue-depth style metrics whose truth lives in the instrumented
// component. Re-registering a name replaces the function (the newest
// constructed system owns the process-wide series).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = &gaugeFunc{help: help, fn: fn}
}

// FindHistogram returns the histogram series registered under name with
// exactly the given label values, or nil when either the family or the
// series does not exist — the facade's latency summaries use it so they
// never force series into being.
func (r *Registry) FindHistogram(name string, values ...string) *Histogram {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok || f.kind != kindHistogram {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[seriesKey(values)]; ok {
		return s.(*Histogram)
	}
	return nil
}

// seriesKey joins label values with an unprintable separator.
func seriesKey(values []string) string { return strings.Join(values, "\x1f") }

// seriesOf returns the series for the label values, creating it with
// mk on first use. The label-value count must match the family schema.
func (f *family) seriesOf(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	f.series[key] = s
	return s
}

// Counter is a monotonically increasing series.
type Counter struct {
	reg  *Registry
	bits atomic.Uint64
}

// Add adds v (v < 0 is ignored — counters only go up).
func (c *Counter) Add(v float64) {
	if c.reg.disabled.Load() || v < 0 {
		return
	}
	addFloat(&c.bits, v)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a series that can go up and down.
type Gauge struct {
	reg  *Registry
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g.reg.disabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloat CAS-adds v onto a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Histogram is a fixed-bucket distribution series.
type Histogram struct {
	reg       *Registry
	buckets   []float64       // sorted upper bounds; +Inf implicit
	counts    []atomic.Uint64 // len(buckets)+1, last is +Inf
	exemplars []atomic.Pointer[exemplar]
	sumBits   atomic.Uint64
	count     atomic.Uint64
}

// exemplar links one concrete observation in a bucket to the trace
// that produced it — the P99 bucket's pointer into the flight
// recorder. Last write wins per bucket.
type exemplar struct {
	value float64
	trace string
	ts    time.Time
}

// exemplarNow stamps exemplars; a seam so the exposition golden test
// can pin bytes.
var exemplarNow = time.Now

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h.reg.disabled.Load() {
		return
	}
	h.counts[h.bucketOf(v)].Add(1)
	addFloat(&h.sumBits, v)
	h.count.Add(1)
}

// bucketOf returns the index of the bucket containing v.
// Buckets are few (≤ ~20): linear scan beats binary search here.
func (h *Histogram) bucketOf(v float64) int {
	i := 0
	for i < len(h.buckets) && v > h.buckets[i] {
		i++
	}
	return i
}

// setExemplar attaches traceID as the exemplar of v's bucket, so the
// OpenMetrics exposition links that latency band to a recorded trace.
// Only the recorder calls it, for a trace it kept; the observation
// itself was counted when the stage ended.
func (h *Histogram) setExemplar(v float64, traceID string) {
	if h.reg.disabled.Load() {
		return
	}
	h.exemplars[h.bucketOf(v)].Store(&exemplar{value: v, trace: traceID, ts: exemplarNow()})
}

// Since records the seconds elapsed from start — the one-line latency
// observation for an operation with no span of the same interval; a
// stage that has one is timed by Stage instead.
func (h *Histogram) Since(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Summary is a histogram digest for human-facing stats surfaces.
type Summary struct {
	// Count and Sum are the exact totals.
	Count uint64
	Sum   float64
	// Mean is Sum/Count (0 when empty).
	Mean float64
	// P50/P95/P99 are bucket-interpolated quantile estimates, bounded by
	// the bucket layout's resolution.
	P50, P95, P99 float64
}

// Summary digests the histogram's current state.
func (h *Histogram) Summary() Summary {
	if h == nil {
		return Summary{}
	}
	n := h.count.Load()
	s := Summary{Count: n, Sum: math.Float64frombits(h.sumBits.Load())}
	if n == 0 {
		return s
	}
	s.Mean = s.Sum / float64(n)
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	s.P50 = quantile(0.50, counts, h.buckets, n)
	s.P95 = quantile(0.95, counts, h.buckets, n)
	s.P99 = quantile(0.99, counts, h.buckets, n)
	return s
}

// quantile estimates the q-quantile by linear interpolation within the
// bucket holding the target rank; values beyond the last finite bucket
// report that bucket's bound (the histogram cannot resolve further).
func quantile(q float64, counts []uint64, buckets []float64, total uint64) float64 {
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(buckets) {
			if len(buckets) == 0 {
				return 0
			}
			return buckets[len(buckets)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = buckets[i-1]
		}
		hi := buckets[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	if len(buckets) == 0 {
		return 0
	}
	return buckets[len(buckets)-1]
}

// WritePrometheus writes every family in classic Prometheus text
// exposition format (version 0.0.4), families and series in stable
// sorted order. The 0.0.4 grammar allows no tokens after the sample
// value, so this exposition never carries exemplars — scrapers that
// want them negotiate OpenMetrics (WriteOpenMetrics) instead.
func (r *Registry) WritePrometheus(w io.Writer) error { return r.write(w, false) }

// WriteOpenMetrics writes the same families in OpenMetrics text
// format: counter HELP/TYPE lines drop the _total suffix from the
// family name (samples keep it, per the spec), histogram bucket lines
// carry their exemplars, and the exposition ends with # EOF.
func (r *Registry) WriteOpenMetrics(w io.Writer) error { return r.write(w, true) }

func (r *Registry) write(w io.Writer, openMetrics bool) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families)+len(r.gaugeFuncs))
	for name := range r.families {
		names = append(names, name)
	}
	for name := range r.gaugeFuncs {
		if _, dup := r.families[name]; !dup {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	families := make([]*family, 0, len(names))
	funcs := make(map[string]*gaugeFunc, len(r.gaugeFuncs))
	for _, name := range names {
		if f, ok := r.families[name]; ok {
			families = append(families, f)
		}
		if gf, ok := r.gaugeFuncs[name]; ok {
			funcs[name] = gf
		}
	}
	r.mu.RUnlock()

	var b strings.Builder
	fi := 0
	for _, name := range names {
		if gf, ok := funcs[name]; ok {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
				name, escapeHelp(gf.help), name, name, fmtFloat(gf.fn()))
			continue
		}
		f := families[fi]
		fi++
		f.write(&b, openMetrics)
	}
	if openMetrics {
		b.WriteString("# EOF\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// write renders one family's series.
func (f *family) write(b *strings.Builder, openMetrics bool) {
	famName := f.name
	if openMetrics && f.kind == kindCounter {
		famName = strings.TrimSuffix(famName, "_total")
	}
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", famName, escapeHelp(f.help), famName, f.kind)
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type row struct {
		key string
		s   any
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, row{k, f.series[k]})
	}
	f.mu.Unlock()

	for _, rw := range rows {
		values := strings.Split(rw.key, "\x1f")
		if rw.key == "" {
			values = nil
		}
		switch s := rw.s.(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, values, "", ""), fmtFloat(s.Value()))
		case *Gauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, values, "", ""), fmtFloat(s.Value()))
		case *Histogram:
			exemplar := func(i int) string {
				if !openMetrics {
					return ""
				}
				return s.exemplarString(i)
			}
			var cum uint64
			for i, ub := range s.buckets {
				cum += s.counts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d%s\n", f.name, labelString(f.labels, values, "le", fmtFloat(ub)), cum, exemplar(i))
			}
			cum += s.counts[len(s.buckets)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d%s\n", f.name, labelString(f.labels, values, "le", "+Inf"), cum, exemplar(len(s.buckets)))
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, values, "", ""), fmtFloat(math.Float64frombits(s.sumBits.Load())))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, values, "", ""), s.count.Load())
		}
	}
}

// exemplarString renders the OpenMetrics exemplar suffix for one
// bucket (" # {trace_id=\"...\"} value timestamp"), or "" when the
// bucket has never carried an exemplar. Only the OpenMetrics
// exposition emits it — the classic 0.0.4 grammar rejects any token
// after the sample value, so a stored exemplar must never leak there.
func (h *Histogram) exemplarString(i int) string {
	if i >= len(h.exemplars) {
		return ""
	}
	e := h.exemplars[i].Load()
	if e == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %s %s",
		e.trace, fmtFloat(e.value),
		strconv.FormatFloat(float64(e.ts.UnixMilli())/1000, 'f', 3, 64))
}

// labelString renders {k="v",...}, optionally with one extra pair
// (histogram le), or "" when there are no labels at all.
func labelString(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		// %q escapes quotes, backslashes and newlines as the
		// exposition format requires.
		fmt.Fprintf(&b, "%s=%q", n, v)
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraK, extraV)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeHelp escapes backslashes and newlines in help text.
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// fmtFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Handler serves reg at GET /metrics, negotiating the exposition
// format: a client whose Accept header names application/openmetrics-text
// gets the OpenMetrics exposition (exemplars, # EOF terminator);
// everyone else gets the classic 0.0.4 text format, which carries no
// exemplars because its grammar forbids tokens after the sample value.
func Handler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if acceptsOpenMetrics(r.Header.Get("Accept")) {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			_ = reg.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
}

// acceptsOpenMetrics reports whether the Accept header explicitly
// names the OpenMetrics media type. q-values are deliberately ignored:
// a scraper that lists the type at all can parse it, and Prometheus
// itself sends it first when OpenMetrics is enabled.
func acceptsOpenMetrics(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		if strings.EqualFold(mt, "application/openmetrics-text") {
			return true
		}
	}
	return false
}
