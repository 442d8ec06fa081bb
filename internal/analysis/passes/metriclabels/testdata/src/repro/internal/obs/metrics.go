// Mini obs metrics surface for the metriclabels golden tests: the
// import path matches production so the analyzer's package gating
// behaves identically.
package obs

type CounterFamily struct{ name string }

func (f *CounterFamily) With(values ...string) *Counter { return &Counter{} }

type Counter struct{ n int64 }

func (c *Counter) Inc() { c.n++ }

type HistogramFamily struct{ name string }

func (f *HistogramFamily) With(values ...string) *Histogram { return &Histogram{} }

type Histogram struct{ sum float64 }

func (h *Histogram) Observe(v float64) { h.sum += v }

func NewCounterFamily(name string, labels ...string) *CounterFamily {
	return &CounterFamily{name: name}
}

func NewHistogramFamily(name string, buckets []float64, labels ...string) *HistogramFamily {
	return &HistogramFamily{name: name}
}

// unrelated has a With method too, but lives in this package and takes
// no label values; the analyzer skips the obs package itself.
type plain struct{}

func (plain) With(values ...string) {}

var _ = plain{}

// Mini span surface: the analyzer guards the name argument (position
// 1) of these package-level starters.
type Span struct{ name string }

func (s *Span) SetAttr(key, value string) {}
func (s *Span) End()                      {}

type spanCtx any

func StartSpan(ctx spanCtx, name string) (spanCtx, *Span) { return ctx, &Span{name: name} }

func ForceSpan(ctx spanCtx, name string) (spanCtx, *Span) { return ctx, &Span{name: name} }

type StageSpan struct{ *Span }

func (s *StageSpan) End(err error) {}

func Stage(ctx spanCtx, name string, h *Histogram) (spanCtx, StageSpan) {
	return ctx, StageSpan{&Span{name: name}}
}
