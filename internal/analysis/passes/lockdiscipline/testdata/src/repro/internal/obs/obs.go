// Mini obs tracing surface for the lockdiscipline golden tests: the
// import path matches production so the analyzer's tracer-call table
// resolves the same FullNames.
package obs

type Span struct{ name string }

func (s *Span) End()                      {}
func (s *Span) SetAttr(key, value string) {}

type Recorder struct{}

func (r *Recorder) Get(id string) (any, bool) { return nil, false }
func (r *Recorder) Recent(n int) []any        { return nil }
func (r *Recorder) Slowest(n int) []any       { return nil }
func (r *Recorder) Active(n int) []any        { return nil }

func StartSpan(ctx any, name string) (any, *Span) { return ctx, &Span{name: name} }

func ForceSpan(ctx any, name string) (any, *Span) { return ctx, &Span{name: name} }

type Histogram struct{}

type StageSpan struct{ *Span }

func (s *StageSpan) End(err error) {}

func Stage(ctx any, name string, h *Histogram) (any, StageSpan) {
	return ctx, StageSpan{&Span{name: name}}
}
