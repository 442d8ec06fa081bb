// Golden testdata for metriclabels: label values at obs With(...)
// call sites must come from bounded sets.
package server

import (
	"fmt"
	"strconv"

	"repro/internal/obs"
)

var (
	mRequests = obs.NewCounterFamily("http_requests_total", "route", "method", "class")
	mSeconds  = obs.NewHistogramFamily("http_seconds", nil, "route")
)

const areaLabel = "gazetteer"

type request struct {
	Method string
	Path   string
}

// routeLabel collapses arbitrary paths onto a fixed route vocabulary.
func routeLabel(path string) string {
	switch path {
	case "/query", "/feedback":
		return path
	}
	return "other"
}

// methodLabel collapses methods onto the handful the API serves.
func methodLabel(m string) string {
	switch m {
	case "GET", "POST":
		return m
	}
	return "other"
}

// GoodLiteral uses literals and constants.
func GoodLiteral() {
	mRequests.With("/query", "GET", "2xx").Inc()
	mSeconds.With(areaLabel).Observe(0.1)
}

// GoodNormalized routes raw request data through *Label normalizers
// and bounded formatters.
func GoodNormalized(r *request, code int) {
	route := routeLabel(r.Path)
	mRequests.With(route, methodLabel(r.Method), strconv.Itoa(code/100)+"xx").Inc()
	mSeconds.With(route).Observe(0.2)
}

// BadRawPath mints a series per distinct URL.
func BadRawPath(r *request) {
	mSeconds.With(r.Path).Observe(0.3) // want `metric label value is not from a bounded set`
}

// BadSprintf formats unbounded data into the label.
func BadSprintf(r *request, code int) {
	mRequests.With(
		"/query",
		fmt.Sprintf("%s:%s", r.Method, r.Path), // want `metric label value is not from a bounded set`
		strconv.Itoa(code),
	).Inc()
}

// BadReassigned: the local is overwritten with raw data after the
// normalizer, so its provenance is no longer a single bounded source.
func BadReassigned(r *request) {
	route := routeLabel(r.Path)
	if r.Path == "/debug" {
		route = r.Path
	}
	mSeconds.With(route).Observe(0.4) // want `metric label value is not from a bounded set`
}

// BadParam: a parameter arrives with unknown provenance.
func BadParam(label string) {
	mSeconds.With(label).Observe(0.5) // want `metric label value is not from a bounded set`
}

// GoodDeferredClosure: a bounded local stays bounded when the
// observation is deferred to function exit through a capturing
// closure — the ServeHTTP middleware shape.
func GoodDeferredClosure(r *request, code int) {
	route := routeLabel(r.Path)
	defer func() {
		mRequests.With(route, methodLabel(r.Method), strconv.Itoa(code/100)+"xx").Inc()
		mSeconds.With(route).Observe(0.6)
	}()
}

// BadClosureReassign: overwriting the captured local with raw data
// inside the closure breaks the single-bounded-source provenance.
func BadClosureReassign(r *request) {
	route := routeLabel(r.Path)
	defer func() {
		route = r.Path
		mSeconds.With(route).Observe(0.7) // want `metric label value is not from a bounded set`
	}()
}

// GoodConcat concatenates bounded parts.
func GoodConcat(code int) {
	mRequests.With("/query", "GET", strconv.Itoa(code/100)+"xx").Inc()
}

const spanAsk = "ask"

// GoodSpanConst names spans with constants; request data rides in
// attributes.
func GoodSpanConst(r *request) {
	_, sp := obs.StartSpan(nil, spanAsk)
	sp.SetAttr("path", r.Path)
	sp.End()
	_, fsp := obs.ForceSpan(nil, "ask_explain")
	fsp.End()
}

// GoodSpanLocal: a local with a single bounded assignment is fine.
func GoodSpanLocal() {
	name := spanAsk + "_retry"
	_, sp := obs.StartSpan(nil, name)
	sp.End()
}

// BadSpanRawPath mints a span name (and so a recorder grouping) per
// distinct URL.
func BadSpanRawPath(r *request) {
	_, sp := obs.StartSpan(nil, r.Path) // want `span name is not from a bounded set`
	sp.End()
}

// BadSpanSprintf formats unbounded data into the name.
func BadSpanSprintf(r *request) {
	_, sp := obs.ForceSpan(nil, fmt.Sprintf("ask:%s", r.Path)) // want `span name is not from a bounded set`
	sp.End()
}

// BadSpanParam: a parameter arrives with unknown provenance.
func BadSpanParam(name string) {
	_, sp := obs.StartSpan(nil, name) // want `span name is not from a bounded set`
	sp.End()
}

// GoodStageConst: a stage's name is a span name, bounded the same way.
func GoodStageConst(r *request) {
	_, st := obs.Stage(nil, spanAsk, mSeconds.With("/query"))
	st.SetAttr("path", r.Path)
	st.End(nil)
}

// BadStageRawPath mints a stage span per distinct URL.
func BadStageRawPath(r *request) {
	_, st := obs.Stage(nil, r.Path, mSeconds.With("/query")) // want `span name is not from a bounded set`
	st.End(nil)
}
