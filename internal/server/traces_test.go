package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	neogeo "repro"
	"repro/internal/obs"
)

// newTracingSystem builds a real system with the flight recorder on;
// the recorder installs process-wide, so tear it down with the system.
func newTracingSystem(t *testing.T) *neogeo.System {
	t.Helper()
	sys, err := neogeo.New(
		neogeo.WithGazetteerNames(2000),
		neogeo.WithGazetteerSeed(2011),
		neogeo.WithWorkers(1),
		neogeo.WithTraceRecorder(16),
		neogeo.WithTraceSlowThreshold(time.Hour),
		neogeo.WithClock(func() time.Time { return time.Date(2011, 4, 1, 9, 0, 0, 0, time.UTC) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = sys.Close()
		obs.SetDefaultRecorder(nil)
	})
	return sys
}

// canonical re-marshals a JSON document with sorted keys so two
// responses can be compared structurally but byte-exactly.
func canonical(t *testing.T, raw []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestExplainMatchesPlainAsk is the acceptance pin for explain mode:
// the answer of an explained Ask is byte-identical to the plain Ask —
// explain adds a "trace" key and must never perturb the computation.
func TestExplainMatchesPlainAsk(t *testing.T) {
	sys := newTracingSystem(t)
	ctx := t.Context()
	for _, m := range tourismMessages {
		if _, err := sys.Ingest(ctx, m, "alice"); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	srv := New(sys, withTestLog(t))

	const q = `{"question":"can anyone recommend a good hotel in Berlin?","source":"bob"`
	plain := doJSON(t, srv, http.MethodPost, "/v1/ask", q+"}")
	if plain.Code != http.StatusOK {
		t.Fatalf("plain ask: %d: %s", plain.Code, plain.Body.String())
	}
	explained := doJSON(t, srv, http.MethodPost, "/v1/ask", q+`,"explain":true}`)
	if explained.Code != http.StatusOK {
		t.Fatalf("explain ask: %d: %s", explained.Code, explained.Body.String())
	}

	var resp map[string]json.RawMessage
	if err := json.Unmarshal(explained.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	trace, ok := resp["trace"]
	if !ok {
		t.Fatalf("explain response has no trace key: %s", explained.Body.String())
	}
	delete(resp, "trace")
	stripped, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonical(t, stripped), canonical(t, plain.Body.Bytes()); got != want {
		t.Errorf("explain answer diverged from plain ask:\n--- explain ---\n%s\n--- plain ---\n%s", got, want)
	}

	// The breakdown is the Ask's own timeline: the explain root with
	// the ask stage under it.
	var tj struct {
		TraceID   string        `json:"trace_id"`
		Recorded  bool          `json:"recorded"`
		Breakdown *obs.SpanView `json:"breakdown"`
	}
	if err := json.Unmarshal(trace, &tj); err != nil {
		t.Fatal(err)
	}
	if tj.TraceID == "" || !tj.Recorded {
		t.Errorf("trace = %+v, want an ID and recorded=true (recorder is installed)", tj)
	}
	if tj.Breakdown == nil || tj.Breakdown.Name != "ask_explain" {
		t.Fatalf("breakdown root = %+v, want ask_explain", tj.Breakdown)
	}
	names := spanNames(tj.Breakdown)
	for _, want := range []string{"ask_explain", "ask", "extract", "answer"} {
		if !names[want] {
			t.Errorf("breakdown missing span %q (have %v)", want, names)
		}
	}
}

// spanNames flattens a view subtree into its set of span names.
func spanNames(v *obs.SpanView) map[string]bool {
	out := map[string]bool{}
	var walk func(*obs.SpanView)
	walk = func(v *obs.SpanView) {
		if v == nil {
			return
		}
		out[v.Name] = true
		for _, c := range v.Children {
			walk(c)
		}
	}
	walk(v)
	return out
}

// TestTraceEndpoint pins GET /v1/traces/{id}: an explained request is
// force-kept and fetchable under its X-Request-Id, an unknown ID is a
// structured 404, and non-GET methods are rejected.
func TestTraceEndpoint(t *testing.T) {
	sys := newTracingSystem(t)
	srv := New(sys, withTestLog(t))

	req := doJSON(t, srv, http.MethodPost, "/v1/ask",
		`{"question":"any good hotels in Berlin?","source":"bob","explain":true}`)
	if req.Code != http.StatusOK {
		t.Fatalf("explain ask: %d: %s", req.Code, req.Body.String())
	}
	id := req.Header().Get("X-Request-Id")
	if id == "" {
		t.Fatal("no X-Request-Id on the explain response")
	}

	w := doJSON(t, srv, http.MethodGet, "/v1/traces/"+id, "")
	if w.Code != http.StatusOK {
		t.Fatalf("trace fetch: %d: %s", w.Code, w.Body.String())
	}
	var view obs.TraceView
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.TraceID != id || view.KeepReason != "forced" {
		t.Errorf("trace = %s/%s, want %s kept as forced", view.TraceID, view.KeepReason, id)
	}
	if view.Root == nil || view.Root.Name != "http_request" {
		t.Fatalf("trace root = %+v, want the http_request middleware span", view.Root)
	}
	if !spanNames(view.Root)["ask_explain"] {
		t.Errorf("recorded trace missing the ask_explain span: %+v", view.Root)
	}

	w = doJSON(t, srv, http.MethodGet, "/v1/traces/nope", "")
	if w.Code != http.StatusNotFound || !strings.Contains(w.Body.String(), "trace_not_found") {
		t.Errorf("unknown trace: %d: %s, want 404 trace_not_found", w.Code, w.Body.String())
	}

	w = doJSON(t, srv, http.MethodPost, "/v1/traces/"+id, "{}")
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST trace: %d, want 405", w.Code)
	}

	// The flight-recorder debug view never rides the public mux — it is
	// mounted only on the daemon's private debug listener.
	w = doJSON(t, srv, http.MethodGet, "/debug/traces", "")
	if w.Code != http.StatusNotFound {
		t.Errorf("public /debug/traces: %d, want 404", w.Code)
	}
}

// TestPanicEndsRootSpan pins the ServeHTTP deferred span completion: a
// handler panic (which net/http recovers per connection in production)
// must still end the root span, flag the trace errored, and leave
// nothing behind in the recorder's active set — an unclosed root would
// show as in-flight in /debug/traces forever.
func TestPanicEndsRootSpan(t *testing.T) {
	rec := obs.NewRecorder(obs.RecorderConfig{Capacity: 8, Slow: time.Hour})
	obs.SetDefaultRecorder(rec)
	t.Cleanup(func() { obs.SetDefaultRecorder(nil) })

	srv := New(&fakeSystem{askPanic: true}, withTestLog(t))
	req := httptest.NewRequest(http.MethodPost, "/v1/ask", strings.NewReader(`{"question":"q","source":"s"}`))
	req.Header.Set("X-Request-Id", "panic-trace")
	w := httptest.NewRecorder()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("handler panic did not propagate to the connection handler")
			}
		}()
		srv.ServeHTTP(w, req)
	}()

	if got := rec.Stats().Active; got != 0 {
		t.Errorf("active traces after panic = %d, want 0", got)
	}
	v, ok := rec.Get("panic-trace")
	if !ok {
		t.Fatal("panicked trace not kept by the recorder")
	}
	if !v.Errored {
		t.Error("panicked trace not flagged errored")
	}
}

// TestPanicIsCountedAndTimed pins the middleware's accounting of a
// handler panic: the request still lands in its route's latency
// histogram and counts as a server error, like any request that failed.
func TestPanicIsCountedAndTimed(t *testing.T) {
	count := mHTTPRequests.With("/v1/ask", "POST", "5xx")
	latency := mHTTPSeconds.With("/v1/ask")
	before, beforeN := count.Value(), latency.Summary().Count

	srv := New(&fakeSystem{askPanic: true}, withTestLog(t))
	req := httptest.NewRequest(http.MethodPost, "/v1/ask", strings.NewReader(`{"question":"q","source":"s"}`))
	func() {
		defer func() { _ = recover() }()
		srv.ServeHTTP(httptest.NewRecorder(), req)
	}()

	if got := count.Value() - before; got != 1 {
		t.Errorf("5xx count after the panicked request moved by %v, want 1", got)
	}
	if got := latency.Summary().Count - beforeN; got != 1 {
		t.Errorf("latency observations after the panicked request moved by %d, want 1", got)
	}
}

// TestExemplarsNameOnlyKeptTraces pins that an OpenMetrics exemplar
// always resolves to a fetchable trace: a request the recorder drops
// (fast, under the daemon's default keep policy) publishes none, while
// a force-kept explain request's exemplar names its recorded trace.
func TestExemplarsNameOnlyKeptTraces(t *testing.T) {
	rec := obs.NewRecorder(obs.RecorderConfig{Capacity: 8, Slow: time.Second})
	obs.SetDefaultRecorder(rec)
	t.Cleanup(func() { obs.SetDefaultRecorder(nil) })
	srv := New(&fakeSystem{}, withTestLog(t))

	send := func(method, path, id, body string) {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("X-Request-Id", id)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s = %d: %s", method, path, w.Code, w.Body.String())
		}
	}
	send(http.MethodGet, "/healthz", "fast-healthz-1", "")
	send(http.MethodPost, "/v1/ask", "kept-ask-1", `{"question":"q","source":"s","explain":true}`)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	body := w.Body.String()

	if _, ok := rec.Get("fast-healthz-1"); ok {
		t.Fatal("fast /healthz trace was kept; the policy should drop it")
	}
	if strings.Contains(body, `trace_id="fast-healthz-1"`) {
		t.Error("exposition carries an exemplar for a trace the recorder dropped")
	}
	if _, ok := rec.Get("kept-ask-1"); !ok {
		t.Fatal("explain trace not kept")
	}
	if !strings.Contains(body, `trace_id="kept-ask-1"`) {
		t.Error("exposition carries no exemplar for the kept explain trace")
	}
}
