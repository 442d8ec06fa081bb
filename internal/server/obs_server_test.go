package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	neogeo "repro"
)

// TestMetricsEndpoint: GET /metrics serves the Prometheus text format
// and contains the HTTP middleware's own families once traffic exists.
func TestMetricsEndpoint(t *testing.T) {
	fake := &fakeSystem{}
	srv := New(fake, withTestLog(t))

	// Generate one observed request first: the middleware records after
	// the handler runs, so a scrape never sees itself.
	if w := doJSON(t, srv, http.MethodGet, "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz = %d", w.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics = %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE neogeo_http_requests_total counter",
		`route="/healthz"`,
		"# TYPE neogeo_http_request_seconds histogram",
		"neogeo_http_request_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q\n%s", want, body)
		}
	}
}

// TestRequestIDHandling: a well-formed X-Request-Id is echoed and a
// missing or junk one is replaced with a minted hex ID.
func TestRequestIDHandling(t *testing.T) {
	fake := &fakeSystem{}
	srv := New(fake, withTestLog(t))
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)

	do := func(id string) string {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		return w.Header().Get("X-Request-Id")
	}

	if got := do("trace-abc-123"); got != "trace-abc-123" {
		t.Errorf("well-formed id not echoed: got %q", got)
	}
	if got := do(""); !hex16.MatchString(got) {
		t.Errorf("missing id: minted %q, want 16 hex chars", got)
	}
	if got := do("bad id with \x01 control"); !hex16.MatchString(got) {
		t.Errorf("junk id: got %q, want a minted replacement", got)
	}
	if got := do(strings.Repeat("x", 65)); !hex16.MatchString(got) {
		t.Errorf("oversized id: got %q, want a minted replacement", got)
	}
}

// TestHealthzCheckpointStale: /healthz degrades when the last checkpoint
// attempt failed, or when periodic checkpoints have stopped making
// progress (newest image older than twice the interval).
func TestHealthzCheckpointStale(t *testing.T) {
	cases := []struct {
		name  string
		ck    neogeo.CheckpointStats
		opts  []Option
		stale bool
	}{
		{name: "healthy", ck: neogeo.CheckpointStats{Enabled: true, LastSeq: 1, LastAge: time.Second},
			opts: []Option{WithCheckpointInterval(time.Minute)}, stale: false},
		{name: "last attempt failed", ck: neogeo.CheckpointStats{Enabled: true, LastError: "disk full"}, stale: true},
		{name: "image overdue", ck: neogeo.CheckpointStats{Enabled: true, LastSeq: 3, LastAge: 3 * time.Minute},
			opts: []Option{WithCheckpointInterval(time.Minute)}, stale: true},
		{name: "no data dir", ck: neogeo.CheckpointStats{Enabled: false, LastError: "ignored"}, stale: false},
		{name: "on-demand only never late", ck: neogeo.CheckpointStats{Enabled: true, LastSeq: 3, LastAge: time.Hour}, stale: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fake := &fakeSystem{stats: neogeo.Stats{Checkpoint: tc.ck}}
			srv := New(fake, append([]Option{withTestLog(t)}, tc.opts...)...)
			w := doJSON(t, srv, http.MethodGet, "/healthz", "")
			body := w.Body.String()
			gotStale := strings.Contains(body, "checkpoint_stale")
			if gotStale != tc.stale {
				t.Errorf("checkpoint_stale = %v, want %v: %s", gotStale, tc.stale, body)
			}
			wantCode := http.StatusOK
			if tc.stale {
				wantCode = http.StatusServiceUnavailable
			}
			if w.Code != wantCode {
				t.Errorf("status = %d, want %d: %s", w.Code, wantCode, body)
			}
		})
	}
}

// TestTraceRoundTripThroughRestart: a trace ID accepted from
// X-Request-Id at submit survives the queue WAL across a restart and
// comes back on the drained outcome — the property that makes a user
// report ("my request xyz never showed up") greppable end to end.
func TestTraceRoundTripThroughRestart(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "queue.wal")
	const trace = "trace-e2e-0001"

	sys1, err := neogeo.New(neogeo.WithQueueWAL(wal), neogeo.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sys1, withTestLog(t))
	req := httptest.NewRequest(http.MethodPost, "/v1/messages",
		strings.NewReader(`{"text":"the Axel Hotel in Berlin is lovely","source":"alice"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", trace)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body.String())
	}
	// Close without draining: the message survives only in the WAL.
	if err := sys1.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := neogeo.New(neogeo.WithQueueWAL(wal), neogeo.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	found := false
	for out, err := range sys2.Drain(context.Background(), 0) {
		if err != nil {
			t.Fatal(err)
		}
		if out.Trace == trace {
			found = true
		}
	}
	if !found {
		t.Errorf("no drained outcome carried trace %q after restart", trace)
	}
}
