package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	neogeo "repro"
)

// -update regenerates the golden response files under testdata/.
var update = flag.Bool("update", false, "rewrite golden files")

// tourismMessages is the paper's worked Berlin scenario.
var tourismMessages = []string{
	"berlin has some nice hotels i just loved the hetero friendly love that word Axel Hotel in Berlin.",
	"Good morning Berlin. The sun is out!!!! Very impressed by the customer service at #movenpick hotel in berlin. Well done guys!",
	"In Berlin hotel room, nice enough, weather grim however",
}

const tourismQuestion = "Can anyone recommend a good, but not ridiculously expensive hotel right in the middle of Berlin?"

// newTestSystem builds the deterministic tourism system golden responses
// are pinned against: default gazetteer, one worker so drains process in
// queue order and record IDs are stable.
func newTestSystem(t *testing.T) *neogeo.System {
	t.Helper()
	sys, err := neogeo.New(
		neogeo.WithGazetteerNames(2000),
		neogeo.WithGazetteerSeed(2011),
		neogeo.WithWorkers(1),
		neogeo.WithClock(func() time.Time { return time.Date(2011, 4, 1, 9, 0, 0, 0, time.UTC) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	return sys
}

func doJSON(t *testing.T, srv http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req := httptest.NewRequest(method, path, rd)
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: response diverges from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenTourismScenario pins the exact JSON the API serves for the
// paper's worked scenario: submit acknowledgements, the structured ask
// answer, the stats snapshot, and healthz.
func TestGoldenTourismScenario(t *testing.T) {
	sys := newTestSystem(t)
	srv := New(sys, withTestLog(t))

	for i, m := range tourismMessages {
		body, err := json.Marshal(map[string]string{"text": m, "source": fmt.Sprintf("user%d", i+1)})
		if err != nil {
			t.Fatal(err)
		}
		w := doJSON(t, srv, http.MethodPost, "/v1/messages", string(body))
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit #%d: status %d: %s", i+1, w.Code, w.Body.String())
		}
		if i == 0 {
			checkGolden(t, "submit.json", w.Body.Bytes())
		}
	}

	// Integrate what was submitted — the synchronous stand-in for the
	// background drain loop, so the golden answer is deterministic.
	for _, err := range sys.Drain(context.Background(), 0) {
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	}

	body, err := json.Marshal(map[string]string{"question": tourismQuestion, "source": "asker"})
	if err != nil {
		t.Fatal(err)
	}
	w := doJSON(t, srv, http.MethodPost, "/v1/ask", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("ask: status %d: %s", w.Code, w.Body.String())
	}
	checkGolden(t, "ask.json", w.Body.Bytes())
	if !strings.Contains(strings.ToLower(w.Body.String()), "axel hotel") {
		t.Errorf("answer does not recommend Axel Hotel: %s", w.Body.String())
	}

	w = doJSON(t, srv, http.MethodGet, "/v1/stats", "")
	if w.Code != http.StatusOK {
		t.Fatalf("stats: status %d", w.Code)
	}
	checkGolden(t, "stats.json", w.Body.Bytes())

	w = doJSON(t, srv, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", w.Code)
	}
	checkGolden(t, "healthz.json", w.Body.Bytes())
}

// TestErrorMapping is the table of every error the API can serve: wrong
// paths, wrong methods, malformed bodies, and semantically rejected
// inputs — each with its JSON error code.
func TestErrorMapping(t *testing.T) {
	sys := newTestSystem(t)
	srv := New(sys, withTestLog(t))

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"unknown path", http.MethodGet, "/v1/nope", "", http.StatusNotFound, "not_found"},
		{"root path", http.MethodGet, "/", "", http.StatusNotFound, "not_found"},
		{"ask with GET", http.MethodGet, "/v1/ask", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"messages with DELETE", http.MethodDelete, "/v1/messages", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"stats with POST", http.MethodPost, "/v1/stats", "{}", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"checkpoint with GET", http.MethodGet, "/v1/checkpoint", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"checkpoint without data dir", http.MethodPost, "/v1/checkpoint", "", http.StatusUnprocessableEntity, "checkpoint_unconfigured"},
		{"malformed submit body", http.MethodPost, "/v1/messages", "{not json", http.StatusBadRequest, "bad_request"},
		{"unknown submit field", http.MethodPost, "/v1/messages", `{"txt":"hi"}`, http.StatusBadRequest, "bad_request"},
		{"empty submit text", http.MethodPost, "/v1/messages", `{"text":"  ","source":"a"}`, http.StatusUnprocessableEntity, "empty_message"},
		{"malformed ask body", http.MethodPost, "/v1/ask", "[", http.StatusBadRequest, "bad_request"},
		{"empty question", http.MethodPost, "/v1/ask", `{"question":"","source":"a"}`, http.StatusUnprocessableEntity, "empty_question"},
		{"informative ask", http.MethodPost, "/v1/ask", `{"question":"loved the Axel Hotel in Berlin, great stay","source":"a"}`, http.StatusUnprocessableEntity, "not_a_question"},
		{"feedback with GET", http.MethodGet, "/v1/feedback", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"malformed feedback body", http.MethodPost, "/v1/feedback", "{oops", http.StatusBadRequest, "bad_request"},
		{"feedback unknown verdict", http.MethodPost, "/v1/feedback", `{"record_id":1,"verdict":"praise"}`, http.StatusUnprocessableEntity, "invalid_feedback"},
		{"feedback unknown record", http.MethodPost, "/v1/feedback", `{"record_id":424242,"verdict":"confirm"}`, http.StatusNotFound, "unknown_record"},
		{"decay with GET", http.MethodGet, "/v1/decay", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"decay floor out of range", http.MethodPost, "/v1/decay", `{"floor": 7}`, http.StatusUnprocessableEntity, "invalid_floor"},
		// One JSON value per body: anything after it is rejected, not dropped.
		{"trailing data after submit", http.MethodPost, "/v1/messages", `{"text":"a","source":"b"} {"text":"second"} garbage`, http.StatusBadRequest, "bad_request"},
		{"trailing data after ask", http.MethodPost, "/v1/ask", `{"question":"any good hotels in Berlin?","source":"a"} x`, http.StatusBadRequest, "bad_request"},
		{"trailing data after feedback", http.MethodPost, "/v1/feedback", `{"record_id":1,"verdict":"confirm"}{}`, http.StatusBadRequest, "bad_request"},
		{"trailing data after subscribe", http.MethodPost, "/v1/subscribe", `{"key":"Axel Hotel"} ]`, http.StatusBadRequest, "bad_request"},
		{"trailing data after decay", http.MethodPost, "/v1/decay", `{"floor": 0.1} 0.2`, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := doJSON(t, srv, tc.method, tc.path, tc.body)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (%s)", w.Code, tc.wantStatus, w.Body.String())
			}
			var resp errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("error body is not the JSON envelope: %v: %s", err, w.Body.String())
			}
			if resp.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", resp.Error.Code, tc.wantCode)
			}
			if tc.wantStatus == http.StatusMethodNotAllowed && w.Header().Get("Allow") == "" {
				t.Error("405 without an Allow header")
			}
		})
	}

	// The not_a_question rejection carries the classification.
	w := doJSON(t, srv, http.MethodPost, "/v1/ask", `{"question":"loved the Axel Hotel in Berlin, great stay","source":"a"}`)
	var resp errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error.Detail["type"] != "informative" {
		t.Errorf("detail.type = %v", resp.Error.Detail["type"])
	}
	if p, ok := resp.Error.Detail["probability"].(float64); !ok || p <= 0 || p > 1 {
		t.Errorf("detail.probability = %v", resp.Error.Detail["probability"])
	}
}

// TestEndToEndSubmitDrainAsk: a report submitted over HTTP and drained by
// the background loop is reflected in a subsequent ask answer and in the
// stats record counts — the daemon's core promise, asserted in-process.
func TestEndToEndSubmitDrainAsk(t *testing.T) {
	sys := newTestSystem(t)
	srv := New(sys, WithDrainInterval(5*time.Millisecond), withTestLog(t))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Run(ctx)
	}()

	w := doJSON(t, srv, http.MethodPost, "/v1/messages",
		`{"text":"loved the Axel Hotel in Berlin, great stay","source":"alice"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", w.Code, w.Body.String())
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		w := doJSON(t, srv, http.MethodGet, "/v1/stats", "")
		var st statsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Collections["Hotels"] >= 1 && st.Queue.Acked >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain loop never integrated the report: %s", w.Body.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	w = doJSON(t, srv, http.MethodPost, "/v1/ask",
		`{"question":"can anyone recommend a good hotel in Berlin?","source":"bob"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("ask: %d: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(strings.ToLower(w.Body.String()), "axel hotel") {
		t.Errorf("answer does not reflect the drained report: %s", w.Body.String())
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("drain loop did not stop on cancel")
	}
}

// TestConcurrentAskWhileDraining serves concurrent POST /v1/ask while the
// background drain loop integrates a stream of informative messages —
// run with -race; the ask path is read-only and must never interfere
// with integration.
func TestConcurrentAskWhileDraining(t *testing.T) {
	sys, err := neogeo.New(
		neogeo.WithGazetteerNames(500),
		neogeo.WithWorkers(4),
		neogeo.WithShards(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := New(sys, WithDrainInterval(time.Millisecond), withTestLog(t))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		srv.Run(ctx)
	}()

	ts := httptest.NewServer(srv)
	defer ts.Close()

	const (
		writers  = 4
		askers   = 3
		perGoro  = 10
		totalSub = writers * perGoro
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writers+askers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				body := fmt.Sprintf(`{"text":"wonderful stay at the Hotel Writer %d Number %d in Berlin, lovely place","source":"w%d"}`, w, i, w)
				resp, err := http.Post(ts.URL+"/v1/messages", "application/json", strings.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					errCh <- fmt.Errorf("submit status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for a := 0; a < askers; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				resp, err := http.Post(ts.URL+"/v1/ask", "application/json",
					strings.NewReader(`{"question":"any good hotels in Berlin?","source":"asker"}`))
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("ask status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Every submitted report must eventually integrate.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := sys.Stats()
		if st.Queue.Acked == totalSub && st.Queue.Pending == 0 && st.Queue.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: %+v", st.Queue)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	<-drainDone
}
