package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	neogeo "repro"
)

func TestSubscribePathParsing(t *testing.T) {
	cases := []struct {
		path       string
		id         string
		stream, ok bool
	}{
		{"/v1/subscribe/abc123", "abc123", false, true},
		{"/v1/subscribe/abc123/stream", "abc123", true, true},
		{"/v1/subscribe/", "", false, false},
		{"/v1/subscribe//stream", "", false, false},
		{"/v1/subscribe/a/b", "", false, false},
		{"/v1/subscribe/a/b/stream", "", false, false},
		{"/v1/ask", "", false, false},
	}
	for _, tc := range cases {
		id, stream, ok := subscribePath(tc.path)
		if id != tc.id || stream != tc.stream || ok != tc.ok {
			t.Errorf("subscribePath(%q) = (%q, %v, %v), want (%q, %v, %v)",
				tc.path, id, stream, ok, tc.id, tc.stream, tc.ok)
		}
	}
}

// TestSubscribeHandlers pins the status-code contract of the standing
// query endpoints against a scripted system.
func TestSubscribeHandlers(t *testing.T) {
	t.Run("register", func(t *testing.T) {
		fake := &fakeSystem{}
		srv := New(fake, withTestLog(t))
		w := doJSON(t, srv, http.MethodPost, "/v1/subscribe", `{"collection":"Hotels","key":"Axel Hotel"}`)
		if w.Code != http.StatusCreated {
			t.Fatalf("status = %d: %s", w.Code, w.Body.String())
		}
		var resp subscribeResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ID == "" || resp.Stream != "/v1/subscribe/"+resp.ID+"/stream" || resp.Status != "registered" {
			t.Fatalf("bad response: %+v", resp)
		}
	})
	t.Run("invalid spec", func(t *testing.T) {
		fake := &fakeSystem{subscribeErr: neogeo.ErrInvalidSubscription}
		srv := New(fake, withTestLog(t))
		w := doJSON(t, srv, http.MethodPost, "/v1/subscribe", `{}`)
		if w.Code != http.StatusUnprocessableEntity || !strings.Contains(w.Body.String(), "invalid_subscription") {
			t.Fatalf("status = %d: %s", w.Code, w.Body.String())
		}
	})
	t.Run("broker closed", func(t *testing.T) {
		fake := &fakeSystem{subscribeErr: neogeo.ErrSubscriptionClosed}
		srv := New(fake, withTestLog(t))
		w := doJSON(t, srv, http.MethodPost, "/v1/subscribe", `{"key":"x"}`)
		if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "subscriptions_closed") {
			t.Fatalf("status = %d: %s", w.Code, w.Body.String())
		}
	})
	t.Run("cancel", func(t *testing.T) {
		fake := &fakeSystem{}
		srv := New(fake, withTestLog(t))
		w := doJSON(t, srv, http.MethodDelete, "/v1/subscribe/sub1", "")
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "cancelled") {
			t.Fatalf("status = %d: %s", w.Code, w.Body.String())
		}
		if len(fake.unsubIDs) != 1 || fake.unsubIDs[0] != "sub1" {
			t.Fatalf("unsubscribed %v", fake.unsubIDs)
		}
	})
	t.Run("cancel unknown", func(t *testing.T) {
		fake := &fakeSystem{unsubErr: neogeo.ErrUnknownSubscription}
		srv := New(fake, withTestLog(t))
		w := doJSON(t, srv, http.MethodDelete, "/v1/subscribe/nope", "")
		if w.Code != http.StatusNotFound || !strings.Contains(w.Body.String(), "unknown_subscription") {
			t.Fatalf("status = %d: %s", w.Code, w.Body.String())
		}
	})
	t.Run("stream unknown", func(t *testing.T) {
		fake := &fakeSystem{openErr: neogeo.ErrUnknownSubscription}
		srv := New(fake, withTestLog(t))
		w := doJSON(t, srv, http.MethodGet, "/v1/subscribe/nope/stream", "")
		if w.Code != http.StatusNotFound {
			t.Fatalf("status = %d: %s", w.Code, w.Body.String())
		}
	})
	t.Run("stream busy", func(t *testing.T) {
		fake := &fakeSystem{openErr: neogeo.ErrStreamBusy}
		srv := New(fake, withTestLog(t))
		w := doJSON(t, srv, http.MethodGet, "/v1/subscribe/sub1/stream", "")
		if w.Code != http.StatusConflict || !strings.Contains(w.Body.String(), "stream_busy") {
			t.Fatalf("status = %d: %s", w.Code, w.Body.String())
		}
	})
	t.Run("method table", func(t *testing.T) {
		fake := &fakeSystem{}
		srv := New(fake, withTestLog(t))
		for _, tc := range []struct {
			method, path, allow string
		}{
			{http.MethodGet, "/v1/subscribe", http.MethodPost},
			{http.MethodGet, "/v1/subscribe/sub1", http.MethodDelete},
			{http.MethodPost, "/v1/subscribe/sub1/stream", http.MethodGet},
		} {
			w := doJSON(t, srv, tc.method, tc.path, "")
			if w.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status = %d", tc.method, tc.path, w.Code)
			}
			if got := w.Header().Get("Allow"); got != tc.allow {
				t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
			}
		}
	})
}

// TestStreamHeartbeat holds a quiet stream open briefly: the handler must
// keep the connection alive with SSE comment lines at the configured
// cadence instead of data it does not have.
func TestStreamHeartbeat(t *testing.T) {
	fake := &fakeSystem{} // zero-value stream: Next never yields an event
	srv := New(fake, withTestLog(t), WithHeartbeatInterval(10*time.Millisecond))

	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/v1/subscribe/sub1/stream", nil).WithContext(ctx)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req) // returns once the request context expires

	if ct := w.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if n := strings.Count(w.Body.String(), ": heartbeat\n\n"); n < 2 {
		t.Fatalf("saw %d heartbeats in %q, want >= 2", n, w.Body.String())
	}
}

// TestSSEEndToEnd is the full loop over real HTTP against a real system:
// register a standing query, open its SSE stream, submit a matching
// report, and watch the background drain's integration surface as an
// event frame on the wire; cancelling the subscription ends the stream.
func TestSSEEndToEnd(t *testing.T) {
	sys := newTestSystem(t)
	srv := New(sys, WithDrainInterval(5*time.Millisecond), withTestLog(t))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Run(ctx)
	}()
	defer func() { cancel(); <-done }()

	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/subscribe", "application/json",
		strings.NewReader(`{"collection":"Hotels","key":"Axel Hotel"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub subscribeResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || sub.ID == "" {
		t.Fatalf("subscribe: status %d, body %+v", resp.StatusCode, sub)
	}

	streamResp, err := http.Get(ts.URL + sub.Stream)
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if streamResp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", streamResp.StatusCode)
	}

	// Read frames off the live stream in the background; each complete
	// "event:" block's data line is one delivery.
	events := make(chan neogeo.SubscriptionEvent, 8)
	go func() {
		defer close(events)
		scanner := bufio.NewScanner(streamResp.Body)
		for scanner.Scan() {
			line := scanner.Text()
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				var ev neogeo.SubscriptionEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Errorf("bad event payload %q: %v", data, err)
					return
				}
				events <- ev
			}
		}
	}()

	body, _ := json.Marshal(map[string]string{
		"text":   "wonderful stay at the Axel Hotel in Berlin, lovely place",
		"source": "alice",
	})
	resp, err = http.Post(ts.URL+"/v1/messages", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	select {
	case ev := <-events:
		if ev.Action != "inserted" || ev.Collection != "Hotels" || ev.RecordID == 0 {
			t.Fatalf("bad event: %+v", ev)
		}
		if ev.Fields["Hotel_Name"] != "Axel Hotel" {
			t.Fatalf("event fields = %v", ev.Fields)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no event arrived over the stream")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/subscribe/"+sub.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unsubscribe: status %d", resp.StatusCode)
	}
	// The broker closed the subscription: the server ends the response,
	// the reader goroutine drains to EOF and closes the channel.
	for range events {
	}
}
