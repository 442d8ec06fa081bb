package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	neogeo "repro"
)

// askJSON posts a question and decodes the structured answer.
func askJSON(t *testing.T, srv http.Handler, question string) askResponse {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"question": question, "source": "asker"})
	w := doJSON(t, srv, http.MethodPost, "/v1/ask", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("ask: status %d: %s", w.Code, w.Body.String())
	}
	var resp askResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestFeedbackEndpointClosesTheLoop drives the whole loop over HTTP:
// submit two tied reports, ask, reject the leader through POST
// /v1/feedback, and watch the ranking flip — with the verdict counted
// in /v1/stats.
func TestFeedbackEndpointClosesTheLoop(t *testing.T) {
	sys := newTestSystem(t)
	srv := New(sys, withTestLog(t))

	for i, txt := range []string{
		"wonderful stay at the Hotel Kilo in Berlin, lovely place",
		"wonderful stay at the Hotel Lima in Berlin, lovely place",
	} {
		body, _ := json.Marshal(map[string]string{"text": txt, "source": fmt.Sprintf("rep%d", i)})
		if w := doJSON(t, srv, http.MethodPost, "/v1/messages", string(body)); w.Code != http.StatusAccepted {
			t.Fatalf("submit: %d: %s", w.Code, w.Body.String())
		}
	}
	for _, err := range sys.Drain(context.Background(), 0) {
		if err != nil {
			t.Fatal(err)
		}
	}

	question := "can anyone recommend a good hotel in Berlin?"
	ans := askJSON(t, srv, question)
	if len(ans.Answer.Results) < 2 {
		t.Fatalf("want 2 results, got %d", len(ans.Answer.Results))
	}
	leader := ans.Answer.Results[0]
	if leader.Fields["Hotel_Name"] != "Hotel Kilo" {
		t.Fatalf("pre-feedback leader = %+v", leader.Fields)
	}

	fb, _ := json.Marshal(map[string]any{"record_id": leader.ID, "verdict": "reject", "source": "critic"})
	w := doJSON(t, srv, http.MethodPost, "/v1/feedback", string(fb))
	if w.Code != http.StatusAccepted {
		t.Fatalf("feedback: status %d: %s", w.Code, w.Body.String())
	}
	var accepted feedbackResponse
	if err := json.Unmarshal(w.Body.Bytes(), &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.Seq != 1 || accepted.Status != "accepted" {
		t.Fatalf("feedback response = %+v", accepted)
	}

	// The apply is asynchronous; the serving layer's loop flushes every
	// drain interval — stand in for it synchronously.
	if n, err := sys.FlushFeedback(context.Background()); err != nil || n != 1 {
		t.Fatalf("flush = (%d, %v)", n, err)
	}

	ans = askJSON(t, srv, question)
	if got := ans.Answer.Results[0].Fields["Hotel_Name"]; got != "Hotel Lima" {
		t.Errorf("post-reject leader = %q, want Hotel Lima", got)
	}

	w = doJSON(t, srv, http.MethodGet, "/v1/stats", "")
	var st statsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Feedback.Accepted != 1 || st.Feedback.Applied != 1 || st.Feedback.Rejected != 1 {
		t.Errorf("stats feedback = %+v", st.Feedback)
	}
}

// TestDecayEndpoint: the admin decay pass reports its counts and
// accumulates them into /v1/stats.
func TestDecayEndpoint(t *testing.T) {
	sys := newTestSystem(t)
	srv := New(sys, withTestLog(t))

	body, _ := json.Marshal(map[string]string{"text": "loved the Axel Hotel in Berlin, great stay", "source": "alice"})
	if w := doJSON(t, srv, http.MethodPost, "/v1/messages", string(body)); w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", w.Code)
	}
	for _, err := range sys.Drain(context.Background(), 0) {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The decay endpoint ages against the wall clock while the test
	// system's records are stamped with a fixed 2011 clock, so every
	// record has years of decay to apply. A floor of -1 ages without
	// deleting (no certainty can fall below -1).
	w := doJSON(t, srv, http.MethodPost, "/v1/decay", `{"floor": -1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("decay: status %d: %s", w.Code, w.Body.String())
	}
	var resp decayResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Decayed != 1 || resp.Deleted != 0 || resp.Floor != -1 {
		t.Errorf("ageing pass = %+v, want 1 decayed, 0 deleted", resp)
	}

	// A floor of 1.0 deletes everything that has decayed at all.
	w = doJSON(t, srv, http.MethodPost, "/v1/decay", `{"floor": 1.0}`)
	if w.Code != http.StatusOK {
		t.Fatalf("decay with floor: status %d: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Deleted != 1 {
		t.Errorf("floor 1.0 pass = %+v, want 1 deleted", resp)
	}

	w = doJSON(t, srv, http.MethodGet, "/v1/stats", "")
	var st statsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Decay.Runs != 2 || st.Decay.Decayed != 1 || st.Decay.Deleted != 1 {
		t.Errorf("stats decay = %+v, want 2 runs, 1 decayed, 1 deleted", st.Decay)
	}
	if st.Collections["Hotels"] != 0 {
		t.Errorf("record survived the floor-1.0 decay: %v", st.Collections)
	}
}

// TestFeedbackErrorStatuses maps each typed feedback failure onto its
// HTTP status through the fake system (the stale condition needs a
// scripted store state).
func TestFeedbackErrorStatuses(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		wantStatus int
		wantCode   string
	}{
		{"unknown record", neogeo.ErrUnknownRecord, http.StatusNotFound, "unknown_record"},
		{"stale answer", neogeo.ErrStaleAnswer, http.StatusGone, "stale_answer"},
		{"invalid verdict", neogeo.ErrInvalidFeedback, http.StatusUnprocessableEntity, "invalid_feedback"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fake := &fakeSystem{feedbackErr: tc.err}
			srv := New(fake, withTestLog(t))
			w := doJSON(t, srv, http.MethodPost, "/v1/feedback", `{"record_id": 7, "verdict": "confirm"}`)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (%s)", w.Code, tc.wantStatus, w.Body.String())
			}
			var resp errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", resp.Error.Code, tc.wantCode)
			}
		})
	}
}

// TestRunLoopFlushesFeedback: the background loop applies buffered
// verdicts on the drain cadence without any explicit flush call.
func TestRunLoopFlushesFeedback(t *testing.T) {
	fake := &fakeSystem{}
	srv := New(fake, WithDrainInterval(2*time.Millisecond), withTestLog(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Run(ctx)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		fake.mu.Lock()
		flushed := fake.flushCalls
		fake.mu.Unlock()
		if flushed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Run loop never flushed feedback")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	<-done
}
