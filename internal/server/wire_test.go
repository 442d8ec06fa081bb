package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	neogeo "repro"
)

// TestGoldenSSEFrame pins the bytes of "event: record" frames: field
// order, location omitted when nil, and at as UTC RFC 3339 with
// nanoseconds whatever zone the event's timestamp carries.
func TestGoldenSSEFrame(t *testing.T) {
	srv := New(&fakeSystem{}, withTestLog(t))
	cest := time.FixedZone("CEST", 2*60*60)
	w := httptest.NewRecorder()
	for _, ev := range []neogeo.SubscriptionEvent{
		{
			Seq: 7, Action: "inserted", Collection: "Hotels", RecordID: 3, Certainty: 0.625,
			Fields: map[string]string{"Hotel_Name": "Axel Hotel", "City": "Berlin"},
			At:     time.Date(2011, 4, 1, 11, 0, 0, 123456789, cest),
		},
		{
			Seq: 8, Action: "corrected", Collection: "Hotels", RecordID: 3, Certainty: 0.75,
			Location: &neogeo.Location{Lat: 52.52, Lon: 13.405},
			Fields:   map[string]string{"Hotel_Name": "Axel Hotel"},
			At:       time.Date(2011, 4, 1, 9, 0, 1, 0, time.UTC),
		},
	} {
		if !srv.writeEvent(w, w, ev) {
			t.Fatal("writeEvent reported a hung-up client on a recorder")
		}
	}
	checkGolden(t, "sse_record.txt", w.Body.Bytes())
}

// TestGoldenAskNoResults pins an answer with no ranked records: the
// results array is present and empty, never null.
func TestGoldenAskNoResults(t *testing.T) {
	srv := New(&fakeSystem{}, withTestLog(t)) // the fake answers with nil Results
	w := doJSON(t, srv, http.MethodPost, "/v1/ask", `{"question":"any hotels?","source":"a"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("ask: status %d: %s", w.Code, w.Body.String())
	}
	checkGolden(t, "ask_empty.json", w.Body.Bytes())
}

// TestRequestBodiesReachTheFacade posts the fullest feedback and
// subscribe bodies the API documents and asserts every field — the
// nested location included — arrives at the system as sent.
func TestRequestBodiesReachTheFacade(t *testing.T) {
	fake := &fakeSystem{}
	srv := New(fake, withTestLog(t))

	w := doJSON(t, srv, http.MethodPost, "/v1/feedback",
		`{"record_id":7,"verdict":"correct","field":"Hotel_Name","value":"Axel Hotel","location":{"lat":52.52,"lon":13.405},"source":"critic"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("feedback: status %d: %s", w.Code, w.Body.String())
	}
	wantFB := neogeo.Feedback{
		RecordID: 7, Verdict: neogeo.VerdictCorrect, Field: "Hotel_Name", Value: "Axel Hotel",
		Location: &neogeo.Location{Lat: 52.52, Lon: 13.405}, Source: "critic",
	}
	if !reflect.DeepEqual(fake.lastFeedback, wantFB) {
		t.Errorf("feedback reached the system as %+v, want %+v", fake.lastFeedback, wantFB)
	}

	w = doJSON(t, srv, http.MethodPost, "/v1/subscribe",
		`{"collection":"Hotels","center":{"lat":52.52,"lon":13.405},"radius_meters":1500}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("subscribe: status %d: %s", w.Code, w.Body.String())
	}
	wantSub := neogeo.Subscription{
		Collection: "Hotels", Center: &neogeo.Location{Lat: 52.52, Lon: 13.405}, RadiusMeters: 1500,
	}
	if !reflect.DeepEqual(fake.lastSub, wantSub) {
		t.Errorf("subscription reached the system as %+v, want %+v", fake.lastSub, wantSub)
	}
}

// TestUnknownFieldsRejected: the body-taking routes that decode into
// facade types stay strict — an unknown key, top-level or nested, is a
// 400 and never reaches the system.
func TestUnknownFieldsRejected(t *testing.T) {
	for _, tc := range []struct{ name, path, body string }{
		{"feedback top-level", "/v1/feedback", `{"record_id":7,"verdict":"confirm","weight":2}`},
		{"feedback nested", "/v1/feedback", `{"record_id":7,"verdict":"correct","location":{"lat":1,"lon":2,"alt":3}}`},
		{"feedback go field name", "/v1/feedback", `{"RecordID":7,"verdict":"confirm"}`},
		{"subscribe top-level", "/v1/subscribe", `{"key":"Axel Hotel","ttl":60}`},
		{"subscribe nested", "/v1/subscribe", `{"center":{"lat":1,"lon":2,"alt":3},"radius_meters":10}`},
		{"subscribe go field name", "/v1/subscribe", `{"key":"x","RadiusMeters":10}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fake := &fakeSystem{}
			w := doJSON(t, New(fake, withTestLog(t)), http.MethodPost, tc.path, tc.body)
			var resp errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("error body is not the JSON envelope: %v: %s", err, w.Body.String())
			}
			if w.Code != http.StatusBadRequest || resp.Error.Code != "bad_request" {
				t.Errorf("status %d code %q, want 400 bad_request (%s)", w.Code, resp.Error.Code, w.Body.String())
			}
			if fake.feedbackSeq != 0 || len(fake.subIDs) != 0 {
				t.Error("a rejected body reached the system")
			}
		})
	}
}
