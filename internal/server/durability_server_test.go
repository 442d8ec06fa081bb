package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	neogeo "repro"
)

func decodeHealth(t *testing.T, body []byte) healthResponse {
	t.Helper()
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz body: %v: %s", err, body)
	}
	return h
}

// TestHealthzDegradedOnDeadLetters: dead-lettered messages mean user
// contributions were dropped — /healthz must stop saying "ok".
func TestHealthzDegradedOnDeadLetters(t *testing.T) {
	fake := &fakeSystem{stats: neogeo.Stats{Queue: neogeo.QueueStats{Acked: 7, DeadLettered: 2}}}
	srv := New(fake, withTestLog(t))

	w := doJSON(t, srv, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", w.Code, w.Body.String())
	}
	h := decodeHealth(t, w.Body.Bytes())
	if h.Status != "degraded" {
		t.Errorf("status = %q, want degraded", h.Status)
	}
	if len(h.Reasons) != 1 || h.Reasons[0] != "dead_letters" {
		t.Errorf("reasons = %v, want [dead_letters]", h.Reasons)
	}
	if h.Queue.DeadLettered != 2 {
		t.Errorf("queue = %+v", h.Queue)
	}
}

// TestHealthzDegradedOnWALAppendErrors: a diverged queue WAL is an
// operator problem even with nothing dead-lettered in memory yet.
func TestHealthzDegradedOnWALAppendErrors(t *testing.T) {
	fake := &fakeSystem{stats: neogeo.Stats{Queue: neogeo.QueueStats{WALAppendErrors: 1}}}
	srv := New(fake, withTestLog(t))
	w := doJSON(t, srv, http.MethodGet, "/healthz", "")
	h := decodeHealth(t, w.Body.Bytes())
	if w.Code != http.StatusServiceUnavailable || h.Status != "degraded" {
		t.Fatalf("code %d status %q, want 503 degraded", w.Code, h.Status)
	}
	if len(h.Reasons) != 1 || h.Reasons[0] != "wal_append_errors" {
		t.Errorf("reasons = %v", h.Reasons)
	}
}

// TestHealthzDegradedOnStalledQueue: pending messages with no
// acknowledgement progress past the stall window mean the drain loop is
// wedged or absent; once the queue moves (or empties) health recovers.
func TestHealthzDegradedOnStalledQueue(t *testing.T) {
	fake := &fakeSystem{stats: neogeo.Stats{Queue: neogeo.QueueStats{Pending: 5, Acked: 3}}}
	srv := New(fake, withTestLog(t), WithDrainInterval(time.Millisecond), WithStallAfter(time.Millisecond))

	// First observation arms the watermark; the backlog is not yet stale.
	w := doJSON(t, srv, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("fresh backlog already degraded: %s", w.Body.String())
	}

	// Same backlog, no ack progress, past the (floored, 10ms) window.
	time.Sleep(30 * time.Millisecond)
	w = doJSON(t, srv, http.MethodGet, "/healthz", "")
	h := decodeHealth(t, w.Body.Bytes())
	if w.Code != http.StatusServiceUnavailable || h.Status != "degraded" {
		t.Fatalf("stalled queue: code %d status %q, want 503 degraded", w.Code, h.Status)
	}
	if len(h.Reasons) != 1 || h.Reasons[0] != "queue_stalled" {
		t.Errorf("reasons = %v, want [queue_stalled]", h.Reasons)
	}

	// Acks advance: the same pending depth is a moving queue, not a stall.
	fake.mu.Lock()
	fake.stats.Queue.Acked = 4
	fake.mu.Unlock()
	w = doJSON(t, srv, http.MethodGet, "/healthz", "")
	if h := decodeHealth(t, w.Body.Bytes()); w.Code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("after progress: code %d status %q, want 200 ok", w.Code, h.Status)
	}
}

// TestInternalErrorsAreGeneric: a pipeline failure's real error goes to
// the log; the wire gets the uniform envelope with no internal detail.
func TestInternalErrorsAreGeneric(t *testing.T) {
	const secret = "shard 3 exploded at /var/lib/neogeo/shard3"
	var logged bytes.Buffer
	fake := &fakeSystem{submitErr: errors.New(secret), askErr: errors.New(secret)}
	srv := New(fake, WithSlog(slog.New(slog.NewTextHandler(&logged, nil))))

	cases := []struct {
		method, path, body string
	}{
		{http.MethodPost, "/v1/messages", `{"text":"hello berlin","source":"a"}`},
		{http.MethodPost, "/v1/ask", `{"question":"any hotels?","source":"a"}`},
	}
	for _, tc := range cases {
		w := doJSON(t, srv, tc.method, tc.path, tc.body)
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status = %d: %s", tc.path, w.Code, w.Body.String())
		}
		if strings.Contains(w.Body.String(), "shard 3") {
			t.Errorf("%s: internal detail leaked onto the wire: %s", tc.path, w.Body.String())
		}
		var resp errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Error.Code != "internal" || resp.Error.Message != "internal error" {
			t.Errorf("%s: envelope = %+v", tc.path, resp.Error)
		}
	}
	if !strings.Contains(logged.String(), secret) {
		t.Errorf("real error never reached the log: %s", logged.String())
	}
}

// TestCheckpointEndpoint: the admin trigger writes one checkpoint and
// reports it; without a data directory it maps the facade's sentinel.
func TestCheckpointEndpoint(t *testing.T) {
	fake := &fakeSystem{}
	srv := New(fake, withTestLog(t))
	w := doJSON(t, srv, http.MethodPost, "/v1/checkpoint", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp checkpointResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 1 || resp.Status != "written" || resp.Bytes == 0 {
		t.Errorf("response = %+v", resp)
	}

	fake.mu.Lock()
	fake.ckptErr = neogeo.ErrNoDataDir
	fake.mu.Unlock()
	w = doJSON(t, srv, http.MethodPost, "/v1/checkpoint", "")
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("unconfigured: status = %d: %s", w.Code, w.Body.String())
	}
	var er errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != "checkpoint_unconfigured" {
		t.Errorf("code = %q", er.Error.Code)
	}
}

// TestCheckpointEndpointRealSystem drives the whole stack: a durable
// system checkpoints over HTTP, the image lands on disk, and the stats
// endpoint reports it.
func TestCheckpointEndpointRealSystem(t *testing.T) {
	dataDir := t.TempDir()
	sys, err := neogeo.New(
		neogeo.WithGazetteerNames(300),
		neogeo.WithWorkers(1),
		neogeo.WithDataDir(dataDir),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := New(sys, withTestLog(t))

	w := doJSON(t, srv, http.MethodPost, "/v1/messages", `{"text":"loved the Axel Hotel in Berlin, great stay","source":"alice"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %s", w.Body.String())
	}
	for range sys.Drain(context.Background(), 0) {
	}

	w = doJSON(t, srv, http.MethodPost, "/v1/checkpoint", "")
	if w.Code != http.StatusOK {
		t.Fatalf("checkpoint: status %d: %s", w.Code, w.Body.String())
	}
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) < 2 { // checkpoint file + feedback ledger
		t.Fatalf("data dir after checkpoint: %v", names)
	}

	w = doJSON(t, srv, http.MethodGet, "/v1/stats", "")
	var st statsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Checkpoint.Enabled || st.Checkpoint.Count != 1 || st.Checkpoint.LastSeq != 1 {
		t.Errorf("stats checkpoint = %+v", st.Checkpoint)
	}
	if st.Checkpoint.LastAgeSeconds == nil {
		t.Error("stats checkpoint age missing")
	}
}

// TestRunBackgroundLoops: Run hosts the periodic checkpoint and decay
// loops next to the drain loop, each on its own cadence.
func TestRunBackgroundLoops(t *testing.T) {
	fake := &fakeSystem{}
	srv := New(fake,
		withTestLog(t),
		WithDrainInterval(2*time.Millisecond),
		WithCheckpointInterval(5*time.Millisecond),
		WithDecayInterval(5*time.Millisecond),
	)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Run(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ckpt, decay, drain := fake.counts()
		if ckpt >= 2 && decay >= 2 && drain >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("loops never all ran: checkpoints=%d decays=%d drains=%d", ckpt, decay, drain)
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

// TestRunWithoutOptionalLoops: with no checkpoint or decay interval the
// loops stay off — only draining happens.
func TestRunWithoutOptionalLoops(t *testing.T) {
	fake := &fakeSystem{}
	srv := New(fake, withTestLog(t), WithDrainInterval(time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Run(ctx)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	<-done
	ckpt, decay, drain := fake.counts()
	if ckpt != 0 || decay != 0 {
		t.Errorf("optional loops ran unconfigured: checkpoints=%d decays=%d", ckpt, decay)
	}
	if drain == 0 {
		t.Error("drain loop never ran")
	}
}
