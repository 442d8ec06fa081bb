package mq

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestTornWriteTruncatedBeforeAppend: a torn tail must be cut away when
// the log reopens, not just skipped — otherwise the next append fuses
// onto the partial line and the fused garbage ends replay early on the
// boot after that, silently dropping every later entry.
func TestTornWriteTruncatedBeforeAppend(t *testing.T) {
	tears := []string{
		`{"op":"enq","msg":{"id":2,"bo`, // cut mid-payload
		`{"op":"ack","id":1}`,           // cut between payload and newline
	}
	for _, tear := range tears {
		path := filepath.Join(t.TempDir(), "torn.wal")
		q, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueTraced("first", "a", ""); err != nil {
			t.Fatal(err)
		}
		q.Close()
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(tear); err != nil {
			t.Fatal(err)
		}
		f.Close()

		// First life after the crash: the torn entry is gone, and new
		// traffic appends cleanly after the valid prefix.
		q2, err := Open(path)
		if err != nil {
			t.Fatalf("torn wal rejected: %v", err)
		}
		if _, err := q2.EnqueueTraced("second", "b", ""); err != nil {
			t.Fatal(err)
		}
		q2.Close()

		// Second life: everything written after the tear must replay.
		q3, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := q3.Len(); got != 2 {
			t.Fatalf("tear %q: replayed Len = %d, want both messages", tear, got)
		}
		m1, _ := q3.Dequeue()
		m2, _ := q3.Dequeue()
		if m1.Body != "first" || m2.Body != "second" {
			t.Fatalf("tear %q: replayed %q, %q", tear, m1.Body, m2.Body)
		}
		q3.Close()
	}
}

// TestWALReplaysLargeMessage: the log has no line-length cap, so a
// message larger than any read buffer is still pending after a restart
// instead of making the queue unbootable.
func TestWALReplaysLargeMessage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.wal")
	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	body := strings.Repeat("x", 5<<20)
	if _, err := q.EnqueueTraced(body, "big", ""); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after a 5 MiB enqueue: %v", err)
	}
	defer q2.Close()
	if m, ok := q2.Dequeue(); !ok || m.Body != body || m.Source != "big" {
		t.Fatalf("after replay: ok %v, %d-byte body from %q", ok, len(m.Body), m.Source)
	}
}

// TestDeadLetterSurvivesWALReplay: dead letters are logged as their own
// WAL op, so the dead-letter list — body included — survives a restart
// instead of silently counting as acknowledged.
func TestDeadLetterSurvivesWALReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.wal")
	q, err := Open(path, WithMaxAttempts(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueTraced("poison message", "mallory", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueTraced("good message", "alice", ""); err != nil {
		t.Fatal(err)
	}
	m, ok := q.Dequeue()
	if !ok {
		t.Fatal("no message")
	}
	if err := q.Nack(m.ID); err != nil {
		t.Fatal(err)
	}
	// The redelivery attempt exceeds the single allowed one: the next
	// Dequeue dead-letters it and hands out the good message instead.
	m2, ok := q.Dequeue()
	if !ok || m2.Body != "good message" {
		t.Fatalf("dequeued %+v, want the good message", m2)
	}
	if got := q.Stats(); got.DeadLettered != 1 || got.WALAppendErrors != 0 {
		t.Fatalf("stats = %+v, want 1 dead-lettered, no WAL errors", got)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2, err := Open(path, WithMaxAttempts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if got := q2.Stats(); got.DeadLettered != 1 {
		t.Fatalf("after replay: %+v, want DeadLettered 1", got)
	}
	dead := q2.DeadLetters()
	if len(dead) != 1 || dead[0].Body != "poison message" || dead[0].Source != "mallory" {
		t.Fatalf("dead letters after replay = %+v", dead)
	}
	// The good message is back in flight territory: still pending (its
	// lease from before the restart does not survive).
	if got := q2.Stats(); got.Pending != 1 {
		t.Fatalf("after replay: %+v, want the good message pending", got)
	}
	// A dead-lettered message must never be redelivered.
	m3, ok := q2.Dequeue()
	if !ok || m3.Body != "good message" {
		t.Fatalf("dequeued %+v after replay, want the good message", m3)
	}
	if _, ok := q2.Dequeue(); ok {
		t.Fatal("dead-lettered message was redelivered after replay")
	}
}

// TestLSNAdvancesPerEntry: the log sequence number counts durable
// entries — single appends, group commits — and replay resumes it.
func TestLSNAdvancesPerEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.wal")
	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.LSN(); got != 0 {
		t.Fatalf("fresh LSN = %d", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := q.EnqueueTraced("m", "src", ""); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.LSN(); got != 3 {
		t.Fatalf("LSN after 3 enqueues = %d", got)
	}
	m1, _ := q.Dequeue()
	m2, _ := q.Dequeue()
	if _, err := q.AckBatch([]int64{m1.ID, m2.ID}); err != nil {
		t.Fatal(err)
	}
	if got := q.LSN(); got != 5 {
		t.Fatalf("LSN after batch ack = %d", got)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if got := q2.LSN(); got != 5 {
		t.Fatalf("LSN after replay = %d, want 5", got)
	}
	// An in-memory queue has no log to sequence.
	if got := New().LSN(); got != 0 {
		t.Fatalf("in-memory LSN = %d", got)
	}
}

// TestReplayAckedAfterCheckpointLSN: with a checkpoint cutoff, replay
// keeps pre-cutoff acknowledgements acknowledged and re-enqueues the
// rest for re-integration.
func TestReplayAckedAfterCheckpointLSN(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.wal")
	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{"first", "second", "third"} {
		if _, err := q.EnqueueTraced(body, "src", ""); err != nil {
			t.Fatal(err)
		}
	}
	m1, _ := q.Dequeue()
	if err := q.Ack(m1.ID); err != nil {
		t.Fatal(err)
	}
	// A checkpoint happens here: its image covers the first ack.
	cut := q.LSN()
	m2, _ := q.Dequeue()
	m3, _ := q.Dequeue()
	if _, err := q.AckBatch([]int64{m2.ID, m3.ID}); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash recovery against the checkpoint: second and third were
	// acknowledged after its LSN, so they come back as pending, in
	// receive order; first stays acknowledged.
	q2, err := Open(path, WithReplayAckedAfter(cut))
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if got := q2.Stats(); got.Pending != 2 || got.Acked != 1 {
		t.Fatalf("stats = %+v, want 2 pending / 1 acked", got)
	}
	r1, _ := q2.Dequeue()
	r2, _ := q2.Dequeue()
	if r1.Body != "second" || r2.Body != "third" {
		t.Fatalf("replayed %q, %q; want second, third", r1.Body, r2.Body)
	}

	// Without the option (no durability subsystem) acknowledged stays
	// acknowledged — the previous behavior.
	q3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q3.Close()
	if got := q3.Stats(); got.Pending != 0 || got.Acked != 3 {
		t.Fatalf("plain replay stats = %+v, want 0 pending / 3 acked", got)
	}
}

// TestReplayAckedAfterSkipsDeadLetters: a cutoff of zero replays every
// acknowledged message, but dead letters are terminal — they rebuild
// into the dead-letter list, never into pending.
func TestReplayAckedAfterSkipsDeadLetters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.wal")
	q, err := Open(path, WithMaxAttempts(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueTraced("poison", "mallory", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueTraced("fine", "alice", ""); err != nil {
		t.Fatal(err)
	}
	m, _ := q.Dequeue()
	if err := q.Nack(m.ID); err != nil {
		t.Fatal(err)
	}
	m2, _ := q.Dequeue() // dead-letters the poison, delivers the fine one
	if err := q.Ack(m2.ID); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2, err := Open(path, WithMaxAttempts(1), WithReplayAckedAfter(0))
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	st := q2.Stats()
	if st.DeadLettered != 1 {
		t.Fatalf("stats = %+v, want the poison dead-lettered", st)
	}
	if st.Pending != 1 {
		t.Fatalf("stats = %+v, want only the acked message re-enqueued", st)
	}
	r, _ := q2.Dequeue()
	if r.Body != "fine" {
		t.Fatalf("replayed %q, want the acknowledged message", r.Body)
	}
}

// TestWALEntryBytes pins the log's line format: an enqueue carries its
// message, an ack or a dead letter only its ID.
func TestWALEntryBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.wal")
	at := time.Date(2011, 4, 1, 12, 0, 0, 0, time.UTC)
	q, err := Open(path, WithMaxAttempts(1), WithClock(func() time.Time { return at }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueTraced("first", "alice", "t1"); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueTraced("poison", "mallory", ""); err != nil {
		t.Fatal(err)
	}
	m1, _ := q.Dequeue()
	if err := q.Ack(m1.ID); err != nil {
		t.Fatal(err)
	}
	m2, _ := q.Dequeue()
	if err := q.Nack(m2.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Dequeue(); ok { // the redelivery dead-letters it
		t.Fatal("message delivered past its attempt limit")
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"op":"enq","msg":{"ID":1,"Body":"first","Source":"alice","Received":"2011-04-01T12:00:00Z","Attempts":0,"Trace":"t1"}}` + "\n" +
		`{"op":"enq","msg":{"ID":2,"Body":"poison","Source":"mallory","Received":"2011-04-01T12:00:00Z","Attempts":0}}` + "\n" +
		`{"op":"ack","id":1}` + "\n" +
		`{"op":"dead","id":2}` + "\n"
	if string(got) != want {
		t.Fatalf("wal bytes:\n got %s\nwant %s", got, want)
	}
}

// TestReplayOlderFormatLog: logs written when every line carried a
// "msg" object (a zero one on acks and dead letters) and enqueues carried
// a "Tag" replay unchanged.
func TestReplayOlderFormatLog(t *testing.T) {
	zero := `"msg":{"ID":0,"Body":"","Source":"","Received":"0001-01-01T00:00:00Z","Attempts":0,"Tag":""}`
	log := `{"op":"enq","msg":{"ID":1,"Body":"first","Source":"alice","Received":"2011-04-01T12:00:00Z","Attempts":0,"Tag":""}}` + "\n" +
		`{"op":"enq","msg":{"ID":2,"Body":"second","Source":"bob","Received":"2011-04-01T12:00:00Z","Attempts":0,"Tag":""}}` + "\n" +
		`{"op":"enq","msg":{"ID":3,"Body":"poison","Source":"mallory","Received":"2011-04-01T12:00:00Z","Attempts":0,"Tag":""}}` + "\n" +
		`{"op":"ack","id":1,` + zero + "}\n" +
		`{"op":"dead","id":3,` + zero + "}\n" +
		// Never written, but a damaged log may hold it: nothing to replay.
		`{"op":"enq"}` + "\n"
	path := filepath.Join(t.TempDir(), "queue.wal")
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if got := q.Stats(); got != (Stats{Pending: 1, Acked: 1, DeadLettered: 1}) {
		t.Fatalf("stats = %+v", got)
	}
	if got := q.LSN(); got != 6 {
		t.Fatalf("LSN = %d, want 6", got)
	}
	if dead := q.DeadLetters(); len(dead) != 1 || dead[0].Body != "poison" {
		t.Fatalf("dead letters = %+v", dead)
	}
	m, ok := q.Dequeue()
	if !ok || m.ID != 2 || m.Body != "second" || m.Source != "bob" {
		t.Fatalf("dequeued %+v, want message 2", m)
	}
	id, err := q.EnqueueTraced("fourth", "dave", "")
	if err != nil || id != 4 {
		t.Fatalf("next enqueue = %d, %v; want 4", id, err)
	}
}

// A failed Ack must leave the message in flight: memory may change only
// after the WAL append that records the change succeeded, or the queue
// forgets a message the log still holds unacknowledged.
func TestFailedAckKeepsMessageInFlight(t *testing.T) {
	q, err := Open(filepath.Join(t.TempDir(), "q.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueTraced("report", "a", ""); err != nil {
		t.Fatal(err)
	}
	m, ok := q.Dequeue()
	if !ok {
		t.Fatal("nothing to dequeue")
	}
	if err := q.wal.Close(); err != nil {
		t.Fatal(err)
	}
	if err := q.Ack(m.ID); err == nil {
		t.Fatal("Ack succeeded with the WAL closed")
	}
	if got := q.InFlight(); got != 1 {
		t.Fatalf("InFlight after failed Ack = %d, want 1", got)
	}
	if err := q.Nack(m.ID); err != nil {
		t.Fatalf("Nack after failed Ack: %v", err)
	}
	if got := q.Len(); got != 1 {
		t.Fatalf("Len after Nack = %d, want 1", got)
	}
}
