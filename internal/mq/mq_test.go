package mq

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
}

func TestEnqueueDequeueFIFO(t *testing.T) {
	q := New()
	for i := 0; i < 3; i++ {
		if _, err := q.EnqueueTraced(fmt.Sprintf("msg-%d", i), "alice", ""); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 3; i++ {
		m, ok := q.Dequeue()
		if !ok {
			t.Fatalf("Dequeue %d failed", i)
		}
		if m.Body != fmt.Sprintf("msg-%d", i) {
			t.Errorf("out of order: %q at %d", m.Body, i)
		}
		if err := q.Ack(m.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Error("dequeue from empty queue succeeded")
	}
}

func TestEnqueueValidation(t *testing.T) {
	q := New()
	if _, err := q.EnqueueTraced("", "x", ""); err == nil {
		t.Error("empty body accepted")
	}
}

func TestAckNackSemantics(t *testing.T) {
	q := New()
	id, err := q.EnqueueTraced("hello", "bob", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Ack(id); err == nil {
		t.Error("ack of unleased message succeeded")
	}
	m, _ := q.Dequeue()
	if q.InFlight() != 1 {
		t.Errorf("InFlight = %d", q.InFlight())
	}
	if err := q.Nack(m.ID); err != nil {
		t.Fatal(err)
	}
	// Redelivered immediately with incremented attempts.
	m2, ok := q.Dequeue()
	if !ok || m2.ID != m.ID {
		t.Fatalf("redelivery failed: %+v", m2)
	}
	if m2.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", m2.Attempts)
	}
	if err := q.Ack(m2.ID); err != nil {
		t.Fatal(err)
	}
	if err := q.Nack(m2.ID); err == nil {
		t.Error("nack after ack succeeded")
	}
}

func TestVisibilityTimeoutRedelivery(t *testing.T) {
	now := time.Date(2011, 4, 1, 12, 0, 0, 0, time.UTC)
	q := New(
		WithVisibility(10*time.Second),
		WithClock(func() time.Time { return now }),
	)
	if _, err := q.EnqueueTraced("lost message", "carol", ""); err != nil {
		t.Fatal(err)
	}
	m, _ := q.Dequeue()
	// Consumer crashes; lease expires.
	if _, ok := q.Dequeue(); ok {
		t.Error("message redelivered before lease expiry")
	}
	now = now.Add(11 * time.Second)
	m2, ok := q.Dequeue()
	if !ok || m2.ID != m.ID {
		t.Fatal("expired lease not reclaimed")
	}
}

func TestDeadLetterAfterMaxAttempts(t *testing.T) {
	q := New(WithMaxAttempts(2))
	id, err := q.EnqueueTraced("poison", "dave", "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m, ok := q.Dequeue()
		if !ok {
			t.Fatalf("dequeue %d failed", i)
		}
		if err := q.Nack(m.ID); err != nil {
			t.Fatal(err)
		}
	}
	// Third attempt exceeds the limit: moved to dead letters.
	if _, ok := q.Dequeue(); ok {
		t.Error("poison message delivered beyond max attempts")
	}
	dead := q.DeadLetters()
	if len(dead) != 1 || dead[0].ID != id {
		t.Errorf("dead letters = %+v", dead)
	}
}

func TestWALPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.wal")
	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueTraced("first", "a", ""); err != nil {
		t.Fatal(err)
	}
	id2, err := q.EnqueueTraced("second", "b", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueTraced("third", "c", ""); err != nil {
		t.Fatal(err)
	}
	// Ack the second message only.
	m, _ := q.Dequeue() // first
	first := m.ID
	_ = first
	m2, _ := q.Dequeue()
	if m2.ID != id2 {
		// Dequeue order: first then second; ack second.
		t.Fatalf("unexpected order: %+v", m2)
	}
	if err := q.Ack(id2); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: first and third survive (first's lease is not persisted, so
	// it is pending again), second is gone.
	q2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if q2.Len() != 2 {
		t.Fatalf("recovered Len = %d, want 2", q2.Len())
	}
	var bodies []string
	for {
		m, ok := q2.Dequeue()
		if !ok {
			break
		}
		bodies = append(bodies, m.Body)
		if err := q2.Ack(m.ID); err != nil {
			t.Fatal(err)
		}
	}
	if len(bodies) != 2 || bodies[0] != "first" || bodies[1] != "third" {
		t.Errorf("recovered bodies = %v", bodies)
	}
	// IDs keep increasing after recovery.
	id4, err := q2.EnqueueTraced("fourth", "d", "")
	if err != nil {
		t.Fatal(err)
	}
	if id4 <= id2 {
		t.Errorf("recovered nextID regressed: %d", id4)
	}
}

func TestWALTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueTraced("ok", "a", ""); err != nil {
		t.Fatal(err)
	}
	q.Close()
	// Simulate a crash mid-write.
	f, err := openAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"enq","msg":{"id":2,"bo`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	q2, err := Open(path)
	if err != nil {
		t.Fatalf("torn wal rejected: %v", err)
	}
	defer q2.Close()
	if q2.Len() != 1 {
		t.Errorf("recovered Len = %d, want 1", q2.Len())
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	q := New()
	const producers, perProducer = 4, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if _, err := q.EnqueueTraced(fmt.Sprintf("p%d-m%d", p, i), "src", ""); err != nil {
					t.Error(err)
				}
			}
		}(p)
	}
	wg.Wait()

	var mu sync.Mutex
	seen := make(map[int64]bool)
	var cwg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				m, ok := q.Dequeue()
				if !ok {
					return
				}
				mu.Lock()
				if seen[m.ID] {
					t.Errorf("message %d delivered twice", m.ID)
				}
				seen[m.ID] = true
				mu.Unlock()
				if err := q.Ack(m.ID); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	cwg.Wait()
	if len(seen) != producers*perProducer {
		t.Errorf("consumed %d of %d", len(seen), producers*perProducer)
	}
}

func TestStatsSnapshot(t *testing.T) {
	q := New(WithMaxAttempts(1))
	for i := 0; i < 4; i++ {
		if _, err := q.EnqueueTraced(fmt.Sprintf("msg-%d", i), "alice", ""); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.Stats(); got != (Stats{Pending: 4}) {
		t.Fatalf("after enqueue: %+v", got)
	}

	// Lease two: one acked singly, one left in flight.
	m1, _ := q.Dequeue()
	m2, _ := q.Dequeue()
	if err := q.Ack(m1.ID); err != nil {
		t.Fatal(err)
	}
	if got := q.Stats(); got != (Stats{Pending: 2, InFlight: 1, Acked: 1}) {
		t.Fatalf("after single ack: %+v", got)
	}

	// Group-commit the in-flight one plus a freshly leased one.
	m3, _ := q.Dequeue()
	if _, err := q.AckBatch([]int64{m2.ID, m3.ID}); err != nil {
		t.Fatal(err)
	}
	if got := q.Stats(); got != (Stats{Pending: 1, Acked: 3}) {
		t.Fatalf("after batch ack: %+v", got)
	}

	// Exhaust the last message's single delivery attempt: nack it back,
	// and the redelivery attempt dead-letters it.
	m4, _ := q.Dequeue()
	if err := q.Nack(m4.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("message should have dead-lettered on redelivery")
	}
	if got := q.Stats(); got != (Stats{Acked: 3, DeadLettered: 1}) {
		t.Fatalf("after dead-letter: %+v", got)
	}
}

func TestStatsSurvivesWALReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.wal")
	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := q.EnqueueTraced(fmt.Sprintf("msg-%d", i), "alice", ""); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := q.Dequeue()
	if err := q.Ack(m.ID); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if got := q2.Stats(); got != (Stats{Pending: 2, Acked: 1}) {
		t.Fatalf("after replay: %+v", got)
	}
}
