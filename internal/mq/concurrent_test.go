package mq

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// Exactly-once ack accounting under contention: producers and consumers
// hammer the queue from many goroutines; every message must be delivered,
// acked exactly once, and never lost. Run with -race.
func TestConcurrentEnqueueDequeueAckExactlyOnce(t *testing.T) {
	const (
		producers   = 4
		consumers   = 4
		perProducer = 250
		total       = producers * perProducer
	)
	q := New()

	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			for i := 0; i < perProducer; i++ {
				if _, err := q.EnqueueTraced(fmt.Sprintf("msg p%d i%d", p, i), "src", ""); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
			}
		}(p)
	}

	var mu sync.Mutex
	acked := make(map[int64]int)
	var consWG sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < consumers; c++ {
		consWG.Add(1)
		go func() {
			defer consWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				m, ok := q.Dequeue()
				if !ok {
					continue
				}
				if err := q.Ack(m.ID); err != nil {
					t.Errorf("ack %d: %v", m.ID, err)
					return
				}
				mu.Lock()
				acked[m.ID]++
				n := len(acked)
				mu.Unlock()
				if n == total {
					close(done)
					return
				}
			}
		}()
	}
	prodWG.Wait()
	consWG.Wait()

	if len(acked) != total {
		t.Fatalf("acked %d distinct messages, want %d", len(acked), total)
	}
	for id, n := range acked {
		if n != 1 {
			t.Fatalf("message %d acked %d times", id, n)
		}
	}
	if q.Len() != 0 || q.InFlight() != 0 {
		t.Fatalf("queue not drained: pending=%d inflight=%d", q.Len(), q.InFlight())
	}
	if dead := q.DeadLetters(); len(dead) != 0 {
		t.Fatalf("%d messages dead-lettered", len(dead))
	}
}

// Redelivery correctness under contention: each message is nacked on its
// first delivery and acked on a later one. Nothing is lost, nothing is
// double-acked, and attempt counts stay within the redelivery budget.
func TestConcurrentNackRedelivery(t *testing.T) {
	const total = 300
	q := New(WithMaxAttempts(10))
	for i := 0; i < total; i++ {
		if _, err := q.EnqueueTraced(fmt.Sprintf("msg %d", i), "src", ""); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	seen := make(map[int64]int)
	acked := make(map[int64]bool)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				m, ok := q.Dequeue()
				if !ok {
					continue
				}
				mu.Lock()
				seen[m.ID]++
				first := seen[m.ID] == 1
				mu.Unlock()
				if first {
					if err := q.Nack(m.ID); err != nil {
						t.Errorf("nack %d: %v", m.ID, err)
						return
					}
					continue
				}
				if err := q.Ack(m.ID); err != nil {
					t.Errorf("ack %d: %v", m.ID, err)
					return
				}
				mu.Lock()
				if acked[m.ID] {
					t.Errorf("message %d acked twice", m.ID)
				}
				acked[m.ID] = true
				n := len(acked)
				mu.Unlock()
				if n == total {
					close(done)
					return
				}
			}
		}()
	}
	wg.Wait()

	if len(acked) != total {
		t.Fatalf("acked %d messages, want %d", len(acked), total)
	}
	if q.Len() != 0 || q.InFlight() != 0 {
		t.Fatalf("queue not drained: pending=%d inflight=%d", q.Len(), q.InFlight())
	}
}

func TestAckBatch(t *testing.T) {
	q := New()
	var ids []int64
	for i := 0; i < 10; i++ {
		id, err := q.EnqueueTraced(fmt.Sprintf("msg %d", i), "src", "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for range ids {
		if _, ok := q.Dequeue(); !ok {
			t.Fatal("dequeue failed")
		}
	}
	acked, err := q.AckBatch(ids)
	if err != nil {
		t.Fatalf("AckBatch: %v", err)
	}
	if len(acked) != len(ids) {
		t.Fatalf("acked %d of %d", len(acked), len(ids))
	}
	if q.Len() != 0 || q.InFlight() != 0 {
		t.Fatalf("queue not drained: pending=%d inflight=%d", q.Len(), q.InFlight())
	}
	// Unknown IDs are reported but do not poison the batch, and the
	// partial success names which IDs really were acknowledged.
	id, err := q.EnqueueTraced("one more", "src", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Dequeue(); !ok {
		t.Fatal("dequeue failed")
	}
	acked, err = q.AckBatch([]int64{id, 9999})
	if err == nil {
		t.Fatal("AckBatch with unknown id returned nil error")
	}
	if len(acked) != 1 || acked[0] != id {
		t.Fatalf("partial ack = %v, want [%d]", acked, id)
	}
	if q.InFlight() != 0 {
		t.Fatalf("valid id not acked alongside unknown id: inflight=%d", q.InFlight())
	}
}

// A batch-acked WAL queue must not redeliver those messages on reopen.
func TestAckBatchWALDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.wal")
	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 5; i++ {
		id, err := q.EnqueueTraced(fmt.Sprintf("msg %d", i), "src", "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	keep, err := q.EnqueueTraced("survivor", "src", "")
	if err != nil {
		t.Fatal(err)
	}
	for range ids {
		if _, ok := q.Dequeue(); !ok {
			t.Fatal("dequeue failed")
		}
	}
	if _, err := q.AckBatch(ids[:5]); err != nil {
		t.Fatalf("AckBatch: %v", err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Len(); got != 1 {
		t.Fatalf("reopened queue has %d pending, want 1", got)
	}
	m, ok := re.Dequeue()
	if !ok || m.ID != keep {
		t.Fatalf("reopened queue delivered %+v, want id %d", m, keep)
	}
}
