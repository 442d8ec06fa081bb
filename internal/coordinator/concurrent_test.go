package coordinator

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/extract"
	"repro/internal/integrate"
	"repro/internal/mq"
)

// DrainEach must process every queued message exactly once: same
// outcome count as the sequential path, queue fully drained, no duplicate
// message IDs among the outcomes. Run with -race.
func TestDrainConcurrentExactlyOnce(t *testing.T) {
	c, db := newCoordinator(t)
	c.SetWorkers(4)

	const total = 60
	for i := 0; i < total; i++ {
		body := fmt.Sprintf("stayed at the Axel Hotel in Berlin, visit %d was great", i)
		if i%5 == 0 {
			body = "can anyone recommend a good hotel in Berlin?"
		}
		if _, err := c.Submit(context.Background(), body, fmt.Sprintf("user%d", i%7)); err != nil {
			t.Fatal(err)
		}
	}

	outs, errs := drainEach(context.Background(), c, 0)
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	if len(outs) != total {
		t.Fatalf("outcomes = %d, want %d", len(outs), total)
	}
	seen := make(map[int64]bool)
	for _, out := range outs {
		if seen[out.MessageID] {
			t.Fatalf("message %d processed twice", out.MessageID)
		}
		seen[out.MessageID] = true
	}
	if c.queue.Len() != 0 || c.queue.InFlight() != 0 {
		t.Fatalf("queue not drained: len=%d inflight=%d", c.queue.Len(), c.queue.InFlight())
	}
	// All informative messages merged into the one Axel Hotel record.
	if db.Len("Hotels") != 1 {
		t.Fatalf("Hotels len = %d, want 1", db.Len("Hotels"))
	}
}

func TestDrainConcurrentLimit(t *testing.T) {
	c, _ := newCoordinator(t)
	c.SetWorkers(3)
	for i := 0; i < 7; i++ {
		if _, err := c.Submit(context.Background(), "nice stay at the Axel Hotel in Berlin", "u"); err != nil {
			t.Fatal(err)
		}
	}
	outs, errs := drainEach(context.Background(), c, 4)
	if len(outs)+len(errs) != 4 {
		t.Fatalf("limit 4: %d outs, %d errs", len(outs), len(errs))
	}
	if got := c.queue.Len(); got != 3 {
		t.Fatalf("remaining = %d, want 3", got)
	}
	if c.queue.InFlight() != 0 {
		t.Fatalf("inflight = %d after limited drain", c.queue.InFlight())
	}
}

// failingIntegrator fails every non-empty template group, so every
// report's integration errors while requests (empty groups) commit.
type failingIntegrator struct{}

func (failingIntegrator) Lanes() int                   { return 1 }
func (failingIntegrator) Route([]extract.Template) int { return 0 }
func (failingIntegrator) IntegrateGroups(_ int, groups [][]extract.Template) [][]integrate.BatchResult {
	results := make([][]integrate.BatchResult, len(groups))
	for i, g := range groups {
		if len(g) > 0 {
			results[i] = []integrate.BatchResult{{Err: errors.New("injected integration failure")}}
		}
	}
	return results
}

// Messages whose workflow errors are redelivered and ultimately
// dead-lettered without wedging the concurrent drain.
func TestDrainConcurrentErrorsDeadLetter(t *testing.T) {
	c, _ := newCoordinator(t)
	c.SetWorkers(2)
	c.di = failingIntegrator{}
	if _, err := c.Submit(context.Background(), "lovely Axel Hotel in Berlin", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(context.Background(), "can anyone recommend a good hotel in Berlin?", "y"); err != nil {
		t.Fatal(err)
	}
	outs, errs := drainEach(context.Background(), c, 0)
	if len(outs) != 1 {
		t.Fatalf("outs = %d, want 1 (the request)", len(outs))
	}
	if len(errs) == 0 {
		t.Fatal("no errors reported for the poisoned workflow")
	}
	if dead := c.queue.DeadLetters(); len(dead) != 1 {
		t.Fatalf("dead letters = %d, want 1", len(dead))
	}
	if c.queue.Len() != 0 || c.queue.InFlight() != 0 {
		t.Fatalf("queue not drained: len=%d inflight=%d", c.queue.Len(), c.queue.InFlight())
	}
}

// Submit and DrainEach hammered from many goroutines at once: the
// drain must absorb concurrent producers without losing or duplicating
// messages. Run with -race.
func TestSubmitDuringDrainConcurrent(t *testing.T) {
	c, _ := newCoordinator(t)
	c.SetWorkers(4)

	const (
		producers   = 3
		perProducer = 20
	)
	// Seed the queue so the drain has work before producers start.
	var ids sync.Map
	for i := 0; i < 5; i++ {
		id, err := c.Submit(context.Background(), "great time at the Axel Hotel in Berlin", "seed")
		if err != nil {
			t.Fatal(err)
		}
		ids.Store(id, true)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				id, err := c.Submit(context.Background(), "lovely Axel Hotel in Berlin", fmt.Sprintf("p%d", p))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ids.Store(id, true)
			}
		}(p)
	}

	var outs []*Outcome
	var errs []error
	// Drain repeatedly until producers are done and the queue is empty —
	// a single drain may observe an empty queue while producers pause.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		o, e := drainEach(context.Background(), c, 0)
		outs = append(outs, o...)
		errs = append(errs, e...)
		select {
		case <-done:
			if c.queue.Len() == 0 {
				o, e = drainEach(context.Background(), c, 0)
				outs = append(outs, o...)
				errs = append(errs, e...)
				goto finished
			}
		default:
		}
	}
finished:
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	want := 5 + producers*perProducer
	if len(outs) != want {
		t.Fatalf("outcomes = %d, want %d", len(outs), want)
	}
	seen := make(map[int64]bool)
	for _, out := range outs {
		if seen[out.MessageID] {
			t.Fatalf("message %d processed twice", out.MessageID)
		}
		seen[out.MessageID] = true
	}
}

// DrainEach honours context cancellation: it stops dispatching and
// returns without leaking leases forever (nacked messages return to the
// queue).
func TestDrainConcurrentCancel(t *testing.T) {
	c, _ := newCoordinator(t)
	c.SetWorkers(2)
	for i := 0; i < 10; i++ {
		if _, err := c.Submit(context.Background(), "stay at the Axel Hotel in Berlin", "u"); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outs, errs := drainEach(ctx, c, 0)
	if len(outs)+len(errs)+c.queue.Len()+c.queue.InFlight() < 10 {
		t.Fatalf("messages lost after cancel: outs=%d errs=%d pending=%d inflight=%d",
			len(outs), len(errs), c.queue.Len(), c.queue.InFlight())
	}
}

// A failed batch acknowledgement (e.g. WAL write error) must not wedge
// the drain: the batch is nacked back for redelivery and the drain
// terminates via the dead-letter path instead of waiting forever on
// leases nobody will release (regression: flushBatch used to record the
// outcomes and strand the leases).
func TestDrainConcurrentAckFailureTerminates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.wal")
	q, err := mq.Open(path, mq.WithMaxAttempts(3))
	if err != nil {
		t.Fatal(err)
	}
	c := newCoordinatorWithQueue(t, q)
	if _, err := c.Submit(context.Background(), "loved the Axel Hotel in Berlin", "alice"); err != nil {
		t.Fatal(err)
	}
	// Closing the WAL makes every subsequent ack append fail.
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var outs []*Outcome
	var errs []error
	go func() {
		outs, errs = drainEach(context.Background(), c, 0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("DrainEach wedged after ack failure")
	}
	if len(errs) == 0 {
		t.Fatal("ack failure not reported")
	}
	if len(outs) != 0 {
		t.Fatalf("outcomes recorded despite failed acknowledgement: %d", len(outs))
	}
	if dead := q.DeadLetters(); len(dead) != 1 {
		t.Fatalf("dead letters = %d, want 1 (redelivery exhaustion)", len(dead))
	}
	if q.Len() != 0 || q.InFlight() != 0 {
		t.Fatalf("queue not settled: pending=%d inflight=%d", q.Len(), q.InFlight())
	}
}

// emit runs on DrainEach's calling goroutine, so a consumer that panics
// is recoverable there, and the wind-down still settles every lease.
func TestDrainEachEmitPanicReachesCaller(t *testing.T) {
	c, _ := newCoordinator(t)
	c.SetWorkers(4)
	const total = 40
	for i := 0; i < total; i++ {
		if _, err := c.Submit(context.Background(), "stay at the Axel Hotel in Berlin", "u"); err != nil {
			t.Fatal(err)
		}
	}
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		c.DrainEach(context.Background(), 0, func(*Outcome, error) { panic("consumer bug") })
	}()
	if recovered != "consumer bug" {
		t.Fatalf("recovered %v, want the consumer's panic", recovered)
	}
	if n := c.queue.InFlight(); n != 0 {
		t.Fatalf("in flight after panicking consumer = %d, want 0", n)
	}
	// Nothing was lost: the next drain finishes whatever the first left.
	st := c.queue.Stats()
	outs, errs := drainEach(context.Background(), c, 0)
	if len(errs) != 0 || st.Acked+len(outs) != total {
		t.Fatalf("acked %d + redrained %d (errs %v), want %d", st.Acked, len(outs), errs, total)
	}
}
