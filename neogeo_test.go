package neogeo

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPublicAPIQuickstart exercises the README quickstart path through the
// root facade: build with options, ingest the paper's scenario, ask the
// paper's request, and read the structured answer.
func TestPublicAPIQuickstart(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sys.Close()

	ctx := context.Background()
	for i, m := range paperScenarioMessages {
		out, err := sys.Ingest(ctx, m, "user")
		if err != nil {
			t.Fatalf("Ingest #%d: %v", i+1, err)
		}
		if out == nil {
			t.Fatalf("Ingest #%d: nil outcome", i+1)
		}
		if out.Type != TypeInformative {
			t.Fatalf("Ingest #%d classified %s", i+1, out.Type)
		}
	}

	answer, err := sys.Ask(ctx, paperScenarioRequest, "asker")
	if err != nil {
		t.Fatalf("Ask: %v", err)
	}
	lower := strings.ToLower(answer.Text)
	if !strings.Contains(lower, "axel hotel") {
		t.Errorf("answer %q does not recommend Axel Hotel", answer.Text)
	}
	if !strings.Contains(lower, "berlin") {
		t.Errorf("answer %q does not mention Berlin", answer.Text)
	}
	// The structured answer exposes what the string used to flatten away.
	if !strings.Contains(answer.Query, "topk(") {
		t.Errorf("formulated query missing: %q", answer.Query)
	}
	if len(answer.Results) == 0 {
		t.Fatal("answer carries no ranked results")
	}
	top := answer.Results[0]
	if top.Certainty <= 0 || top.CondP <= 0 {
		t.Errorf("top result scores: certainty=%v condP=%v", top.Certainty, top.CondP)
	}
	if top.Fields["Hotel_Name"] == "" {
		t.Errorf("top result fields missing Hotel_Name: %v", top.Fields)
	}
	if !strings.Contains(top.XML, "Hotel_Name") {
		t.Errorf("top result XML missing document: %q", top.XML)
	}

	stats := sys.Stats()
	if stats.Collections["Hotels"] == 0 {
		t.Errorf("Stats.Collections[Hotels] = 0 after three ingests")
	}
	if stats.Queue.Acked != len(paperScenarioMessages) {
		t.Errorf("Stats.Queue.Acked = %d, want %d", stats.Queue.Acked, len(paperScenarioMessages))
	}
}

// TestPublicAPIRejectsEmpty guards the facade's input validation.
func TestPublicAPIRejectsEmpty(t *testing.T) {
	sys, err := New(WithGazetteerNames(200))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sys.Close()
	ctx := context.Background()
	if _, err := sys.Ingest(ctx, "", "user"); err == nil {
		t.Error("Ingest(\"\") succeeded, want error")
	}
}

// TestAskNotAQuestion: an informative message handed to Ask fails with
// the typed sentinel, carrying the classification the classifier saw.
func TestAskNotAQuestion(t *testing.T) {
	sys, err := New(WithGazetteerNames(200))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	_, err = sys.Ask(context.Background(), "loved the Axel Hotel in Berlin, great stay", "alice")
	if !errors.Is(err, ErrNotAQuestion) {
		t.Fatalf("err = %v, want ErrNotAQuestion", err)
	}
	var naq *NotAQuestionError
	if !errors.As(err, &naq) {
		t.Fatalf("err is %T, want *NotAQuestionError", err)
	}
	if naq.Type != TypeInformative {
		t.Errorf("classified type = %s", naq.Type)
	}
	if naq.Probability <= 0 || naq.Probability > 1 {
		t.Errorf("classification probability = %v", naq.Probability)
	}
}

// TestQueueClosed: Submit after Close fails with the typed sentinel.
func TestQueueClosed(t *testing.T) {
	sys, err := New(WithGazetteerNames(200))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), "road flooded near Lagos", "x"); !errors.Is(err, ErrQueueClosed) {
		t.Errorf("Submit after Close: err = %v, want ErrQueueClosed", err)
	}
}

// TestDrainStreams: Drain yields one outcome per submitted message as a
// streaming iterator, honours early break by cancelling the drain, and
// leaves no message stranded in flight.
func TestDrainStreams(t *testing.T) {
	sys, err := New(WithGazetteerNames(300), WithWorkers(2), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	ctx := context.Background()
	const n = 12
	for i := 0; i < n; i++ {
		msg := fmt.Sprintf("wonderful stay at the Hotel Number %d in Berlin, lovely place", i)
		if _, err := sys.Submit(ctx, msg, fmt.Sprintf("user%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	got := 0
	for out, err := range sys.Drain(ctx, 0) {
		if err != nil {
			t.Fatalf("drain error: %v", err)
		}
		if out.Type != TypeInformative {
			t.Errorf("outcome %d type = %s", got, out.Type)
		}
		got++
	}
	if got != n {
		t.Fatalf("drained %d outcomes, want %d", got, n)
	}
	st := sys.Stats()
	if st.Queue.Pending != 0 || st.Queue.InFlight != 0 {
		t.Fatalf("queue not drained: %+v", st.Queue)
	}

	// Early break: the iterator must cancel the drain and return without
	// stranding leased messages; the remainder drains on a second pass.
	for i := 0; i < n; i++ {
		msg := fmt.Sprintf("great breakfast at the Hotel Number %d in Berlin", i)
		if _, err := sys.Submit(ctx, msg, "late"); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	for _, err := range sys.Drain(ctx, 0) {
		if err != nil {
			t.Fatal(err)
		}
		seen++
		if seen == 3 {
			break
		}
	}
	if seen != 3 {
		t.Fatalf("broke after %d outcomes, want 3", seen)
	}
	// Breaking cancels the drain: messages already dispatched into the
	// pipeline complete and acknowledge (their outcomes are discarded),
	// undispatched ones stay pending — but nothing may be stranded in
	// flight, and a second drain plus the accounting must cover all 2n.
	if st := sys.Stats(); st.Queue.InFlight != 0 {
		t.Fatalf("broken drain stranded %d messages in flight", st.Queue.InFlight)
	}
	for _, err := range sys.Drain(ctx, 0) {
		if err != nil {
			t.Fatal(err)
		}
	}
	st = sys.Stats()
	if st.Queue.Pending != 0 || st.Queue.InFlight != 0 {
		t.Fatalf("queue not empty after second drain: %+v", st.Queue)
	}
	if st.Queue.Acked != 2*n {
		t.Fatalf("acked %d messages across both drains, want %d", st.Queue.Acked, 2*n)
	}
}

// TestDrainConsumerPanic: a panic in the consumer's loop body must not
// leak the pipeline or strand leased messages — the iterator's deferred
// teardown halts the drain even when the loop unwinds abnormally.
func TestDrainConsumerPanic(t *testing.T) {
	sys, err := New(WithGazetteerNames(300), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := sys.Submit(ctx, fmt.Sprintf("wonderful stay at the Hotel Number %d in Berlin", i), "u"); err != nil {
			t.Fatal(err)
		}
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate out of the drain loop")
			}
		}()
		for range sys.Drain(ctx, 0) {
			panic("consumer boom")
		}
	}()

	if st := sys.Stats(); st.Queue.InFlight != 0 {
		t.Fatalf("panicked drain stranded %d messages in flight", st.Queue.InFlight)
	}
	// The pipeline must be fully torn down: a second drain finishes the
	// remainder and empties the queue.
	for _, err := range sys.Drain(ctx, 0) {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := sys.Stats()
	if st.Queue.Pending != 0 || st.Queue.InFlight != 0 || st.Queue.Acked != n {
		t.Fatalf("queue after panic + redrain: %+v, want %d acked", st.Queue, n)
	}
}

// TestConcurrentDrainsAllReturn: several goroutines draining one system
// compete for messages and every one of them returns — each message
// comes out of exactly one of the drains. (Each dispatcher used to wait
// on the queue-wide in-flight count while being woken only by its own
// lanes, so concurrent drains hung.) Run with -race.
func TestConcurrentDrainsAllReturn(t *testing.T) {
	sys, err := New(WithGazetteerNames(300), WithWorkers(2), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	const drainers, n = 4, 400
	for i := 0; i < n; i++ {
		msg := fmt.Sprintf("wonderful stay at the Hotel Number %d in Berlin, lovely place", i)
		if _, err := sys.Submit(ctx, msg, fmt.Sprintf("user%d", i%9)); err != nil {
			t.Fatal(err)
		}
	}

	counts := make([]int, drainers)
	var wg sync.WaitGroup
	for d := 0; d < drainers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for _, err := range sys.Drain(ctx, 0) {
				if err != nil {
					t.Errorf("drainer %d: %v", d, err)
				}
				counts[d]++
			}
		}(d)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent drains did not all return")
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("drains yielded %d outcomes (%v), want %d", total, counts, n)
	}
	if st := sys.Stats(); st.Queue.Pending != 0 || st.Queue.InFlight != 0 || st.Queue.Acked != n {
		t.Fatalf("queue after concurrent drains: %+v, want %d acked", st.Queue, n)
	}
}

// TestNewWithOptions: functional options are the one way to configure
// construction, and what they set reaches the built system.
func TestNewWithOptions(t *testing.T) {
	sys, err := New(WithGazetteerNames(300), WithShards(2), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	if _, err := sys.Ingest(ctx, "loved the Axel Hotel in Berlin, great stay", "alice"); err != nil {
		t.Fatal(err)
	}
	if st := sys.Stats(); st.Shards != 2 {
		t.Errorf("Shards = %d, want 2", st.Shards)
	}
}

// TestFacadeSnapshotRoundTrip: a sharded system survives Snapshot/Restore
// through the facade with byte-identical Ask answers.
func TestFacadeSnapshotRoundTrip(t *testing.T) {
	build := func() *System {
		sys, err := New(WithGazetteerNames(300), WithShards(4), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sys.Close() })
		return sys
	}
	sys := build()
	ctx := context.Background()
	for i, m := range paperScenarioMessages {
		if _, err := sys.Ingest(ctx, m, fmt.Sprintf("user%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var img bytes.Buffer
	if err := sys.Snapshot(&img); err != nil {
		t.Fatal(err)
	}
	fresh := build()
	if err := fresh.Restore(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	want, err := sys.Ask(ctx, paperScenarioRequest, "asker")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Ask(ctx, paperScenarioRequest, "asker")
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != want.Text {
		t.Errorf("restored answer diverges:\n original: %s\n restored: %s", want.Text, got.Text)
	}
}
