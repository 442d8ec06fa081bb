package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/feedback"
	"repro/internal/geo"
	"repro/internal/qa"
	"repro/internal/readpath"
)

// renderAnswer serialises an answer deterministically so two systems'
// replies can be compared byte for byte: text, query, and every ranked
// record's identity and scores.
func renderAnswer(ans *qa.Answer) string {
	var b strings.Builder
	fmt.Fprintf(&b, "text=%s\nquery=%s\n", ans.Text, ans.Query)
	for _, r := range ans.Results {
		fmt.Fprintf(&b, "id=%d score=%.9f condp=%.9f\n", r.Record.ID, r.Score, r.CondP)
	}
	return b.String()
}

// TestCachedAskMatchesUncached is the hot read path's differential
// acceptance test: a cached system must answer byte-identically to an
// uncached twin at every point of an interleaved write / feedback /
// decay history — a cache hit is allowed to save work, never to change
// an answer.
func TestCachedAskMatchesUncached(t *testing.T) {
	newSys := func(cache int) *System {
		s, err := New(Config{
			GazetteerNames: 300,
			GazetteerSeed:  2011,
			Shards:         4,
			AnswerCache:    cache,
			Clock:          func() time.Time { return t0 },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	}
	plain, cached := newSys(0), newSys(64)
	if plain.Cache != nil || cached.Cache == nil {
		t.Fatalf("cache wiring: plain=%v cached=%v", plain.Cache, cached.Cache)
	}

	stream := shardScenarioStream()
	feed := func(msgs []string) {
		for i, m := range msgs {
			src := fmt.Sprintf("user%d", i%7)
			for _, s := range []*System{plain, cached} {
				if _, err := s.Submit(context.Background(), m, src); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, s := range []*System{plain, cached} {
			if _, errs := drainSequential(s); len(errs) != 0 {
				t.Fatalf("drain errors: %v", errs)
			}
		}
	}
	// compare asks every question on both systems — the cached one
	// twice, so both the fill path and the hit path are checked against
	// the uncached truth.
	compare := func(phase string) {
		t.Helper()
		for _, q := range shardScenarioQuestions {
			want, err := plain.Ask(context.Background(), q, "asker")
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				got, err := cached.Ask(context.Background(), q, "asker")
				if err != nil {
					t.Fatal(err)
				}
				if g, w := renderAnswer(got), renderAnswer(want); g != w {
					t.Fatalf("%s pass %d: cached answer diverges for %q:\n--- cached ---\n%s--- uncached ---\n%s",
						phase, pass, q, g, w)
				}
			}
		}
	}

	// Phase 1: half the stream, then asks (second pass hits the cache).
	feed(stream[:len(stream)/2])
	compare("after first half")

	// Phase 2: the rest of the writes — every cached answer whose plan
	// touches a written shard must invalidate, not serve the old state.
	feed(stream[len(stream)/2:])
	compare("after second half")

	// Phase 3: feedback. Reject the top Berlin result on both systems;
	// the apply mutates certainty out of band of integration.
	ans, err := plain.Ask(context.Background(), shardScenarioQuestions[0], "asker")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) == 0 {
		t.Fatal("no results to give feedback on")
	}
	rec := ans.Results[0].Record.ID
	for _, s := range []*System{plain, cached} {
		if _, err := s.Feedback.Submit(feedback.Verdict{RecordID: rec, Kind: feedback.KindReject, Source: "carol"}); err != nil {
			t.Fatal(err)
		}
		if n := s.Feedback.Flush(); n != 1 {
			t.Fatalf("flush applied %d verdicts, want 1", n)
		}
	}
	compare("after feedback")

	// Phase 4: decay, the ageing loop's out-of-band certainty mutation.
	later := t0.Add(90 * 24 * time.Hour)
	for _, s := range []*System{plain, cached} {
		if _, _, err := s.DecayAll(later, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	compare("after decay")

	st := cached.Cache.Stats()
	if st.Hits == 0 {
		t.Errorf("cache never hit: %+v", st)
	}
	if st.Invalidations == 0 {
		t.Errorf("cache never invalidated despite interleaved writes: %+v", st)
	}
}

// TestDecayInvalidatesCachedAnswer pins the ageing-loop regression: the
// decay path mutates certainty (and deletes records) outside the
// integration lanes, and a cached answer must never survive a decay
// that removed its records.
func TestDecayInvalidatesCachedAnswer(t *testing.T) {
	sys, err := New(Config{
		GazetteerNames: 300,
		GazetteerSeed:  2011,
		AnswerCache:    16,
		Clock:          func() time.Time { return t0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	if _, err := sys.Ingest(context.Background(), "wonderful stay at the Axel Hotel in Berlin, lovely place", "alice"); err != nil {
		t.Fatal(err)
	}
	const q = "can anyone recommend a good hotel in Berlin?"
	ans, err := sys.Ask(context.Background(), q, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) == 0 {
		t.Fatalf("expected the hotel in the answer, got %q", ans.Text)
	}
	// Second ask is served from the cache.
	if _, err := sys.Ask(context.Background(), q, "bob"); err != nil {
		t.Fatal(err)
	}
	if st := sys.Cache.Stats(); st.Hits == 0 {
		t.Fatalf("second ask did not hit the cache: %+v", st)
	}

	// Decay far into the future with a floor above anything a single
	// unconfirmed report can retain: the record is deleted.
	if _, deleted, err := sys.DecayAll(t0.Add(10*365*24*time.Hour), 0.99); err != nil {
		t.Fatal(err)
	} else if deleted == 0 {
		t.Fatal("decay deleted nothing; the scenario no longer exercises the regression")
	}
	if n := sys.Store.Len("Hotels"); n != 0 {
		t.Fatalf("store still holds %d hotels after decay", n)
	}

	// The cached answer's shard moved: this ask MUST recompute and see
	// the empty store, not replay the pre-decay reply.
	after, err := sys.Ask(context.Background(), q, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Results) != 0 {
		t.Fatalf("ask after decay served a stale cached answer: %q (%d results)", after.Text, len(after.Results))
	}
	if st := sys.Cache.Stats(); st.Invalidations == 0 {
		t.Fatalf("decay did not invalidate the cached answer: %+v", st)
	}
}

// TestStandingQueryStreamsCommits drives the full standing-query loop
// at the core layer: a key subscription observes its entity's insert,
// its merge, and a feedback confirmation, and nothing from other
// entities.
func TestStandingQueryStreamsCommits(t *testing.T) {
	sys, err := New(Config{
		GazetteerNames: 300,
		GazetteerSeed:  2011,
		Shards:         4,
		Clock:          func() time.Time { return t0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	id, err := sys.Broker.Subscribe(readpath.Subscription{Collection: "Hotels", Key: "Axel Hotel"})
	if err != nil {
		t.Fatal(err)
	}
	events, release, err := sys.Broker.Attach(id)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	next := func(wantAction string) readpath.Event {
		t.Helper()
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("event stream closed early")
			}
			if ev.Action != wantAction {
				t.Fatalf("event action = %q, want %q (event %+v)", ev.Action, wantAction, ev)
			}
			return ev
		case <-time.After(5 * time.Second):
			t.Fatalf("no %q event arrived", wantAction)
		}
		return readpath.Event{}
	}

	if _, err := sys.Ingest(context.Background(), "wonderful stay at the Axel Hotel in Berlin, lovely place", "alice"); err != nil {
		t.Fatal(err)
	}
	ins := next("inserted")
	if ins.Collection != "Hotels" || ins.RecordID == 0 {
		t.Fatalf("bad insert event: %+v", ins)
	}
	if ins.Fields["Hotel_Name"] != "Axel Hotel" {
		t.Fatalf("insert event fields = %v", ins.Fields)
	}

	// A report about a different entity must not reach this stream; the
	// following merge event proves it was not just delayed.
	if _, err := sys.Ingest(context.Background(), "lovely dinner at the Movenpick Hotel in Berlin", "carol"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Ingest(context.Background(), "the Axel Hotel in Berlin was great value", "dave"); err != nil {
		t.Fatal(err)
	}
	mrg := next("merged")
	if mrg.RecordID != ins.RecordID {
		t.Fatalf("merge event record %d, want %d", mrg.RecordID, ins.RecordID)
	}

	if _, err := sys.Feedback.Submit(feedback.Verdict{RecordID: ins.RecordID, Kind: feedback.KindConfirm, Source: "erin"}); err != nil {
		t.Fatal(err)
	}
	if n := sys.Feedback.Flush(); n != 1 {
		t.Fatalf("flush applied %d, want 1", n)
	}
	conf := next("confirmed")
	if conf.Certainty <= mrg.Certainty {
		t.Errorf("confirmation did not raise certainty: %v -> %v", mrg.Certainty, conf.Certainty)
	}

	if err := sys.Broker.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-events; ok {
		t.Fatal("stream still open after unsubscribe")
	}
}

// TestSubscribeWhileDrainingRace hammers subscription churn against a
// live concurrent drain (run with -race): registrations, cancellations
// and stream reads race integration publishes without tripping the
// detector or deadlocking a lane.
func TestSubscribeWhileDrainingRace(t *testing.T) {
	sys, err := New(Config{
		GazetteerNames: 300,
		GazetteerSeed:  2011,
		Shards:         4,
		Workers:        4,
		Clock:          func() time.Time { return t0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	stream := shardScenarioStream()
	for round := 0; round < 6; round++ {
		for i, m := range stream {
			if _, err := sys.Submit(context.Background(), m, fmt.Sprintf("user%d", i%7)); err != nil {
				t.Fatal(err)
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				spec := readpath.Subscription{Collection: "Hotels", Key: "Axel Hotel"}
				if w%2 == 1 {
					spec = readpath.Subscription{Center: &geo.Point{Lat: 52.5, Lon: 13.4}, RadiusMeters: 250_000}
				}
				id, err := sys.Broker.Subscribe(spec)
				if err != nil {
					t.Error(err)
					return
				}
				if events, release, err := sys.Broker.Attach(id); err == nil {
					// Drain whatever arrived, then let go.
					for i := 0; i < 4; i++ {
						select {
						case <-events:
						default:
						}
					}
					release()
				}
				if err := sys.Broker.Unsubscribe(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	if _, errs := drainPipeline(sys); len(errs) != 0 {
		t.Fatalf("drain errors: %v", errs)
	}
	close(stop)
	wg.Wait()

	if got := sys.Broker.Stats().Active; got != 0 {
		t.Fatalf("subscriptions leaked: %d still active", got)
	}
}
