package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/coordinator"
	"repro/internal/extract"
	"repro/internal/xmldb"
)

var t0 = time.Date(2011, 4, 1, 9, 0, 0, 0, time.UTC)

// drainSequential drains the queue through the deterministic reference
// engine — MC.ProcessOne in queue order. Every differential test that
// needs byte-equal stores drains through it: the pipeline's stored
// certainties depend on how extraction and integration interleave.
func drainSequential(s *System) (outs []*coordinator.Outcome, errs []error) {
	for {
		out, ok, err := s.MC.ProcessOne(context.Background())
		switch {
		case !ok:
			return outs, errs
		case err != nil:
			errs = append(errs, err)
		default:
			outs = append(outs, out)
		}
	}
}

// drainPipeline collects one MC.DrainEach stream, in completion order.
func drainPipeline(s *System) (outs []*coordinator.Outcome, errs []error) {
	s.MC.DrainEach(context.Background(), 0, func(out *coordinator.Outcome, err error) {
		if err != nil {
			errs = append(errs, err)
			return
		}
		outs = append(outs, out)
	})
	return outs, errs
}

func newSystem(t *testing.T) *System {
	t.Helper()
	s, err := New(Config{
		GazetteerNames: 300,
		GazetteerSeed:  2011,
		Clock:          func() time.Time { return t0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestPaperScenarioEndToEnd replays the paper's §"Example of a possible
// scenario" through the whole Figure 3 architecture.
func TestPaperScenarioEndToEnd(t *testing.T) {
	s := newSystem(t)
	messages := []string{
		"berlin has some nice hotels i just loved the hetero friendly love that word Axel Hotel in Berlin.",
		"Good morning Berlin. The sun is out!!!! Very impressed by the customer service at #movenpick hotel in berlin. Well done guys!",
		"In Berlin hotel room, nice enough, weather grim however",
	}
	for i, m := range messages {
		out, err := s.Ingest(context.Background(), m, "user"+string(rune('1'+i)))
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if out.Type != "informative" {
			t.Fatalf("message %d classified %s", i, out.Type)
		}
		if out.Inserted+out.Merged == 0 {
			t.Fatalf("message %d produced no integration", i)
		}
	}
	if got := s.Store.Shard(0).Len("Hotels"); got != 3 {
		t.Fatalf("Hotels records = %d, want 3 distinct hotels", got)
	}
	answer, err := s.Ask(context.Background(), "Can anyone recommend a good, but not ridiculously expensive hotel right in the middle of Berlin?", "asker")
	if err != nil {
		t.Fatal(err)
	}
	// The paper's expected answer: "Some good hotels in Berlin are Axel
	// Hotel, movenpick hotel, Berlin hotel."
	low := strings.ToLower(answer.Text)
	for _, h := range []string{"axel hotel", "movenpick hotel", "berlin hotel"} {
		if !strings.Contains(low, h) {
			t.Errorf("answer missing %q: %s", h, answer.Text)
		}
	}
	if !strings.HasPrefix(answer.Text, "Some good ") {
		t.Errorf("answer phrasing: %s", answer.Text)
	}
	if answer.Query == "" || len(answer.Results) == 0 {
		t.Errorf("structured answer incomplete: query=%q results=%d", answer.Query, len(answer.Results))
	}
}

func TestAskOnInformative(t *testing.T) {
	s := newSystem(t)
	_, err := s.Ask(context.Background(), "loved the Axel Hotel in Berlin", "x")
	if err == nil {
		t.Fatal("informative message accepted as question")
	}
	var naq *coordinator.NotAQuestionError
	if !errors.As(err, &naq) {
		t.Fatalf("error is %T, want *coordinator.NotAQuestionError", err)
	}
	if naq.Type != extract.TypeInformative {
		t.Errorf("classified type = %s", naq.Type)
	}
	if naq.TypeP <= 0 || naq.TypeP > 1 {
		t.Errorf("classification probability = %v", naq.TypeP)
	}
	// The ask path is read-only: nothing may have been enqueued or stored.
	if s.Queue.Len() != 0 || s.Queue.InFlight() != 0 {
		t.Errorf("ask touched the queue: len=%d inflight=%d", s.Queue.Len(), s.Queue.InFlight())
	}
}

func TestSubmitProcessBatch(t *testing.T) {
	s := newSystem(t)
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(context.Background(), "great stay at the Royal Gate Hotel in Paris", "u"); err != nil {
			t.Fatal(err)
		}
	}
	outs, errs := drainSequential(s)
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	if len(outs) != 4 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	// All four messages merged into one hotel record.
	if got := s.Store.Shard(0).Len("Hotels"); got != 1 {
		t.Errorf("Hotels = %d, want 1 merged record", got)
	}
}

func TestStats(t *testing.T) {
	s := newSystem(t)
	if _, err := s.Ingest(context.Background(), "lovely stay at hotel Sonne in Berlin", "u"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.GazetteerEntries == 0 || st.GazetteerNames == 0 {
		t.Error("empty gazetteer stats")
	}
	if st.Collections["Hotels"] != 1 {
		t.Errorf("collections = %v", st.Collections)
	}
	if s.Queue.Len() != 0 || s.Queue.InFlight() != 0 {
		t.Errorf("queue stats = %+v", st)
	}
}

func TestDecayAll(t *testing.T) {
	s := newSystem(t)
	if _, err := s.Ingest(context.Background(), "nice stay at the Garden Rose Inn in Rome", "u"); err != nil {
		t.Fatal(err)
	}
	later := t0.Add(400 * 24 * time.Hour)
	s.Store.Shard(0).SetClock(func() time.Time { return later })
	decayed, deleted, err := s.DecayAll(later, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if decayed != 1 || deleted != 0 {
		t.Errorf("decayed=%d deleted=%d", decayed, deleted)
	}
}

func TestQueueWALPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.wal")
	s, err := New(Config{GazetteerNames: 100, QueueWAL: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), "unprocessed message about the Star Crown Hotel in Madrid", "u"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A restarted system picks the message back up.
	s2, err := New(Config{GazetteerNames: 100, QueueWAL: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Queue.Len() != 1 {
		t.Fatalf("recovered queue len = %d", s2.Queue.Len())
	}
	outs, errs := drainSequential(s2)
	if len(errs) != 0 || len(outs) != 1 {
		t.Fatalf("recovered processing: %d outs, %v", len(outs), errs)
	}
}

func TestTrafficAndFarmingFlows(t *testing.T) {
	s := newSystem(t)
	if _, err := s.Ingest(context.Background(), "huge traffic jam in Nairobi after the accident, road blocked", "driver"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(context.Background(), "locust swarm near Cairo moving south, maize fields at risk", "farmer"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Collections["RoadReports"] != 1 {
		t.Errorf("RoadReports = %d", st.Collections["RoadReports"])
	}
	if st.Collections["FarmReports"] != 1 {
		t.Errorf("FarmReports = %d", st.Collections["FarmReports"])
	}
	ans, err := s.Ask(context.Background(), "any traffic in Nairobi this morning?", "asker")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.ToLower(ans.Text), "nairobi") {
		t.Errorf("traffic answer = %q", ans.Text)
	}
}

// TestSystemSnapshotRestore: knowledge accumulated in one system survives
// into a fresh one via Snapshot/Restore, and the QA service answers from
// the restored state.
func TestSystemSnapshotRestore(t *testing.T) {
	sys, err := New(Config{GazetteerNames: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, m := range []string{
		"loved the Axel Hotel in Berlin, great stay",
		"Very impressed by the movenpick hotel in berlin!",
	} {
		if _, err := sys.Ingest(context.Background(), m, "u"); err != nil {
			t.Fatal(err)
		}
	}

	var img bytes.Buffer
	if err := sys.Snapshot(&img); err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	fresh, err := New(Config{Gazetteer: sys.Gaz})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.Restore(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got, want := fresh.Stats().Collections["Hotels"], sys.Stats().Collections["Hotels"]; got != want {
		t.Fatalf("restored %d hotel records, want %d", got, want)
	}
	answer, err := fresh.Ask(context.Background(), "can anyone recommend a good hotel in Berlin?", "asker")
	if err != nil {
		t.Fatal(err)
	}
	low := strings.ToLower(answer.Text)
	if !strings.Contains(low, "axel hotel") || !strings.Contains(low, "movenpick") {
		t.Errorf("restored system answer = %q", answer.Text)
	}
}

// TestEssexHousePriceConflict replays the paper's §Q2 uncertainty
// discussion verbatim: two tweets naming the same hotel with different
// surface forms and contradicting minimum prices. The system must resolve
// them to one record (duplicate detection across name variants) and settle
// the Price conflict rather than storing both.
func TestEssexHousePriceConflict(t *testing.T) {
	sys := newSystem(t)
	defer sys.Close()

	out1, err := sys.Ingest(context.Background(), "Essex House Hotel and Suites from $154 USD", "pricebot1")
	if err != nil {
		t.Fatal(err)
	}
	if out1 == nil || out1.Inserted != 1 {
		t.Fatalf("first tweet: outcome %+v, want one insert", out1)
	}
	out2, err := sys.Ingest(context.Background(), "Essex House Hotel and Suites from $123 USD: Surrounded by clubs and designer", "pricebot2")
	if err != nil {
		t.Fatal(err)
	}
	if out2 == nil || out2.Merged != 1 {
		t.Fatalf("second tweet: outcome %+v, want a merge into the existing record", out2)
	}
	if n := sys.Stats().Collections["Hotels"]; n != 1 {
		t.Fatalf("expected one merged Essex House record, got %d", n)
	}

	// The stored record carries exactly one resolved price — the
	// contradiction must be settled, not duplicated.
	var price string
	sys.Store.Shard(0).Each("Hotels", func(rec *xmldb.Record) bool {
		if n, _ := rec.Doc.FirstChild("Price"); n != nil {
			price = n.TextContent()
		}
		return true
	})
	if price != "154" && price != "123" {
		t.Errorf("stored price = %q, want one of the two reported values", price)
	}
}

// TestConcurrentIngestAsk hammers the system from multiple goroutines —
// contributions and questions interleaved — relying on the race detector
// to catch unsynchronised access anywhere in the pipeline.
func TestConcurrentIngestAsk(t *testing.T) {
	sys := newSystem(t)
	defer sys.Close()

	msgs := []string{
		"loved the Axel Hotel in Berlin, great stay",
		"the movenpick hotel in berlin was wonderful",
		"terrible service at the Spree Hotel in Berlin",
		"Essex House Hotel and Suites from $154 USD",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := sys.Ingest(context.Background(), msgs[(w+i)%len(msgs)], fmt.Sprintf("w%d", w)); err != nil {
					errs <- fmt.Errorf("ingest: %w", err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := sys.Ask(context.Background(), "any good hotels in Berlin?", "asker"); err != nil {
					errs <- fmt.Errorf("ask: %w", err)
					return
				}
				_ = sys.Stats()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTrustModelPrior: an unseen source starts at the 0.6 prior, and the
// system's one trust model is the one its checkpoint image carries.
func TestTrustModelPrior(t *testing.T) {
	if r := NewTrustModel().Reliability("anyone"); r != 0.6 {
		t.Fatalf("prior reliability = %v, want 0.6", r)
	}
	sys, err := New(Config{GazetteerNames: 300, Clock: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Trust.Contradict("troll")
	if got := sys.image().trust.Reliability("troll"); got >= 0.6 {
		t.Errorf("checkpointed trust did not see the contradiction: %v", got)
	}
}
