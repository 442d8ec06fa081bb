package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/xmldb"
)

// shardScenarioStream is a tourism stream over distinct hotels with
// different report counts, so every record ends at a distinct certainty
// and answer ranking has no score ties to hide behind.
func shardScenarioStream() []string {
	hotels := []struct {
		name, city string
		reports    int
	}{
		{"Axel Hotel", "Berlin", 4},
		{"Movenpick Hotel", "Berlin", 3},
		{"Royal Gate Hotel", "Paris", 2},
		{"Essex House Hotel", "Paris", 5},
		{"Harbour Lodge Hotel", "Nairobi", 1},
		{"Kestrel Springs Hotel", "Nairobi", 6},
		{"Opal Terrace Hotel", "Tokyo", 2},
		{"Paragon Villa Hotel", "Tokyo", 3},
	}
	var stream []string
	for _, h := range hotels {
		for r := 0; r < h.reports; r++ {
			stream = append(stream, fmt.Sprintf(
				"wonderful stay at the %s in %s, lovely place", h.name, h.city))
		}
	}
	return stream
}

var shardScenarioQuestions = []string{
	"can anyone recommend a good hotel in Berlin?",
	"can anyone recommend a good hotel in Paris?",
	"can anyone recommend a good hotel in Nairobi?",
	"any good hotel in Tokyo?",
}

// TestShardedAskMatchesSingleStore is the differential acceptance test:
// the same tourism stream channelled into a 1-shard and a 4-shard
// system, drained deterministically, must produce byte-identical QA
// answers — sharding is a throughput decision, never a semantics one.
func TestShardedAskMatchesSingleStore(t *testing.T) {
	newSys := func(shards int) *System {
		s, err := New(Config{
			GazetteerNames: 300,
			GazetteerSeed:  2011,
			Shards:         shards,
			Clock:          func() time.Time { return t0 },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	}
	single, sharded := newSys(1), newSys(4)
	if sharded.Store.NumShards() != 4 {
		t.Fatalf("sharded store has %d shards", sharded.Store.NumShards())
	}

	for i, m := range shardScenarioStream() {
		src := fmt.Sprintf("user%d", i%7)
		if _, err := single.Submit(context.Background(), m, src); err != nil {
			t.Fatal(err)
		}
		if _, err := sharded.Submit(context.Background(), m, src); err != nil {
			t.Fatal(err)
		}
	}
	if _, errs := drainSequential(single); len(errs) != 0 {
		t.Fatalf("single drain errors: %v", errs)
	}
	if _, errs := drainSequential(sharded); len(errs) != 0 {
		t.Fatalf("sharded drain errors: %v", errs)
	}

	if got, want := sharded.Store.Len("Hotels"), single.Store.Len("Hotels"); got != want {
		t.Fatalf("Hotels: sharded=%d single=%d", got, want)
	}
	balance := sharded.Store.Balance()
	spread := 0
	for _, n := range balance {
		if n > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("degenerate placement, balance = %v", balance)
	}

	for _, q := range shardScenarioQuestions {
		wantAns, err := single.Ask(context.Background(), q, "asker")
		if err != nil {
			t.Fatal(err)
		}
		gotAns, err := sharded.Ask(context.Background(), q, "asker")
		if err != nil {
			t.Fatal(err)
		}
		if gotAns.Text != wantAns.Text {
			t.Errorf("answers diverge for %q:\n single: %s\nsharded: %s", q, wantAns.Text, gotAns.Text)
		}
		if !strings.Contains(gotAns.Text, "Hotel") {
			t.Errorf("uninformative answer for %q: %s", q, gotAns.Text)
		}
	}
}

// TestShardedConcurrentDrain runs the full concurrent pipeline with
// per-shard integration lanes (run with -race): same stored state as the
// single-store drain, queue fully drained, every lane's shard reachable
// through the fan-out reads.
func TestShardedConcurrentDrain(t *testing.T) {
	stream := shardScenarioStream()
	for i := 0; i < 10; i++ {
		stream = append(stream, "can anyone recommend a good hotel?")
	}

	single, err := New(Config{GazetteerNames: 300, Workers: 1, Clock: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sharded, err := New(Config{
		GazetteerNames: 300,
		Workers:        4,
		Shards:         4,
		Clock:          func() time.Time { return t0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	for i, m := range stream {
		src := fmt.Sprintf("user%d", i%5)
		if _, err := single.Submit(context.Background(), m, src); err != nil {
			t.Fatal(err)
		}
		if _, err := sharded.Submit(context.Background(), m, src); err != nil {
			t.Fatal(err)
		}
	}
	wantOuts, errs := drainSequential(single)
	if len(errs) != 0 {
		t.Fatalf("single drain errors: %v", errs)
	}
	gotOuts, errs := drainPipeline(sharded)
	if len(errs) != 0 {
		t.Fatalf("sharded drain errors: %v", errs)
	}
	if len(gotOuts) != len(wantOuts) {
		t.Fatalf("outcomes: sharded=%d single=%d", len(gotOuts), len(wantOuts))
	}
	if got, want := sharded.Store.Len("Hotels"), single.Store.Len("Hotels"); got != want {
		t.Fatalf("Hotels: sharded=%d single=%d", got, want)
	}
	if sharded.Queue.Len() != 0 || sharded.Queue.InFlight() != 0 {
		t.Fatalf("queue not drained: len=%d inflight=%d", sharded.Queue.Len(), sharded.Queue.InFlight())
	}
	qs := sharded.Queue.Stats()
	if qs.Acked != len(stream) || qs.DeadLettered != 0 {
		t.Fatalf("queue stats = %+v, want %d acked", qs, len(stream))
	}

	st := sharded.Stats()
	if st.Shards != 4 || len(st.ShardRecords) != 4 {
		t.Fatalf("stats shards = %d (%v)", st.Shards, st.ShardRecords)
	}
	total := 0
	for _, n := range st.ShardRecords {
		total += n
	}
	if total != sharded.Store.Len("Hotels") {
		t.Fatalf("shard records %v sum to %d, store has %d", st.ShardRecords, total, sharded.Store.Len("Hotels"))
	}
}

// TestShardedSnapshotRoundTrip: a 4-shard tourism store survives
// Snapshot/Restore into a fresh 4-shard system with byte-identical Ask
// answers, a matching per-shard balance, and working post-restore
// inserts (the ID sequences stay strided). Restoring into a mismatched
// shard count is refused before any shard is touched.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	newSys := func(shards int) *System {
		s, err := New(Config{GazetteerNames: 300, Shards: shards, Clock: func() time.Time { return t0 }})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	}
	sys := newSys(4)
	for i, m := range shardScenarioStream() {
		if _, err := sys.Ingest(context.Background(), m, fmt.Sprintf("user%d", i%7)); err != nil {
			t.Fatal(err)
		}
	}

	var img bytes.Buffer
	if err := sys.Snapshot(&img); err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	fresh := newSys(4)
	if err := fresh.Restore(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got, want := fmt.Sprint(fresh.Store.Balance()), fmt.Sprint(sys.Store.Balance()); got != want {
		t.Fatalf("restored balance %s, want %s", got, want)
	}
	for _, q := range shardScenarioQuestions {
		want, err := sys.Ask(context.Background(), q, "asker")
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.Ask(context.Background(), q, "asker")
		if err != nil {
			t.Fatal(err)
		}
		if got.Text != want.Text || got.Query != want.Query {
			t.Errorf("restored answer diverges for %q:\n original: %s\n restored: %s", q, want.Text, got.Text)
		}
	}

	// Post-restore inserts must keep strided, globally unique IDs.
	if _, err := fresh.Ingest(context.Background(), "wonderful stay at the Gilded Manor Hotel in Berlin, lovely place", "late"); err != nil {
		t.Fatalf("post-restore ingest: %v", err)
	}
	seen := make(map[int64]bool)
	for i := 0; i < fresh.Store.NumShards(); i++ {
		db := fresh.Store.Shard(i)
		for _, coll := range db.Collections() {
			db.Each(coll, func(rec *xmldb.Record) bool {
				if seen[rec.ID] {
					t.Errorf("duplicate record ID %d after restore", rec.ID)
				}
				seen[rec.ID] = true
				if fresh.Store.ShardFor(rec.ID) != i {
					t.Errorf("record %d stored on shard %d, home shard %d", rec.ID, i, fresh.Store.ShardFor(rec.ID))
				}
				return true
			})
		}
	}

	mismatched := newSys(2)
	if err := mismatched.Restore(bytes.NewReader(img.Bytes())); err == nil {
		t.Error("restore into a 2-shard store accepted a 4-shard snapshot")
	} else if !strings.Contains(err.Error(), "4 shard") {
		t.Errorf("mismatch error does not name the counts: %v", err)
	}
}
