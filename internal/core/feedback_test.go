package core

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/feedback"
	"repro/internal/shard"
	"repro/internal/xmldb"
)

// findRecordByHotel locates a record's ID by its Hotel_Name text —
// record IDs differ between shard layouts, so cross-layout tests
// identify records semantically.
func findRecordByHotel(t *testing.T, s *System, name string) int64 {
	t.Helper()
	var id int64 = -1
	for i := 0; i < s.Store.NumShards() && id < 0; i++ {
		s.Store.Shard(i).Each("Hotels", func(rec *xmldb.Record) bool {
			n, _ := rec.Doc.FirstChild("Hotel_Name")
			if n != nil && n.TextContent() == name {
				id = rec.ID
				return false
			}
			return true
		})
	}
	if id < 0 {
		t.Fatalf("no record for hotel %q", name)
	}
	return id
}

// TestShardedFeedbackMatchesSingleStore is the feedback counterpart of
// TestShardedAskMatchesSingleStore: the same verdicts applied to the
// same records on a 1-shard and a 4-shard system must produce
// byte-identical QA answers — feedback routing by strided record ID is
// a throughput decision, never a semantics one.
func TestShardedFeedbackMatchesSingleStore(t *testing.T) {
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

	// The same semantic verdicts, addressed per system by record ID.
	verdicts := []struct {
		hotel  string
		kind   feedback.Kind
		field  string
		value  string
		source string
	}{
		{"Essex House Hotel", feedback.KindReject, "", "", "judge1"},
		{"Essex House Hotel", feedback.KindReject, "", "", "judge2"},
		{"Essex House Hotel", feedback.KindReject, "", "", "judge7"},
		{"Royal Gate Hotel", feedback.KindConfirm, "", "", "judge3"},
		{"Royal Gate Hotel", feedback.KindConfirm, "", "", "judge8"},
		{"Harbour Lodge", feedback.KindConfirm, "", "", "judge4"},
		{"Harbour Lodge", feedback.KindConfirm, "", "", "judge5"},
		{"Axel Hotel", feedback.KindCorrect, "Price", "129", "judge6"},
	}
	for _, sys := range []*System{single, sharded} {
		for _, v := range verdicts {
			id := findRecordByHotel(t, sys, v.hotel)
			if _, err := sys.Feedback.Submit(feedback.Verdict{
				RecordID: id, Kind: v.kind, Field: v.field, Value: v.value, Source: v.source,
			}); err != nil {
				t.Fatalf("feedback %q on %q: %v", v.kind, v.hotel, err)
			}
		}
		if n := sys.Feedback.Flush(); n != len(verdicts) {
			t.Fatalf("applied %d verdicts, want %d", n, len(verdicts))
		}
	}

	sg, sh := single.Feedback.Stats(), sharded.Feedback.Stats()
	if sg.Applied != sh.Applied || sg.Confirmed != sh.Confirmed ||
		sg.Rejected != sh.Rejected || sg.Corrected != sh.Corrected {
		t.Fatalf("feedback stats diverge: single %+v, sharded %+v", sg, sh)
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
			t.Errorf("answers diverge after feedback for %q:\n single: %s\nsharded: %s", q, wantAns.Text, gotAns.Text)
		}
	}

	// The verdicts had observable effect: the rejected Essex House (5
	// reports, previously the Paris leader) no longer tops the Paris
	// ranking in either system.
	ans, err := single.Ask(context.Background(), "can anyone recommend a good hotel in Paris?", "asker")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) == 0 {
		t.Fatal("no Paris results after feedback")
	}
	if n, _ := ans.Results[0].Record.Doc.FirstChild("Hotel_Name"); n != nil && n.TextContent() == "Essex House Hotel" {
		t.Errorf("two rejects did not demote the Paris leader: %s", ans.Text)
	}
}

// TestLearnedStateSurvivesRestart pins the satellite bugfix: learned
// source reliability (and the feedback engine's reinforcement priors)
// used to silently reset to defaults on every restart because the
// checkpoint only carried the store. Now the composite image restores
// them at boot.
func TestLearnedStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	dataDir, wal := filepath.Join(dir, "data"), filepath.Join(dir, "queue.wal")
	build := func() *System {
		s, err := New(Config{
			GazetteerNames: 300,
			GazetteerSeed:  2011,
			Workers:        1,
			DataDir:        dataDir,
			QueueWAL:       wal,
			Clock:          func() time.Time { return t0 },
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	sys := build()
	// Trust evolves two ways: duplicate reports corroborate each other
	// (integration feedback), and a user verdict confirms a record
	// (feedback engine).
	report := "wonderful stay at the Axel Hotel in Berlin, lovely place"
	for i, src := range []string{"alice", "bob"} {
		if _, err := sys.Ingest(context.Background(), report, src); err != nil {
			t.Fatalf("ingest #%d: %v", i, err)
		}
	}
	id := findRecordByHotel(t, sys, "Axel Hotel")
	if _, err := sys.Feedback.Submit(feedback.Verdict{RecordID: id, Kind: feedback.KindConfirm, Source: "carol"}); err != nil {
		t.Fatal(err)
	}
	if n := sys.Feedback.Flush(); n != 1 {
		t.Fatalf("applied %d, want 1", n)
	}
	wantTrust := sys.Trust.Report()
	if len(wantTrust) == 0 {
		t.Fatal("no trust evolved — the fixture is inert")
	}
	wantPriors := sys.Priors.ExportState()
	if len(wantPriors) == 0 {
		t.Fatal("no priors learned — the confirm did not reinforce")
	}
	wantSeq := sys.Feedback.Stats().AppliedSeq
	if _, err := sys.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	restarted := build()
	defer restarted.Close()
	gotTrust := restarted.Trust.Report()
	if !reflect.DeepEqual(gotTrust, wantTrust) {
		t.Errorf("trust after restart = %+v\nwant %+v", gotTrust, wantTrust)
	}
	if got := restarted.Priors.ExportState(); !reflect.DeepEqual(got, wantPriors) {
		t.Errorf("priors after restart = %+v\nwant %+v", got, wantPriors)
	}
	if got := restarted.Feedback.Stats().AppliedSeq; got != wantSeq {
		t.Errorf("feedback watermark after restart = %d, want %d", got, wantSeq)
	}
	// And the watermark is honest: the applied verdict does not replay.
	if n := restarted.Feedback.Flush(); n != 0 {
		t.Errorf("restart re-applied %d verdicts covered by the checkpoint", n)
	}
}

// TestRestoreRejectsCorruptAuxAtomically: a composite image whose store
// section is fine but whose aux (learned-state) section is malformed
// must leave the live system completely unchanged — the restore
// contract is all-or-nothing.
func TestRestoreRejectsCorruptAuxAtomically(t *testing.T) {
	build := func() *System {
		s, err := New(Config{GazetteerNames: 300, GazetteerSeed: 2011, Workers: 1, Clock: func() time.Time { return t0 }})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	}
	donor := build()
	for _, m := range []string{
		"wonderful stay at the Axel Hotel in Berlin, lovely place",
		"wonderful stay at the Movenpick Hotel in Berlin, lovely place",
	} {
		if _, err := donor.Ingest(context.Background(), m, "alice"); err != nil {
			t.Fatal(err)
		}
	}
	var img bytes.Buffer
	if err := donor.Snapshot(&img); err != nil {
		t.Fatal(err)
	}
	// Rebuild the image with the donor's store section but a malformed
	// aux section (trust prior outside (0, 1)).
	br := bufio.NewReader(bytes.NewReader(img.Bytes()))
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	storeSec, err := shard.ReadSection(br)
	if err != nil {
		t.Fatal(err)
	}
	var bad bytes.Buffer
	fmt.Fprintf(&bad, "%s\n", imageMagic)
	if err := shard.WriteSection(&bad, storeSec); err != nil {
		t.Fatal(err)
	}
	if err := shard.WriteSection(&bad, []byte(`{"trust":{"prior":1.5,"weight":1}}`)); err != nil {
		t.Fatal(err)
	}

	target := build()
	if _, err := target.Ingest(context.Background(), "great night at the Hotel Elysium Park in Berlin", "bob"); err != nil {
		t.Fatal(err)
	}
	wantTrust := target.Trust.Report()
	if err := target.Restore(bytes.NewReader(bad.Bytes())); err == nil {
		t.Fatal("corrupt aux section restored without error")
	}
	if got := target.Store.Len("Hotels"); got != 1 {
		t.Errorf("failed restore changed the store: %d records, want 1", got)
	}
	if got := target.Trust.Report(); !reflect.DeepEqual(got, wantTrust) {
		t.Errorf("failed restore changed the trust model: %+v", got)
	}
}

// TestRestoreTornImageIsAnError: an image cut off right after a section's
// length prefix must be refused, whatever the prefix claims — Restore
// used to allocate the claimed length and panic (makeslice: len out of
// range) on this 24-byte input.
func TestRestoreTornImageIsAnError(t *testing.T) {
	sys, err := New(Config{GazetteerNames: 300, GazetteerSeed: 2011, Clock: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Ingest(context.Background(), "wonderful stay at the Axel Hotel in Berlin", "alice"); err != nil {
		t.Fatal(err)
	}
	torn := imageMagic + "\n" + strings.Repeat("\xff", 8)
	if err := sys.Restore(strings.NewReader(torn)); err == nil {
		t.Fatal("torn image restored without error")
	}
	if got := sys.Store.Len("Hotels"); got != 1 {
		t.Errorf("refused restore changed the store: %d records, want 1", got)
	}
}

// TestBootFallsBackPastTornCheckpoint: on the manifest-less boot scan
// (nothing verifies size or CRC first) a torn newest checkpoint is
// skipped and the older valid image restores, instead of the length
// prefix crashing the process.
func TestBootFallsBackPastTornCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{GazetteerNames: 300, GazetteerSeed: 2011, DataDir: dir, Clock: func() time.Time { return t0 }}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Ingest(context.Background(), "wonderful stay at the Axel Hotel in Berlin", "alice"); err != nil {
		t.Fatal(err)
	}
	good, err := sys.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	// A newer checkpoint torn inside its store section, and no manifest
	// to vouch for either file.
	torn := fmt.Sprintf("neogeo-checkpoint v1 seq=%d lsn=0\n%s\n%s", good.Seq+1, imageMagic, strings.Repeat("\xff", 8))
	name := fmt.Sprintf("checkpoint-%016d.ckpt", good.Seq+1)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	restarted, err := New(cfg)
	if err != nil {
		t.Fatalf("boot with a torn newest checkpoint: %v", err)
	}
	defer restarted.Close()
	if got := restarted.Store.Len("Hotels"); got != 1 {
		t.Errorf("restored %d records, want 1 from the older image", got)
	}
	if st := restarted.CheckpointStats(); st.LastSeq != good.Seq {
		t.Errorf("adopted checkpoint seq %d, want %d", st.LastSeq, good.Seq)
	}
}
