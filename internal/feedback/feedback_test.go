package feedback

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/disambig"
	"repro/internal/gazetteer"
	"repro/internal/geo"
	"repro/internal/kb"
	"repro/internal/pxml"
	"repro/internal/shard"
	"repro/internal/uncertain"
	"repro/internal/xmldb"
)

var t0 = time.Date(2011, 4, 1, 9, 0, 0, 0, time.UTC)

// fixture is the minimal closed loop: a 2-shard store, a gazetteer with
// an ambiguous "Paris", the trust model and the reinforcement priors.
type fixture struct {
	store   *shard.Store
	kb      *kb.KB
	gaz     *gazetteer.Gazetteer
	priors  *disambig.Priors
	ledger  *MemLedger
	eng     *Engine
	parisFR *gazetteer.Entry
	parisTX *gazetteer.Entry
}

func newFixture(t *testing.T, batch int) *fixture {
	t.Helper()
	g, err := gazetteer.New([]gazetteer.Entry{
		{Name: "Paris", Location: geo.Point{Lat: 48.8566, Lon: 2.3522}, Country: "FR", Population: 2_100_000, Feature: gazetteer.FeatureCity},
		{Name: "Paris", Location: geo.Point{Lat: 33.6609, Lon: -95.5555}, Country: "US", Population: 25_000, Feature: gazetteer.FeatureCity},
	})
	if err != nil {
		t.Fatal(err)
	}
	fr, _ := g.Get(1)
	tx, _ := g.Get(2)
	store, err := shard.New(2)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{
		store:   store,
		kb:      kb.New(),
		gaz:     g,
		priors:  disambig.NewPriors(),
		ledger:  NewMemLedger(),
		parisFR: fr,
		parisTX: tx,
	}
	f.eng, err = NewEngine(Config{
		Store:  f.store,
		KB:     f.kb,
		Gaz:    f.gaz,
		Priors: f.priors,
		Ledger: f.ledger,
		Batch:  batch,
		Clock:  func() time.Time { return t0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// hotelDoc builds a stored record document with a provenance trace.
func hotelDoc(name, city, trace string) *pxml.Node {
	doc := pxml.Elem("Hotel",
		pxml.ElemText("Hotel_Name", name),
		pxml.ElemText("City", city),
	)
	if trace != "" {
		doc.Add(pxml.ElemText("Source_Trace", trace))
	}
	return doc
}

// insert stores doc on the shard the router assigns it, as an
// integration lane would, and returns its record ID.
func (f *fixture) insert(t *testing.T, doc *pxml.Node, cf uncertain.CF, loc *geo.Point) int64 {
	t.Helper()
	var rec *xmldb.Record
	err := f.store.Shard(f.store.Router().Route(loc, shard.DocKey(doc))).Batch(func(tx *xmldb.Tx) (err error) {
		rec, err = tx.Insert("Hotels", doc, cf, loc)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.ID
}

// home is the database of a record's home shard.
func (f *fixture) home(id int64) *xmldb.DB { return f.store.Shard(f.store.ShardFor(id)) }

// remove deletes a record, as decay would.
func (f *fixture) remove(id int64) error {
	return f.home(id).Batch(func(tx *xmldb.Tx) error { return tx.Delete("Hotels", id) })
}

// TestConfirmAppliesAllThreeEffects: one confirm raises the record's
// certainty, credits every traced source, and reinforces the gazetteer
// interpretation nearest the record's location.
func TestConfirmAppliesAllThreeEffects(t *testing.T) {
	f := newFixture(t, 16)
	loc := f.parisFR.Location
	id := f.insert(t, hotelDoc("Axel Hotel", "Paris", "alice,bob"), 0.5, &loc)

	prior := f.kb.Trust().Reliability("alice")
	seq, err := f.eng.Submit(Verdict{RecordID: id, Kind: KindConfirm, Source: "carol"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if seq != 1 {
		t.Fatalf("seq = %d, want 1", seq)
	}
	if got := f.eng.Stats(); got.Pending != 1 || got.Applied != 0 {
		t.Fatalf("pre-flush stats = %+v", got)
	}
	if n := f.eng.Flush(); n != 1 {
		t.Fatalf("Flush applied %d, want 1", n)
	}

	rec, ok := f.home(id).Get("Hotels", id)
	if !ok {
		t.Fatal("record vanished")
	}
	if rec.Certainty <= 0.5 {
		t.Errorf("certainty after confirm = %v, want > 0.5", rec.Certainty)
	}
	if got := f.kb.Trust().Reliability("alice"); got <= prior {
		t.Errorf("alice reliability after confirm = %v, want > prior %v", got, prior)
	}
	if got := f.kb.Trust().Reliability("bob"); got <= prior {
		t.Errorf("bob reliability after confirm = %v, want > prior %v", got, prior)
	}
	if b := f.priors.Boost("Paris", f.parisFR.ID); b <= 1 {
		t.Errorf("priors boost for Paris(FR) = %v, want > 1", b)
	}
	if b := f.priors.Boost("Paris", f.parisTX.ID); b != 1 {
		t.Errorf("priors boost for Paris(TX) = %v, want exactly 1", b)
	}
	st := f.eng.Stats()
	if st.Applied != 1 || st.Confirmed != 1 || st.Pending != 0 || st.AppliedSeq != 1 {
		t.Errorf("post-flush stats = %+v", st)
	}
}

// TestRejectLowersCertaintyAndTrust: a reject is negative evidence for
// the record and a contradiction for its sources.
func TestRejectLowersCertaintyAndTrust(t *testing.T) {
	f := newFixture(t, 16)
	id := f.insert(t, hotelDoc("Grand Plaza", "Paris", "alice"), 0.7, nil)
	prior := f.kb.Trust().Reliability("alice")

	if _, err := f.eng.Submit(Verdict{RecordID: id, Kind: KindReject, Source: "critic"}); err != nil {
		t.Fatal(err)
	}
	f.eng.Flush()

	rec, _ := f.home(id).Get("Hotels", id)
	if rec.Certainty >= 0.7 {
		t.Errorf("certainty after reject = %v, want < 0.7", rec.Certainty)
	}
	if got := f.kb.Trust().Reliability("alice"); got >= prior {
		t.Errorf("alice reliability after reject = %v, want < prior %v", got, prior)
	}
	if st := f.eng.Stats(); st.Rejected != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCorrectReplacesFieldAndLocation: a correction rewrites the field,
// moves the indexed location, and reinforces the interpretation at the
// corrected location — the "Paris meant Paris, TX" loop.
func TestCorrectReplacesFieldAndLocation(t *testing.T) {
	f := newFixture(t, 16)
	loc := f.parisFR.Location
	id := f.insert(t, hotelDoc("Lone Star Inn", "Paris", "alice"), 0.6, &loc)

	lat, lon := f.parisTX.Location.Lat, f.parisTX.Location.Lon
	if _, err := f.eng.Submit(Verdict{
		RecordID: id, Kind: KindCorrect, Source: "local",
		Field: "City", Value: "Paris",
		Lat: &lat, Lon: &lon,
	}); err != nil {
		t.Fatal(err)
	}
	f.eng.Flush()

	rec, _ := f.home(id).Get("Hotels", id)
	if rec.Location == nil || rec.Location.Lat != lat || rec.Location.Lon != lon {
		t.Fatalf("location after correct = %v, want %v,%v", rec.Location, lat, lon)
	}
	if b := f.priors.Boost("Paris", f.parisTX.ID); b <= 1 {
		t.Errorf("priors boost for Paris(TX) after location correction = %v, want > 1", b)
	}
	// The home shard never changes: the ID still resolves.
	if _, ok := f.home(id).Get("Hotels", id); !ok {
		t.Error("record not reachable by ID after location correction")
	}
	if st := f.eng.Stats(); st.Corrected != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestTypedErrors pins the engine's failure taxonomy.
func TestTypedErrors(t *testing.T) {
	f := newFixture(t, 16)
	id := f.insert(t, hotelDoc("Doomed Hotel", "Paris", "x"), 0.4, nil)

	cases := []struct {
		name string
		v    Verdict
		want error
	}{
		{"unknown kind", Verdict{RecordID: id, Kind: "praise"}, ErrInvalidVerdict},
		{"correct without payload", Verdict{RecordID: id, Kind: KindCorrect}, ErrInvalidVerdict},
		{"confirm with payload", Verdict{RecordID: id, Kind: KindConfirm, Field: "City", Value: "Rome"}, ErrInvalidVerdict},
		{"partial location", Verdict{RecordID: id, Kind: KindCorrect, Lat: ptr(1.0)}, ErrInvalidVerdict},
		{"zero record", Verdict{RecordID: 0, Kind: KindConfirm}, ErrUnknownRecord},
		{"never allocated", Verdict{RecordID: 99_999, Kind: KindConfirm}, ErrUnknownRecord},
	}
	for _, tc := range cases {
		if _, err := f.eng.Submit(tc.v); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// A deleted record is a stale answer, not an unknown reference.
	if err := f.remove(id); err != nil {
		t.Fatal(err)
	}
	if _, err := f.eng.Submit(Verdict{RecordID: id, Kind: KindConfirm}); !errors.Is(err, ErrStaleAnswer) {
		t.Errorf("deleted record: err != ErrStaleAnswer")
	}
}

func ptr(f float64) *float64 { return &f }

// TestAutoApplyOnFullBatch: a lane reaching the batch threshold applies
// without an explicit flush.
func TestAutoApplyOnFullBatch(t *testing.T) {
	f := newFixture(t, 2)
	loc := f.parisFR.Location
	id := f.insert(t, hotelDoc("Batch Hotel", "Paris", "a"), 0.5, &loc)

	if _, err := f.eng.Submit(Verdict{RecordID: id, Kind: KindConfirm, Source: "u1"}); err != nil {
		t.Fatal(err)
	}
	if st := f.eng.Stats(); st.Applied != 0 {
		t.Fatalf("applied before batch full: %+v", st)
	}
	if _, err := f.eng.Submit(Verdict{RecordID: id, Kind: KindConfirm, Source: "u2"}); err != nil {
		t.Fatal(err)
	}
	if st := f.eng.Stats(); st.Applied != 2 || st.Pending != 0 {
		t.Fatalf("stats after auto-apply = %+v", st)
	}
}

// TestStaleBetweenAcceptAndApply: a record deleted after Submit but
// before the flush is dropped with the stale counter, and the watermark
// still advances past it.
func TestStaleBetweenAcceptAndApply(t *testing.T) {
	f := newFixture(t, 16)
	id := f.insert(t, hotelDoc("Ephemeral Hotel", "Paris", "a"), 0.5, nil)
	if _, err := f.eng.Submit(Verdict{RecordID: id, Kind: KindConfirm}); err != nil {
		t.Fatal(err)
	}
	if err := f.remove(id); err != nil {
		t.Fatal(err)
	}
	if n := f.eng.Flush(); n != 0 {
		t.Fatalf("Flush applied %d, want 0", n)
	}
	st := f.eng.Stats()
	if st.DroppedStale != 1 || st.Pending != 0 || st.AppliedSeq != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestParkDefersUntilRecordExists: replayed ledger entries whose record
// has not been re-integrated yet stay parked across flushes and apply
// once the record reappears — the recovery ordering contract.
func TestParkDefersUntilRecordExists(t *testing.T) {
	f := newFixture(t, 16)
	loc := f.parisFR.Location
	doc := hotelDoc("Replay Hotel", "Paris", "alice")
	id := f.insert(t, doc.Clone(), 0.5, &loc)

	// A second, empty system: same shard layout, so re-inserting the
	// same document reproduces the same record ID.
	g := newFixture(t, 16)
	g.eng.Park([]Entry{{Seq: 1, At: t0, Verdict: Verdict{RecordID: id, Kind: KindConfirm, Source: "carol"}}})
	if n := g.eng.Flush(); n != 0 {
		t.Fatalf("parked entry applied with no record (%d)", n)
	}
	st := g.eng.Stats()
	if st.Deferred != 1 || st.Replayed != 1 {
		t.Fatalf("stats after deferred flush = %+v", st)
	}

	got := g.insert(t, doc.Clone(), 0.5, &loc)
	if got != id {
		t.Fatalf("re-inserted record ID %d, original %d — fixture routing drifted", got, id)
	}
	if n := g.eng.Flush(); n != 1 {
		t.Fatalf("Flush after re-integration applied %d, want 1", n)
	}
	rec, _ := g.home(id).Get("Hotels", id)
	if rec.Certainty <= 0.5 {
		t.Errorf("replayed confirm did not raise certainty: %v", rec.Certainty)
	}
	if st := g.eng.Stats(); st.AppliedSeq != 1 || st.Deferred != 0 {
		t.Errorf("stats after replay = %+v", st)
	}
}

// TestParkSkipsCoveredEntries: entries at or below the recovered
// watermark — or named in the image's resolved set above it — are
// inside the restored image and must not re-apply.
func TestParkSkipsCoveredEntries(t *testing.T) {
	f := newFixture(t, 16)
	loc := f.parisFR.Location
	id := f.insert(t, hotelDoc("Covered Hotel", "Paris", "a"), 0.5, &loc)

	// Watermark 3 with seq 5 resolved above it: the checkpoint was
	// taken while seq 4 still deferred, after seq 5 applied.
	eng, err := NewEngine(Config{
		Store: f.store, KB: f.kb, Gaz: f.gaz, Priors: f.priors,
		Ledger: NewMemLedger(), AppliedSeq: 3, AppliedDone: []int64{5},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Park([]Entry{
		{Seq: 2, Verdict: Verdict{RecordID: id, Kind: KindConfirm}},
		{Seq: 3, Verdict: Verdict{RecordID: id, Kind: KindConfirm}},
		{Seq: 4, Verdict: Verdict{RecordID: id, Kind: KindConfirm}},
		{Seq: 5, Verdict: Verdict{RecordID: id, Kind: KindConfirm}},
	})
	if n := eng.Flush(); n != 1 {
		t.Fatalf("Flush applied %d, want only the one uncovered entry", n)
	}
	// Applying seq 4 fills the hole; the resolved seq 5 closes behind it.
	if st := eng.Stats(); st.AppliedSeq != 5 || st.Replayed != 1 {
		t.Errorf("stats = %+v", st)
	}
	// New submissions sequence after the replayed tail.
	seq, err := eng.Submit(Verdict{RecordID: id, Kind: KindConfirm, Source: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Errorf("next seq = %d, want 6", seq)
	}
}

// TestReplayDropsOnKeyMismatch: a replayed verdict whose record ID was
// re-issued to a different entity (nondeterministic re-integration) is
// dropped, never applied to the wrong record.
func TestReplayDropsOnKeyMismatch(t *testing.T) {
	f := newFixture(t, 16)
	loc := f.parisFR.Location
	id := f.insert(t, hotelDoc("Innocent Hotel", "Paris", "alice"), 0.5, &loc)

	f.eng.Park([]Entry{{
		Seq:     1,
		Verdict: Verdict{RecordID: id, Kind: KindReject, Source: "critic"},
		Key:     "Doomed Hotel", // the record this ID named before the crash
	}})
	if n := f.eng.Flush(); n != 0 {
		t.Fatalf("mismatched replay applied %d verdicts", n)
	}
	rec, _ := f.home(id).Get("Hotels", id)
	if rec.Certainty != 0.5 {
		t.Errorf("wrong record mutated: certainty %v", rec.Certainty)
	}
	st := f.eng.Stats()
	if st.DroppedStale != 1 || st.AppliedSeq != 1 || st.Pending != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestReplayRetryBudget: a replay entry whose record never reappears is
// eventually dropped instead of wedging the applied watermark (and
// therefore the checkpointed replay window) forever.
func TestReplayRetryBudget(t *testing.T) {
	f := newFixture(t, 16)
	f.eng.Park([]Entry{{Seq: 1, Verdict: Verdict{RecordID: 41, Kind: KindConfirm}}})
	for i := 0; i < maxReplayTries; i++ {
		if n := f.eng.Flush(); n != 0 {
			t.Fatalf("flush %d applied %d verdicts", i, n)
		}
	}
	st := f.eng.Stats()
	if st.Pending != 0 || st.DroppedStale != 1 || st.AppliedSeq != 1 {
		t.Errorf("stats after retry budget = %+v", st)
	}
}

// TestFileLedgerRoundTrip: entries survive reopen; a torn trailing line
// (crash mid-append) is truncated away and appends keep working.
func TestFileLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "feedback.log")
	led, entries, err := OpenFileLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh ledger has %d entries", len(entries))
	}
	for i := int64(1); i <= 3; i++ {
		if err := led.Append(Entry{Seq: i, At: t0, Verdict: Verdict{RecordID: i, Kind: KindConfirm, Source: "u"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: garbage without a trailing newline.
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteString(`{"seq":4,"verdict":{"record`); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	led2, entries, err := OpenFileLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	if len(entries) != 3 {
		t.Fatalf("reopened ledger has %d entries, want 3", len(entries))
	}
	for i, e := range entries {
		if e.Seq != int64(i+1) || e.Verdict.RecordID != int64(i+1) {
			t.Errorf("entry %d = %+v", i, e)
		}
	}
	if err := led2.Append(Entry{Seq: 4, At: t0, Verdict: Verdict{RecordID: 4, Kind: KindReject}}); err != nil {
		t.Fatal(err)
	}
	led2.Close()
	_, entries, err = OpenFileLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 || entries[3].Verdict.Kind != KindReject {
		t.Fatalf("after torn-tail truncation + append: %d entries", len(entries))
	}
}

// Each applied verdict is announced once to the store's commit
// observer, on its record's home shard and labelled with its kind; a
// verdict dropped as stale announces nothing.
func TestFlushAnnouncesAppliedVerdicts(t *testing.T) {
	f := newFixture(t, 16)
	loc := f.parisFR.Location
	a := f.insert(t, hotelDoc("Axel Hotel", "Paris", "alice"), 0.5, &loc)
	b := f.insert(t, hotelDoc("Grand Hotel", "Lyon", "bob"), 0.5, nil)
	gone := f.insert(t, hotelDoc("Sad Inn", "Lyon", "bob"), 0.5, nil)
	// Lanes apply in parallel, so the observer runs on several
	// goroutines at once.
	var mu sync.Mutex
	var heard []string
	f.store.OnCommit(func(shard int, commits []xmldb.Commit) {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range commits {
			heard = append(heard, fmt.Sprintf("%d %s %d %s", shard, c.Collection, c.RecordID, c.Action))
		}
	})
	for _, v := range []Verdict{
		{RecordID: a, Kind: KindConfirm, Source: "carol"},
		{RecordID: b, Kind: KindReject, Source: "carol"},
		{RecordID: gone, Kind: KindReject, Source: "carol"},
		{RecordID: a, Kind: KindCorrect, Field: "City", Value: "Paris", Source: "carol"},
	} {
		if _, err := f.eng.Submit(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.remove(gone); err != nil {
		t.Fatal(err)
	}
	if n := f.eng.Flush(); n != 3 {
		t.Fatalf("Flush applied %d, want 3", n)
	}
	want := []string{
		fmt.Sprintf("%d Hotels %d confirmed", f.store.ShardFor(a), a),
		fmt.Sprintf("%d Hotels %d corrected", f.store.ShardFor(a), a),
		fmt.Sprintf("%d Hotels %d rejected", f.store.ShardFor(b), b),
	}
	sort.Strings(heard)
	sort.Strings(want)
	if fmt.Sprint(heard) != fmt.Sprint(want) {
		t.Fatalf("observer heard %q, want %q", heard, want)
	}
}
