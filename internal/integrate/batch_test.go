package integrate

import (
	"testing"
	"time"

	"repro/internal/extract"
	"repro/internal/kb"
	"repro/internal/uncertain"
	"repro/internal/xmldb"
)

func batchTemplate(name, attitude, source string, at time.Time) extract.Template {
	d := uncertain.NewDist()
	_ = d.Add(attitude, 0.9)
	return extract.Template{
		Domain:    "tourism",
		RecordTag: "Hotel",
		Fields: map[string]extract.FieldValue{
			"Hotel_Name":    {Kind: kb.FieldText, Text: name, CF: 0.9},
			"User_Attitude": {Kind: kb.FieldAttitude, Dist: d, CF: 0.8},
		},
		Certainty: 0.5,
		Source:    source,
		Extracted: at,
	}
}

// A batch of one-template groups must match per-call Integrate
// semantics: same entity merges, distinct entities insert, and a bad
// template fails alone without poisoning the rest of the batch. The
// batch announces each write it made, labelled with its action, in
// order.
func TestIntegrateBatchMatchesSequential(t *testing.T) {
	now := time.Unix(1_300_000_000, 0)
	tpls := []extract.Template{
		batchTemplate("Azure Palace", "Positive", "alice", now),
		batchTemplate("Crimson Lodge", "Negative", "bob", now.Add(time.Minute)),
		batchTemplate("Azure Palace", "Positive", "carol", now.Add(2*time.Minute)),
		{Domain: "no-such-domain"},
	}

	db := xmldb.New()
	svc, err := NewService(kb.New(), newTrust(t), db)
	if err != nil {
		t.Fatal(err)
	}
	var heard []xmldb.Commit
	db.OnCommit(func(commits []xmldb.Commit) { heard = append(heard, commits...) })
	groups := make([][]extract.Template, len(tpls))
	for i, tpl := range tpls {
		groups[i] = []extract.Template{tpl}
	}
	results := svc.IntegrateGroups(groups)
	if len(results) != len(tpls) {
		t.Fatalf("got %d results, want %d", len(results), len(tpls))
	}
	wantActions := []Action{ActionInserted, ActionInserted, ActionMerged}
	for i, want := range wantActions {
		if results[i][0].Err != nil {
			t.Fatalf("template %d: %v", i, results[i][0].Err)
		}
		if results[i][0].Result.Action != want {
			t.Fatalf("template %d action = %s, want %s", i, results[i][0].Result.Action, want)
		}
	}
	if results[3][0].Err == nil {
		t.Fatal("bad template integrated without error")
	}
	if len(heard) != len(wantActions) {
		t.Fatalf("observer heard %v, want %d commits", heard, len(wantActions))
	}
	for i, want := range wantActions {
		c := results[i][0].Result
		if heard[i] != (xmldb.Commit{Collection: "Hotels", RecordID: c.RecordID, Action: string(want)}) {
			t.Fatalf("commit %d = %+v, want %s of record %d", i, heard[i], want, c.RecordID)
		}
	}
	if got := db.Len("Hotels"); got != 2 {
		t.Fatalf("Hotels len = %d, want 2", got)
	}

	// The same stream integrated one call at a time lands in the same state.
	seqDB := xmldb.New()
	seq, err := NewService(kb.New(), newTrust(t), seqDB)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range wantActions {
		res, err := seq.Integrate(tpls[i])
		if err != nil {
			t.Fatalf("sequential template %d: %v", i, err)
		}
		if res.Action != want {
			t.Fatalf("sequential template %d action = %s, want %s", i, res.Action, want)
		}
	}
	if got := seqDB.Len("Hotels"); got != db.Len("Hotels") {
		t.Fatalf("sequential len = %d, batch len = %d", got, db.Len("Hotels"))
	}
}
