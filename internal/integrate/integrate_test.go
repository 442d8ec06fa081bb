package integrate

import (
	"testing"
	"time"

	"repro/internal/extract"
	"repro/internal/geo"
	"repro/internal/kb"
	"repro/internal/pxml"
	"repro/internal/uncertain"
	"repro/internal/xmldb"
)

var (
	berlinPt = geo.Point{Lat: 52.52, Lon: 13.405}
	t0       = time.Date(2011, 4, 1, 9, 0, 0, 0, time.UTC)
)

func hotelTemplate(name, source string, pGermany, pPositive float64, cf uncertain.CF) extract.Template {
	country := uncertain.NewDist()
	_ = country.Set("Germany", pGermany)
	_ = country.Set("United States", 1-pGermany)
	att := uncertain.NewDist()
	_ = att.Set("Positive", pPositive)
	_ = att.Set("Negative", 1-pPositive)
	loc := berlinPt
	return extract.Template{
		Domain:    "tourism",
		RecordTag: "Hotel",
		Source:    source,
		Extracted: t0,
		Certainty: cf,
		Location:  &loc,
		Fields: map[string]extract.FieldValue{
			"Hotel_Name":    {Kind: kb.FieldText, Text: name, CF: 0.7},
			"Location":      {Kind: kb.FieldLocation, Text: "Berlin", CF: 0.7},
			"Country":       {Kind: kb.FieldDist, Dist: country, CF: 0.6},
			"User_Attitude": {Kind: kb.FieldAttitude, Dist: att, CF: 0.5},
		},
	}
}

func newService(t *testing.T) (*Service, *xmldb.DB, *uncertain.TrustModel) {
	t.Helper()
	trust := newTrust(t)
	db := xmldb.New()
	s, err := NewService(kb.New(), trust, db)
	if err != nil {
		t.Fatal(err)
	}
	return s, db, trust
}

// newTrust returns a source-trust model with the system's starting
// parameters (core.NewTrustModel).
func newTrust(t testing.TB) *uncertain.TrustModel {
	t.Helper()
	m, err := uncertain.NewTrustModel(0.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestIntegrateInsertsNovel(t *testing.T) {
	s, db, _ := newService(t)
	res, err := s.Integrate(hotelTemplate("Axel Hotel", "alice", 0.8, 0.9, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ActionInserted {
		t.Fatalf("action = %s", res.Action)
	}
	if db.Len("Hotels") != 1 {
		t.Fatalf("records = %d", db.Len("Hotels"))
	}
	rec, _ := db.Get("Hotels", res.RecordID)
	if rec.Certainty <= 0 {
		t.Errorf("certainty = %v", rec.Certainty)
	}
	if rec.Location == nil {
		t.Error("location not stored")
	}
}

func TestIntegrateMergesDuplicate(t *testing.T) {
	s, db, _ := newService(t)
	first, err := s.Integrate(hotelTemplate("Axel Hotel", "alice", 0.8, 0.9, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	// Word-order variant + agreement strengthens the record.
	recBefore, _ := db.Get("Hotels", first.RecordID)
	cfBefore := recBefore.Certainty
	res, err := s.Integrate(hotelTemplate("Hotel Axel", "bob", 0.85, 0.95, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ActionMerged {
		t.Fatalf("action = %s", res.Action)
	}
	if res.RecordID != first.RecordID {
		t.Error("merged into a different record")
	}
	if db.Len("Hotels") != 1 {
		t.Fatalf("records = %d after merge", db.Len("Hotels"))
	}
	rec, _ := db.Get("Hotels", first.RecordID)
	if rec.Certainty <= cfBefore {
		t.Errorf("agreement did not raise certainty: %v -> %v", cfBefore, rec.Certainty)
	}
}

func TestIntegrateDistinctHotelsStaySeparate(t *testing.T) {
	s, db, _ := newService(t)
	if _, err := s.Integrate(hotelTemplate("Axel Hotel", "alice", 0.8, 0.9, 0.6)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Integrate(hotelTemplate("Movenpick Hotel", "bob", 0.8, 0.9, 0.6)); err != nil {
		t.Fatal(err)
	}
	if db.Len("Hotels") != 2 {
		t.Fatalf("records = %d, want 2", db.Len("Hotels"))
	}
}

func TestIntegrateSameNameFarAwayStaysSeparate(t *testing.T) {
	s, db, _ := newService(t)
	if _, err := s.Integrate(hotelTemplate("Grand Hotel", "alice", 0.8, 0.9, 0.6)); err != nil {
		t.Fatal(err)
	}
	far := hotelTemplate("Grand Hotel", "bob", 0.2, 0.9, 0.6)
	sydney := geo.Point{Lat: -33.87, Lon: 151.21}
	far.Location = &sydney
	res, err := s.Integrate(far)
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ActionInserted {
		t.Errorf("far-away same-name hotel merged")
	}
	if db.Len("Hotels") != 2 {
		t.Errorf("records = %d, want 2", db.Len("Hotels"))
	}
}

func TestIntegrateConflictPoolsDistribution(t *testing.T) {
	s, db, _ := newService(t)
	first, err := s.Integrate(hotelTemplate("Essex House", "alice", 0.9, 0.9, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	// Bob claims the attitude is negative: conflict recorded, both pooled.
	res, err := s.Integrate(hotelTemplate("Essex House", "bob", 0.9, 0.1, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	foundConflict := false
	for _, c := range res.Conflicts {
		if c.Field == "User_Attitude" {
			foundConflict = true
		}
	}
	if !foundConflict {
		t.Errorf("attitude conflict not recorded: %+v", res.Conflicts)
	}
	rec, _ := db.Get("Hotels", first.RecordID)
	attNode, _ := rec.Doc.FirstChild("User_Attitude")
	dist := extract.MuxToDist(attNode)
	pPos := dist.P("Positive")
	if pPos <= 0.4 || pPos >= 0.95 {
		t.Errorf("pooled P(Positive) = %v, want softened but still majority", pPos)
	}
}

func TestIntegrateTrustFeedback(t *testing.T) {
	s, _, trust := newService(t)
	// Establish the positive view with several independent reports, so a
	// lone dissenter cannot flip the pooled majority.
	for i, src := range []string{"alice", "carol", "dave", "alice", "carol"} {
		if _, err := s.Integrate(hotelTemplate("Axel Hotel", src, 0.9, 0.9, 0.7)); err != nil {
			t.Fatalf("setup %d: %v", i, err)
		}
	}
	base := trust.Reliability("troll")
	// The troll repeatedly contradicts the established attitude.
	for i := 0; i < 3; i++ {
		if _, err := s.Integrate(hotelTemplate("Axel Hotel", "troll", 0.9, 0.05, 0.7)); err != nil {
			t.Fatal(err)
		}
	}
	if got := trust.Reliability("troll"); got >= base {
		t.Errorf("contradicting source kept reliability %v >= %v", got, base)
	}
	// An agreeing source gains trust.
	baseBob := trust.Reliability("bob")
	for i := 0; i < 3; i++ {
		if _, err := s.Integrate(hotelTemplate("Axel Hotel", "bob", 0.9, 0.95, 0.7)); err != nil {
			t.Fatal(err)
		}
	}
	if got := trust.Reliability("bob"); got <= baseBob {
		t.Errorf("agreeing source kept reliability %v <= %v", got, baseBob)
	}
}

func TestIntegrateTrustWeightedText(t *testing.T) {
	s, db, _ := newService(t)
	// Price is trust-weighted: a low-certainty newcomer must not replace a
	// confident stored price.
	tpl := hotelTemplate("Essex House", "alice", 0.9, 0.9, 0.9)
	tpl.Fields["Price"] = extract.FieldValue{Kind: kb.FieldNumber, Num: 154, CF: 0.9}
	first, err := s.Integrate(tpl)
	if err != nil {
		t.Fatal(err)
	}
	weak := hotelTemplate("Essex House", "mallory", 0.9, 0.9, 0.1)
	weak.Fields["Price"] = extract.FieldValue{Kind: kb.FieldNumber, Num: 123, CF: 0.1}
	res, err := s.Integrate(weak)
	if err != nil {
		t.Fatal(err)
	}
	conflicted := false
	for _, c := range res.Conflicts {
		if c.Field == "Price" {
			conflicted = true
			if c.Kept != "154" {
				t.Errorf("weak evidence replaced price: kept %q", c.Kept)
			}
		}
	}
	if !conflicted {
		t.Error("price conflict not recorded")
	}
	rec, _ := db.Get("Hotels", first.RecordID)
	if p := pxml.ValueProb(rec.Doc, "Hotel/Price", "154"); p != 1 {
		t.Errorf("stored price changed: P(154) = %v", p)
	}
}

func TestIntegrateMissingKey(t *testing.T) {
	s, _, _ := newService(t)
	tpl := hotelTemplate("X", "a", 0.5, 0.5, 0.5)
	delete(tpl.Fields, "Hotel_Name")
	if _, err := s.Integrate(tpl); err == nil {
		t.Error("missing key accepted")
	}
	tpl2 := hotelTemplate("X", "a", 0.5, 0.5, 0.5)
	tpl2.Domain = "unknown"
	if _, err := s.Integrate(tpl2); err == nil {
		t.Error("unknown domain accepted")
	}
}

func TestIntegrateNaiveOverwrites(t *testing.T) {
	s, db, _ := newService(t)
	if _, err := s.IntegrateNaive(hotelTemplate("Axel Hotel", "alice", 0.9, 0.9, 0.8)); err != nil {
		t.Fatal(err)
	}
	res, err := s.IntegrateNaive(hotelTemplate("Axel Hotel", "troll", 0.9, 0.05, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := db.Get("Hotels", res.RecordID)
	attNode, _ := rec.Doc.FirstChild("User_Attitude")
	dist := extract.MuxToDist(attNode)
	// Naive integration lost the positive majority entirely.
	if dist.P("Positive") > dist.P("Negative") {
		t.Error("naive overwrite unexpectedly preserved the majority view")
	}
	if rec.Certainty != 0.3 {
		t.Errorf("naive certainty = %v, want raw 0.3", rec.Certainty)
	}
}

func TestDecay(t *testing.T) {
	s, db, _ := newService(t)
	db.SetClock(func() time.Time { return t0 })
	res, err := s.Integrate(hotelTemplate("Axel Hotel", "alice", 0.9, 0.9, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	recBefore, _ := db.Get("Hotels", res.RecordID)
	cfBefore := recBefore.Certainty

	// 100 days later, the certainty has decayed.
	later := t0.Add(100 * 24 * time.Hour)
	db.SetClock(func() time.Time { return later })
	decayed, deleted, err := s.Decay("Hotels", later, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if decayed != 1 || deleted != 0 {
		t.Fatalf("decayed=%d deleted=%d", decayed, deleted)
	}
	rec, _ := db.Get("Hotels", res.RecordID)
	if rec.Certainty >= cfBefore {
		t.Errorf("certainty did not decay: %v -> %v", cfBefore, rec.Certainty)
	}

	// After years, the record falls below the floor and is deleted.
	years := later.Add(5 * 365 * 24 * time.Hour)
	db.SetClock(func() time.Time { return years })
	_, deleted, err = s.Decay("Hotels", years, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 1 {
		t.Errorf("stale record not deleted (deleted=%d)", deleted)
	}
	if db.Len("Hotels") != 0 {
		t.Errorf("records = %d after decay delete", db.Len("Hotels"))
	}
}

func TestNameSimilarity(t *testing.T) {
	cases := []struct {
		a, b string
		min  float64
	}{
		{"axel hotel", "axel hotel", 1},
		{"axel hotel", "hotel axel", 1},
		{"movenpick hotel", "movenpik hotel", 0.85},
		{"essex house hotel", "essex house hotel and suites", 0.5},
	}
	for _, c := range cases {
		if got := nameSimilarity(c.a, c.b); got < c.min {
			t.Errorf("nameSimilarity(%q, %q) = %v, want >= %v", c.a, c.b, got, c.min)
		}
	}
	if got := nameSimilarity("axel hotel", "central station"); got > 0.4 {
		t.Errorf("unrelated names similarity = %v", got)
	}
}
