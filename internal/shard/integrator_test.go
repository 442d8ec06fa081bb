package shard

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/extract"
	"repro/internal/geo"
	"repro/internal/integrate"
	"repro/internal/kb"
	"repro/internal/uncertain"
	"repro/internal/xmldb"
)

func hotelTemplate(name, city string, loc *geo.Point, source string) extract.Template {
	d := uncertain.NewDist()
	_ = d.Add("Positive", 0.9)
	_ = d.Add("Negative", 0.1)
	return extract.Template{
		Domain:    "tourism",
		RecordTag: "Hotel",
		Fields: map[string]extract.FieldValue{
			"Hotel_Name":    {Kind: kb.FieldText, Text: name, CF: 0.9},
			"City":          {Kind: kb.FieldText, Text: city, CF: 0.8},
			"User_Attitude": {Kind: kb.FieldAttitude, Dist: d, CF: 0.8},
		},
		Certainty: 0.5,
		Location:  loc,
		Source:    source,
		Extracted: time.Unix(1_300_000_000, 0),
	}
}

func TestIntegratorRoutesRepeatedReportsToOneLane(t *testing.T) {
	st, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewIntegrator(kb.New(), newTrust(t), st)
	if err != nil {
		t.Fatal(err)
	}
	if in.Lanes() != 4 {
		t.Fatalf("Lanes = %d", in.Lanes())
	}
	berlin := geo.Point{Lat: 52.52, Lon: 13.405}

	// Three reports about the same hotel — two located, one not — must
	// all route to the same lane, so shard-local duplicate detection
	// sees them all... provided located and key-routed records agree.
	located := hotelTemplate("Axel Hotel", "Berlin", &berlin, "alice")
	lane := in.Route([]extract.Template{located})
	if got := in.Route([]extract.Template{hotelTemplate("Axel Hotel", "Berlin", &berlin, "bob")}); got != lane {
		t.Fatalf("second located report routed to lane %d, first to %d", got, lane)
	}

	res := in.IntegrateGroups(lane, [][]extract.Template{
		{located},
		{hotelTemplate("Axel Hotel", "Berlin", &berlin, "bob")},
	})
	if res[0][0].Err != nil || res[1][0].Err != nil {
		t.Fatalf("integration errors: %v, %v", res[0][0].Err, res[1][0].Err)
	}
	if res[0][0].Result.Action != integrate.ActionInserted {
		t.Fatalf("first report: %v", res[0][0].Result.Action)
	}
	if res[1][0].Result.Action != integrate.ActionMerged {
		t.Fatalf("second report should merge, got %v", res[1][0].Result.Action)
	}
	if got := st.Len("Hotels"); got != 1 {
		t.Fatalf("store has %d hotels, want 1 merged record", got)
	}
}

func TestIntegratorLanesAreIndependentStores(t *testing.T) {
	st, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewIntegrator(kb.New(), newTrust(t), st)
	if err != nil {
		t.Fatal(err)
	}
	// Far-apart cities spread over distinct lanes; each lane's shard
	// holds exactly the records routed to it.
	cities := []struct {
		name string
		p    geo.Point
	}{
		{"Berlin", geo.Point{Lat: 52.52, Lon: 13.405}},
		{"Nairobi", geo.Point{Lat: -1.29, Lon: 36.82}},
		{"Tokyo", geo.Point{Lat: 35.68, Lon: 139.69}},
		{"Sydney", geo.Point{Lat: -33.87, Lon: 151.21}},
		{"Moscow", geo.Point{Lat: 55.75, Lon: 37.62}},
		{"Lima", geo.Point{Lat: -12.05, Lon: -77.04}},
	}
	perLane := make(map[int]int)
	for i, c := range cities {
		tpl := hotelTemplate(fmt.Sprintf("Hotel %d", i), c.name, &c.p, "alice")
		lane := in.Route([]extract.Template{tpl})
		res := in.IntegrateGroups(lane, [][]extract.Template{{tpl}})
		if res[0][0].Err != nil {
			t.Fatal(res[0][0].Err)
		}
		perLane[lane]++
	}
	if len(perLane) < 2 {
		t.Fatalf("all %d far-apart cities routed to %d lane(s)", len(cities), len(perLane))
	}
	for lane, want := range perLane {
		if got := st.Shard(lane).Len("Hotels"); got != want {
			t.Fatalf("shard %d has %d records, lane integrated %d", lane, got, want)
		}
	}
	if got := st.Len("Hotels"); got != len(cities) {
		t.Fatalf("store total = %d, want %d", got, len(cities))
	}
}

// TestDirectInsertAgreesWithLaneRouting pins the placement contract
// between DocKey and the lanes for location-less records: a stored
// document's DocKey must route to the same shard that Integrator.Route
// sends the corresponding template to, or the restore-time drift audit
// would count correctly placed records as drifted.
func TestDirectInsertAgreesWithLaneRouting(t *testing.T) {
	st, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewIntegrator(kb.New(), newTrust(t), st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("Paragon Villa Hotel %d", i)
		tpl := hotelTemplate(name, "", nil, "alice")
		doc, err := tpl.ToDoc()
		if err != nil {
			t.Fatal(err)
		}
		rec := insertRouted(t, st, "Hotels", doc, 0.5, nil)
		if got, want := st.ShardFor(rec.ID), in.Route([]extract.Template{tpl}); got != want {
			t.Fatalf("%q: DocKey placed on shard %d, lanes route to %d", name, got, want)
		}
	}
}

// Every lane's writes reach the store's one commit observer, tagged with
// the shard that committed them and labelled with the integration
// action.
func TestIntegratorCommitsReachStoreObserver(t *testing.T) {
	st, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewIntegrator(kb.New(), newTrust(t), st)
	if err != nil {
		t.Fatal(err)
	}
	type heard struct {
		shard int
		c     xmldb.Commit
	}
	var got []heard
	st.OnCommit(func(shard int, commits []xmldb.Commit) {
		for _, c := range commits {
			got = append(got, heard{shard, c})
		}
	})
	var want []heard
	for i, name := range []string{"Axel Hotel", "Grand Hotel", "Axel Hotel"} {
		tpls := []extract.Template{hotelTemplate(name, "Berlin", nil, fmt.Sprintf("user%d", i))}
		lane := in.Route(tpls)
		res := in.IntegrateGroups(lane, [][]extract.Template{tpls})[0][0]
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		want = append(want, heard{lane, xmldb.Commit{Collection: "Hotels", RecordID: res.Result.RecordID, Action: string(res.Result.Action)}})
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("observer heard %v, want %v", got, want)
	}
	if want[2].c.Action != "merged" {
		t.Fatalf("repeat report was %s, want merged", want[2].c.Action)
	}
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
