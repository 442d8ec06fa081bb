package xmldb

import (
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/pxml"
	"repro/internal/uncertain"
)

// run parses and executes a query string against one database.
func run(db *DB, query string) ([]Result, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return db.Execute(q)
}

func hotelRecord(name, city string, pGermany, pPositive float64) *pxml.Node {
	return pxml.Elem("Hotel",
		pxml.ElemText("Hotel_Name", name),
		pxml.ElemText("City", city),
		pxml.Elem("Country", pxml.Mux(
			pxml.Text("Germany").WithProb(pGermany),
			pxml.Text("USA").WithProb(1-pGermany),
		)),
		pxml.Elem("User_Attitude", pxml.Mux(
			pxml.Text("Positive").WithProb(pPositive),
			pxml.Text("Negative").WithProb(1-pPositive),
		)),
	)
}

func seedDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	berlin := geo.Point{Lat: 52.52, Lon: 13.405}
	paris := geo.Point{Lat: 48.85, Lon: 2.35}
	add := func(doc *pxml.Node, cf uncertain.CF, loc *geo.Point) *Record {
		t.Helper()
		rec, err := insert(db, "Hotels", doc, cf, loc)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	add(hotelRecord("Axel Hotel", "Berlin", 0.9, 0.85), 0.8, &berlin)
	add(hotelRecord("movenpick hotel", "Berlin", 0.85, 0.9), 0.7, &berlin)
	add(hotelRecord("Berlin hotel", "Berlin", 0.8, 0.6), 0.5, &berlin)
	add(hotelRecord("Grand Paris", "Paris", 0.1, 0.7), 0.6, &paris)
	add(hotelRecord("Sad Inn", "Berlin", 0.9, 0.2), 0.4, &berlin)
	return db
}

func TestInsertValidation(t *testing.T) {
	db := New()
	doc := hotelRecord("A", "B", 0.5, 0.5)
	if _, err := insert(db, "", doc, 0.5, nil); err == nil {
		t.Error("empty collection accepted")
	}
	if _, err := insert(db, "H", nil, 0.5, nil); err == nil {
		t.Error("nil doc accepted")
	}
	if _, err := insert(db, "H", doc, 1.5, nil); err == nil {
		t.Error("invalid certainty accepted")
	}
	bad := geo.Point{Lat: 200}
	if _, err := insert(db, "H", doc, 0.5, &bad); err == nil {
		t.Error("invalid location accepted")
	}
	invalidDoc := pxml.Elem("X", pxml.Elem("Y", pxml.Mux(
		pxml.Text("a").WithProb(0.9), pxml.Text("b").WithProb(0.9))))
	if _, err := insert(db, "H", invalidDoc, 0.5, nil); err == nil {
		t.Error("invalid doc accepted")
	}
}

func TestCRUD(t *testing.T) {
	db := New()
	fixed := time.Date(2011, 4, 1, 0, 0, 0, 0, time.UTC)
	db.SetClock(func() time.Time { return fixed })
	doc := hotelRecord("Axel Hotel", "Berlin", 0.9, 0.8)
	rec, err := insert(db, "Hotels", doc, 0.8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Updated != fixed {
		t.Error("clock not used")
	}
	got, ok := db.Get("Hotels", rec.ID)
	if !ok || got.ID != rec.ID {
		t.Fatal("Get failed")
	}
	// Update.
	doc2 := hotelRecord("Axel Hotel", "Berlin", 0.95, 0.9)
	loc := geo.Point{Lat: 52.52, Lon: 13.405}
	if err := update(db, "Hotels", rec.ID, doc2, 0.9, &loc); err != nil {
		t.Fatal(err)
	}
	got, _ = db.Get("Hotels", rec.ID)
	if got.Certainty != 0.9 || got.Location == nil {
		t.Errorf("update not applied: %+v", got)
	}
	// Spatial index knows the new location.
	if ids := db.Near("Hotels", loc, 1000); len(ids) != 1 || ids[0] != rec.ID {
		t.Errorf("Near after update = %v", ids)
	}
	// Delete.
	if err := remove(db, "Hotels", rec.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Get("Hotels", rec.ID); ok {
		t.Error("record survives delete")
	}
	if ids := db.Near("Hotels", loc, 1000); len(ids) != 0 {
		t.Errorf("spatial ghost after delete: %v", ids)
	}
	if err := remove(db, "Hotels", 999); err == nil {
		t.Error("deleting missing record succeeded")
	}
	if err := update(db, "Nope", 1, doc2, 0.5, nil); err == nil {
		t.Error("updating missing collection succeeded")
	}
}

func TestPaperQuery(t *testing.T) {
	db := seedDB(t)
	// The paper's QA query, verbatim modulo whitespace.
	results, err := run(db, `topk(3, for $x in //Hotels
		where $x/City == "Berlin" and $x/User_Attitude == "Positive"
		orderby score($x)
		return $x)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	// Scores must be descending and the sad hotel must rank below the
	// good ones.
	for i := 1; i < len(results); i++ {
		if results[i].Score > results[i-1].Score {
			t.Error("scores not descending")
		}
	}
	names := make([]string, len(results))
	for i, r := range results {
		n, _ := r.Record.Doc.FirstChild("Hotel_Name")
		names[i] = n.TextContent()
	}
	for _, n := range names {
		if n == "Sad Inn" || n == "Grand Paris" {
			t.Errorf("unexpected hotel in top-3: %v", names)
		}
	}
	// Expected score of the top record: certainty 0.8 -> P 0.9 times
	// P(city)=1 times P(positive)=0.85... compute for Axel.
	axel := results[0]
	wantScore := uncertain.ToProbability(0.8) * 1 * 0.85
	if math.Abs(axel.Score-wantScore) > 1e-9 {
		// movenpick could outrank axel: cert 0.7 -> 0.85 * 0.9 = 0.765 vs
		// axel 0.9*0.85=0.765 — a tie broken by ID, so axel first.
		t.Errorf("top score = %v, want %v", axel.Score, wantScore)
	}
}

func TestQuerySpatial(t *testing.T) {
	db := seedDB(t)
	// Hotels within 50 km of Berlin centre.
	results, err := run(db, `for $x in //Hotels where near($x, 52.52, 13.405, 50000) and $x/User_Attitude == "Positive" orderby score($x) return $x`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4 Berlin hotels", len(results))
	}
	for _, r := range results {
		n, _ := r.Record.Doc.FirstChild("Hotel_Name")
		if n.TextContent() == "Grand Paris" {
			t.Error("Paris hotel within Berlin radius")
		}
	}
	// Records without a location never match near().
	noLoc := hotelRecord("Nowhere Inn", "Berlin", 0.5, 0.5)
	if _, err := insert(db, "Hotels", noLoc, 0.5, nil); err != nil {
		t.Fatal(err)
	}
	results, err = run(db, `for $x in //Hotels where near($x, 52.52, 13.405, 50000) return $x`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		n, _ := r.Record.Doc.FirstChild("Hotel_Name")
		if n.TextContent() == "Nowhere Inn" {
			t.Error("location-less record matched near()")
		}
	}
}

func TestQueryNoWhere(t *testing.T) {
	db := seedDB(t)
	results, err := run(db, `for $x in //Hotels return $x`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Errorf("bare query = %d results", len(results))
	}
	for _, r := range results {
		if r.CondP != 1 {
			t.Errorf("CondP = %v without where", r.CondP)
		}
	}
}

// rejectedQueries are the rows of TestQueryParseErrors, and seeds of
// FuzzParse.
var rejectedQueries = []string{
	"",
	"select * from hotels",
	"topk(0, for $x in //H return $x)",
	"topk(3, for $x in //H return $y)",
	`for $x in //H where $x/City = = "a" return $x`,
	`for $x in //H where $x/City = "a" return $x`,
	`for $x in //H where $y/City == "a" return $x`,
	`for $x in //H where $x/City == "a" orderby score($y) return $x`,
	`for $x in //H where near($x, 1, 2) return $x`,
	`for $x in //H where near($x, 1, 2, -5) return $x`,
	`for $x in //H where near($x, 91, 2, 5) return $x`,
	`for $x in //H where $x/Price < "abc" return $x`,
	`for $x in //H return $x trailing`,
	`for $x in //H where $x/City == "unterminated return $x`,
	// The operators the language no longer has. The first three were
	// evaluated as if their conjuncts were independent: on a record whose
	// City is a 0.5/0.5 mux over A and B they gave 0.75, 0.25 and 0.25
	// where the possible worlds give 1, 0 and 0.5.
	`for $x in //H where $x/City == "A" or $x/City == "B" return $x`,
	`for $x in //H where $x/City == "A" and $x/City == "B" return $x`,
	`for $x in //H where $x/City == "A" and $x/City == "A" return $x`,
	`for $x in //H where not $x/City == "A" return $x`,
	`for $x in //H where $x/City != "A" return $x`,
	`for $x in //H where $x/Price < 150 return $x`,
	`for $x in //H where $x/Price == 150 return $x`,
	`for $x in //H where ($x/City == "A") return $x`,
	`for $x in //H where near($x, 1, 2, 5) and near($x, 3, 4, 5) return $x`,
	`for $x in //H where $x/City == 'A' return $x`,
	`for $x in //H where $x/City == "" return $x`,
	`for $x in //H where $x/Geo/Lat == "1" return $x`,
}

func TestQueryParseErrors(t *testing.T) {
	db := New()
	for _, q := range rejectedQueries {
		if _, err := run(db, q); err == nil {
			t.Errorf("query accepted: %q", q)
		}
	}
}

func TestQuerySmartQuotes(t *testing.T) {
	// The paper's own example uses typographic quotes; accept them.
	db := seedDB(t)
	results, err := run(db, `for $x in //Hotels where $x/City == “Berlin” return $x`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Errorf("smart-quote query = %d results", len(results))
	}
}

func TestQueryEmptyCollection(t *testing.T) {
	db := New()
	results, err := run(db, `for $x in //Nothing return $x`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Errorf("results from empty collection: %v", results)
	}
}

func TestCollectionsAndLen(t *testing.T) {
	db := seedDB(t)
	if got := db.Collections(); len(got) != 1 || got[0] != "Hotels" {
		t.Errorf("Collections = %v", got)
	}
	if db.Len("Hotels") != 5 {
		t.Errorf("Len = %d", db.Len("Hotels"))
	}
	if db.Len("Nope") != 0 {
		t.Error("missing collection Len != 0")
	}
}

func TestEachOrderAndEarlyStop(t *testing.T) {
	db := seedDB(t)
	var ids []int64
	db.Each("Hotels", func(r *Record) bool {
		ids = append(ids, r.ID)
		return len(ids) < 3
	})
	if len(ids) != 3 {
		t.Fatalf("visited %d", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Error("not in insertion order")
		}
	}
}

func TestScoreUsesCertainty(t *testing.T) {
	db := New()
	doc := hotelRecord("A", "Berlin", 0.9, 0.9)
	lo, err := insert(db, "Hotels", doc.Clone(), 0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := insert(db, "Hotels", doc.Clone(), 0.9, nil)
	if err != nil {
		t.Fatal(err)
	}
	results, err := run(db, `for $x in //Hotels where $x/City == "Berlin" orderby score($x) return $x`)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Record.ID != hi.ID || results[1].Record.ID != lo.ID {
		t.Error("certainty did not order results")
	}
}

func TestSetIDSequence(t *testing.T) {
	db := New()
	if err := db.SetIDSequence(2, 4); err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 3; i++ {
		rec, err := insert(db, "Hotels", pxml.Elem("Hotel", pxml.ElemText("Hotel_Name", "X")), 0.5, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	for i, want := range []int64{2, 6, 10} {
		if ids[i] != want {
			t.Fatalf("ids = %v, want stride-4 sequence from 2", ids)
		}
	}
	// Re-seeding a non-empty database must be refused.
	if err := db.SetIDSequence(1, 1); err == nil {
		t.Fatal("re-seed of non-empty database accepted")
	}
	if err := New().SetIDSequence(0, 1); err == nil {
		t.Fatal("start 0 accepted")
	}
	if err := New().SetIDSequence(1, 0); err == nil {
		t.Fatal("stride 0 accepted")
	}
}
