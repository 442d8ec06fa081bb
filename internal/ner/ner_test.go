package ner

import (
	"testing"

	"repro/internal/gazetteer"
	"repro/internal/geo"
	"repro/internal/ontology"
)

func testExtractor(t *testing.T) *Extractor {
	t.Helper()
	var entries []gazetteer.Entry
	add := func(name string, lat, lon float64, country string, pop int64) {
		entries = append(entries, gazetteer.Entry{
			Name: name, Location: geo.Point{Lat: lat, Lon: lon},
			Feature: gazetteer.FeatureCity, Country: country, Population: pop,
		})
	}
	add("Berlin", 52.52, 13.405, "DE", 3700000)
	add("Berlin", 44.47, -71.18, "US", 10000)
	add("Paris", 48.85, 2.35, "FR", 2100000)
	add("Paris", 33.66, -95.55, "US", 25000)
	add("Cairo", 30.04, 31.23, "EG", 9500000)
	add("Amsterdam", 52.36, 4.90, "NL", 870000)
	g, err := gazetteer.New(entries)
	if err != nil {
		t.Fatal(err)
	}
	o := ontology.New()
	return NewExtractor(g, o)
}

func findEntity(ents []Entity, typ Type, norm string) *Entity {
	for i := range ents {
		if ents[i].Type == typ && ents[i].Norm == norm {
			return &ents[i]
		}
	}
	return nil
}

func TestInformalPaperMessage1(t *testing.T) {
	x := testExtractor(t)
	ents := x.ExtractInformal("berlin has some nice hotels i just loved the hetero friendly love that word Axel Hotel in Berlin.")
	hotel := findEntity(ents, TypeFacility, "axel hotel")
	if hotel == nil {
		t.Fatalf("Axel Hotel not found in %+v", ents)
	}
	if hotel.Concept != "hotel" {
		t.Errorf("concept = %q", hotel.Concept)
	}
	loc := findEntity(ents, TypeLocation, "berlin")
	if loc == nil {
		t.Fatalf("Berlin not found in %+v", ents)
	}
	if len(loc.GazetteerIDs) != 2 {
		t.Errorf("Berlin candidates = %d, want 2", len(loc.GazetteerIDs))
	}
	if loc.Confidence <= 0 {
		t.Errorf("location confidence = %v", loc.Confidence)
	}
}

func TestInformalPaperMessage2Hashtag(t *testing.T) {
	x := testExtractor(t)
	// Lowercase "berlin" + hashtag hotel name: exactly the ill-behaved
	// form the informal recogniser must survive.
	ents := x.ExtractInformal("Good morning Berlin. The sun is out!!!! Very impressed by the customer service at #movenpick hotel in berlin. Well done guys!")
	hotel := findEntity(ents, TypeFacility, "movenpick hotel")
	if hotel == nil {
		t.Fatalf("movenpick hotel not found in %+v", ents)
	}
	loc := findEntity(ents, TypeLocation, "berlin")
	if loc == nil {
		t.Fatalf("lowercase berlin not found in %+v", ents)
	}
}

func TestInformalPaperMessage3Nested(t *testing.T) {
	x := testExtractor(t)
	// "In Berlin hotel room": Template 3 extracts hotel "Berlin hotel" AND
	// location "Berlin" — a nested mention.
	ents := x.ExtractInformal("In Berlin hotel room, nice enough, weather grim however")
	hotel := findEntity(ents, TypeFacility, "berlin hotel")
	if hotel == nil {
		t.Fatalf("Berlin hotel not found in %+v", ents)
	}
	loc := findEntity(ents, TypeLocation, "berlin")
	if loc == nil {
		t.Fatalf("nested Berlin not found in %+v", ents)
	}
}

func TestInformalLowercaseToponym(t *testing.T) {
	x := testExtractor(t)
	ents := x.ExtractInformal("heading to cairo tmrw, any tips?")
	loc := findEntity(ents, TypeLocation, "cairo")
	if loc == nil {
		t.Fatalf("lowercase cairo missed: %+v", ents)
	}
}

func TestInformalMisspelledToponym(t *testing.T) {
	x := testExtractor(t)
	ents := x.ExtractInformal("we arrived in amsterdm yesterday")
	loc := findEntity(ents, TypeLocation, "amsterdm")
	if loc == nil {
		t.Fatalf("misspelled amsterdam missed: %+v", ents)
	}
	if len(loc.GazetteerIDs) == 0 {
		t.Error("fuzzy match carried no gazetteer candidates")
	}
	// Fuzzy evidence must score below an exact match.
	exact := x.ExtractInformal("we arrived in amsterdam yesterday")
	exactLoc := findEntity(exact, TypeLocation, "amsterdam")
	if exactLoc == nil {
		t.Fatal("exact amsterdam missed")
	}
	if loc.Confidence >= exactLoc.Confidence {
		t.Errorf("fuzzy cf %v >= exact cf %v", loc.Confidence, exactLoc.Confidence)
	}
}

func TestInformalNoEntities(t *testing.T) {
	x := testExtractor(t)
	if ents := x.ExtractInformal("just had a great day, so happy"); len(ents) != 0 {
		t.Errorf("spurious entities: %+v", ents)
	}
	if ents := x.ExtractInformal(""); len(ents) != 0 {
		t.Errorf("entities from empty input: %+v", ents)
	}
}

func TestFacilityRightExtension(t *testing.T) {
	x := testExtractor(t)
	// "hotel Lola" pattern: the name follows the cue word.
	ents := x.ExtractInformal("we stayed at hotel Lola last week")
	fac := findEntity(ents, TypeFacility, "hotel lola")
	if fac == nil {
		t.Fatalf("hotel Lola missed: %+v", ents)
	}
	// But bare "hotel room" must NOT become a facility name.
	ents = x.ExtractInformal("the hotel room was fine")
	if fac := findEntity(ents, TypeFacility, "hotel room"); fac != nil {
		t.Errorf("'hotel room' misextracted as a facility")
	}
}

func TestFoxSportsGrill(t *testing.T) {
	x := testExtractor(t)
	// From the paper: "Fox Sports Grill is a few blocks north of your hotel".
	ents := x.ExtractInformal("Fox Sports Grill is a few blocks north of your hotel")
	fac := findEntity(ents, TypeFacility, "fox sports grill")
	if fac == nil {
		t.Fatalf("Fox Sports Grill missed: %+v", ents)
	}
	if fac.Concept != "restaurant" {
		t.Errorf("concept = %q, want restaurant", fac.Concept)
	}
}

func TestOverlapResolutionDeterministic(t *testing.T) {
	x := testExtractor(t)
	a := x.ExtractInformal("lovely stay at the Axel Hotel in Berlin near Paris")
	b := x.ExtractInformal("lovely stay at the Axel Hotel in Berlin near Paris")
	if len(a) != len(b) {
		t.Fatalf("non-deterministic extraction: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Norm != b[i].Norm || a[i].Start != b[i].Start {
			t.Errorf("entity %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Entities are ordered by position.
	for i := 1; i < len(a); i++ {
		if a[i].Start < a[i-1].Start {
			t.Error("entities not position-ordered")
		}
	}
}

func TestConfidenceBounds(t *testing.T) {
	x := testExtractor(t)
	msgs := []string{
		"Axel Hotel in Berlin",
		"#movenpick hotel in berlin is gr8",
		"Fox Sports Grill is a few blocks north of your hotel",
		"paris paris paris",
	}
	for _, m := range msgs {
		for _, e := range x.ExtractInformal(m) {
			if err := e.Confidence.Validate(); err != nil {
				t.Errorf("message %q entity %q: %v", m, e.Text, err)
			}
			if e.Confidence <= 0 {
				t.Errorf("message %q entity %q: non-positive confidence", m, e.Text)
			}
		}
	}
}
