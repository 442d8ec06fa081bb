package ontology

import (
	"testing"

	"repro/internal/gazetteer"
	"repro/internal/geo"
)

func TestSeededTaxonomy(t *testing.T) {
	o := New()
	if !o.IsA("hotel", "lodging") {
		t.Error("hotel not a lodging")
	}
	if !o.IsA("hotel", "place") {
		t.Error("hotel not transitively a place")
	}
	if !o.IsA("hotel", "hotel") {
		t.Error("hotel not a hotel (reflexivity)")
	}
	if o.IsA("hotel", "agriculture") {
		t.Error("hotel is agriculture")
	}
	if o.IsA("nonexistent", "place") {
		t.Error("unknown concept matched")
	}
}

func TestLexicon(t *testing.T) {
	o := New()
	cases := []struct {
		word, ancestor string
		want           bool
	}{
		{"inn", "lodging", true},
		{"suites", "lodging", true},
		{"Hotel", "lodging", true}, // case-insensitive
		{"grill", "food", true},
		{"jam", "transport", true},
		{"locusts", "agriculture", true},
		{"maize", "crop", true},
		{"sunny", "weather", true},
		{"inn", "agriculture", false},
		{"xyzzy", "place", false},
	}
	for _, c := range cases {
		concept, ok := o.ConceptOf(c.word)
		if got := ok && o.IsA(concept, c.ancestor); got != c.want {
			t.Errorf("%q evokes %q = %v, want %v", c.word, c.ancestor, got, c.want)
		}
	}
}

func TestAddConceptValidation(t *testing.T) {
	o := New()
	if err := o.AddConcept("", ""); err == nil {
		t.Error("empty concept accepted")
	}
	if err := o.AddConcept("spa", "nonexistent"); err == nil {
		t.Error("missing parent accepted")
	}
	if err := o.AddConcept("spa", "lodging"); err != nil {
		t.Errorf("valid concept rejected: %v", err)
	}
	if !o.IsA("spa", "place") {
		t.Error("new concept not wired into taxonomy")
	}
}

func TestAddLexemeValidation(t *testing.T) {
	o := New()
	if err := o.AddLexeme("", "hotel"); err == nil {
		t.Error("empty lexeme accepted")
	}
	if err := o.AddLexeme("palace", "castle"); err == nil {
		t.Error("lexeme with unknown concept accepted")
	}
	if err := o.AddLexeme("palace", "hotel"); err != nil {
		t.Errorf("valid lexeme rejected: %v", err)
	}
	if c, ok := o.ConceptOf("Palace"); !ok || c != "hotel" {
		t.Errorf("ConceptOf(Palace) = %q, %v", c, ok)
	}
}

func TestAncestors(t *testing.T) {
	o := New()
	anc := o.Ancestors("hotel")
	if len(anc) != 2 || anc[0] != "lodging" || anc[1] != "place" {
		t.Errorf("Ancestors(hotel) = %v", anc)
	}
	if anc := o.Ancestors("place"); len(anc) != 0 {
		t.Errorf("Ancestors(place) = %v", anc)
	}
	if anc := o.Ancestors("nope"); anc != nil {
		t.Errorf("Ancestors(nope) = %v", anc)
	}
}

func TestContainment(t *testing.T) {
	g := gazetteer.New()
	if _, err := g.Add(gazetteer.Entry{
		Name: "Berlin", Location: geo.Point{Lat: 52.52, Lon: 13.40},
		Feature: gazetteer.FeatureCity, Country: "DE", Population: 3700000,
	}); err != nil {
		t.Fatal(err)
	}
	o := New()
	o.LoadContainment(g)
	if c, ok := o.CountryOf("berlin"); !ok || c != "DE" {
		t.Errorf("CountryOf = %q, %v", c, ok)
	}
	if _, ok := o.CountryOf("atlantis"); ok {
		t.Error("unknown place contained")
	}
}

func TestLoadContainment(t *testing.T) {
	g := gazetteer.New()
	mustAdd := func(name string, lat, lon float64, country string, pop int64, f gazetteer.FeatureClass) {
		t.Helper()
		_, err := g.Add(gazetteer.Entry{
			Name: name, Location: geo.Point{Lat: lat, Lon: lon},
			Feature: f, Country: country, Population: pop,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	mustAdd("Berlin", 52.52, 13.40, "DE", 3700000, gazetteer.FeatureCity)
	mustAdd("Berlin", 44.47, -71.18, "US", 10000, gazetteer.FeatureCity)
	mustAdd("Mill Creek", 40, -100, "US", 0, gazetteer.FeatureStream)

	o := New()
	o.LoadContainment(g)
	// Most populous Berlin wins.
	if c, ok := o.CountryOf("Berlin"); !ok || c != "DE" {
		t.Errorf("CountryOf(Berlin) = %q, %v", c, ok)
	}
	// Streams are not containment facts.
	if _, ok := o.CountryOf("Mill Creek"); ok {
		t.Error("stream loaded as containment fact")
	}
}

func TestConceptsSorted(t *testing.T) {
	o := New()
	cs := o.Concepts()
	if len(cs) < 10 {
		t.Fatalf("only %d concepts", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i-1] >= cs[i] {
			t.Fatalf("concepts unsorted at %d: %q >= %q", i, cs[i-1], cs[i])
		}
	}
}
