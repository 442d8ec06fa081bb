package gazetteer

import (
	"strings"
	"testing"

	"repro/internal/geo"
)

func addTestEntry(t *testing.T, g *Gazetteer, name string, lat, lon float64, feature FeatureClass, country string, pop int64) *Entry {
	t.Helper()
	e, err := g.Add(Entry{
		Name:       name,
		Location:   geo.Point{Lat: lat, Lon: lon},
		Feature:    feature,
		Country:    country,
		Population: pop,
	})
	if err != nil {
		t.Fatalf("Add(%q): %v", name, err)
	}
	return e
}

func TestAddAndLookup(t *testing.T) {
	g := New()
	addTestEntry(t, g, "Berlin", 52.52, 13.405, FeatureCity, "DE", 3700000)
	addTestEntry(t, g, "Berlin", 44.47, -71.18, FeatureCity, "US", 10000)
	addTestEntry(t, g, "Paris", 48.85, 2.35, FeatureCity, "FR", 2100000)

	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	if g.NameCount() != 2 {
		t.Fatalf("NameCount = %d", g.NameCount())
	}
	refs := g.Lookup("berlin") // case-insensitive
	if len(refs) != 2 {
		t.Fatalf("Lookup(berlin) = %d refs", len(refs))
	}
	if refs[0].ID >= refs[1].ID {
		t.Error("lookup results not in ID order")
	}
	if got := g.Lookup("munich"); len(got) != 0 {
		t.Errorf("unknown lookup = %v", got)
	}
}

func TestAddValidation(t *testing.T) {
	g := New()
	if _, err := g.Add(Entry{Name: "", Location: geo.Point{}}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := g.Add(Entry{Name: "X", Location: geo.Point{Lat: 200}}); err == nil {
		t.Error("bad location accepted")
	}
	if _, err := g.Add(Entry{Name: "!!!", Location: geo.Point{}}); err == nil {
		t.Error("name normalising to empty accepted")
	}
}

func TestAltNameLookup(t *testing.T) {
	g := New()
	_, err := g.Add(Entry{
		Name:     "München",
		AltNames: []string{"Munich", "Muenchen"},
		Location: geo.Point{Lat: 48.14, Lon: 11.58},
		Feature:  FeatureCity,
		Country:  "DE",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"München", "Munich", "Muenchen", "munich"} {
		if refs := g.Lookup(q); len(refs) != 1 {
			t.Errorf("Lookup(%q) = %d refs", q, len(refs))
		}
	}
}

func TestLookupFuzzy(t *testing.T) {
	g := New()
	addTestEntry(t, g, "Movenpick Hotel", 52.52, 13.40, FeatureCity, "DE", 0)
	addTestEntry(t, g, "Berlin", 52.52, 13.405, FeatureCity, "DE", 3700000)

	// Transposition within distance 1.
	ms := g.LookupFuzzy("Movenpick Hotle", 2)
	if len(ms) == 0 {
		t.Fatal("fuzzy lookup found nothing")
	}
	if ms[0].Name != "movenpick hotel" {
		t.Errorf("best match = %q", ms[0].Name)
	}
	if ms[0].Distance == 0 {
		t.Error("misspelling matched at distance 0")
	}
	// Exact match ranks first at distance 0.
	ms = g.LookupFuzzy("berlin", 2)
	if len(ms) == 0 || ms[0].Distance != 0 || ms[0].Name != "berlin" {
		t.Errorf("exact-first: %+v", ms)
	}
	// maxDist 0 behaves like exact lookup.
	if ms := g.LookupFuzzy("berlinn", 0); len(ms) != 0 {
		t.Errorf("distance-0 fuzzy found %v", ms)
	}
	if ms := g.LookupFuzzy("", 2); ms != nil {
		t.Errorf("empty query = %v", ms)
	}
}

func TestLookupFuzzyFirstLetterEdit(t *testing.T) {
	g := New()
	addTestEntry(t, g, "Berlin", 52.52, 13.405, FeatureCity, "DE", 0)
	// First letter wrong: "merlin" -> "berlin" needs a cross-bucket scan.
	ms := g.LookupFuzzy("merlin", 1)
	if len(ms) != 1 || ms[0].Name != "berlin" {
		t.Errorf("first-letter edit: %+v", ms)
	}
}

func TestHasName(t *testing.T) {
	g := New()
	addTestEntry(t, g, "Axel Hotel", 52.5, 13.4, FeatureCity, "DE", 0)
	if !g.HasName("axel hotel") || !g.HasName("Axel  Hotel!") {
		t.Error("HasName misses normalised variants")
	}
	if g.HasName("grand hotel") {
		t.Error("HasName false positive")
	}
}

func TestNear(t *testing.T) {
	g := New()
	b := addTestEntry(t, g, "Berlin", 52.52, 13.405, FeatureCity, "DE", 3700000)
	addTestEntry(t, g, "Potsdam", 52.39, 13.06, FeatureCity, "DE", 180000)
	addTestEntry(t, g, "Paris", 48.85, 2.35, FeatureCity, "FR", 2100000)

	near := g.Near(geo.Point{Lat: 52.52, Lon: 13.405}, 50000)
	if len(near) != 2 {
		t.Fatalf("Near 50km = %d entries", len(near))
	}
	if near[0].ID != b.ID {
		t.Error("nearest-first ordering violated")
	}
}

func TestNearestCity(t *testing.T) {
	g := New()
	addTestEntry(t, g, "Mill Creek", 52.50, 13.40, FeatureStream, "DE", 0)
	addTestEntry(t, g, "Berlin", 52.52, 13.405, FeatureCity, "DE", 3700000)
	e, ok := g.NearestCity(geo.Point{Lat: 52.505, Lon: 13.401})
	if !ok {
		t.Fatal("no city found")
	}
	// The stream is closer but must be skipped.
	if e.Name != "Berlin" {
		t.Errorf("NearestCity = %q", e.Name)
	}
	empty := New()
	if _, ok := empty.NearestCity(geo.Point{}); ok {
		t.Error("empty gazetteer returned a city")
	}
}

func TestGet(t *testing.T) {
	g := New()
	e := addTestEntry(t, g, "Berlin", 52.52, 13.405, FeatureCity, "DE", 0)
	got, ok := g.Get(e.ID)
	if !ok || got.Name != "Berlin" {
		t.Errorf("Get = %v, %v", got, ok)
	}
	if _, ok := g.Get(99999); ok {
		t.Error("missing ID found")
	}
}

func TestEachEntryEarlyStop(t *testing.T) {
	g := New()
	for i := 0; i < 10; i++ {
		addTestEntry(t, g, "City"+strings.Repeat("x", i+1), 10, 10, FeatureCity, "US", 0)
	}
	n := 0
	g.EachEntry(func(*Entry) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("visited %d, want 3", n)
	}
}

func TestCountryTables(t *testing.T) {
	c, ok := CountryByCode("DE")
	if !ok || c.Name != "Germany" {
		t.Errorf("CountryByCode(DE) = %+v, %v", c, ok)
	}
	if _, ok := CountryByCode("XX"); ok {
		t.Error("unknown code found")
	}
	// Every country box must validate.
	for _, c := range Countries {
		if err := c.Box.Validate(); err != nil {
			t.Errorf("country %s: %v", c.Code, err)
		}
		if c.Weight <= 0 {
			t.Errorf("country %s non-positive weight", c.Code)
		}
	}
}
