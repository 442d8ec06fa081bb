package gazetteer

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/geo"
)

func testEntry(name string, lat, lon float64, feature FeatureClass, country string, pop int64) Entry {
	return Entry{
		Name:       name,
		Location:   geo.Point{Lat: lat, Lon: lon},
		Feature:    feature,
		Country:    country,
		Population: pop,
	}
}

func build(t *testing.T, entries ...Entry) *Gazetteer {
	t.Helper()
	g, err := New(entries)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

func TestAddAndLookup(t *testing.T) {
	g := build(t,
		testEntry("Berlin", 52.52, 13.405, FeatureCity, "DE", 3700000),
		testEntry("Berlin", 44.47, -71.18, FeatureCity, "US", 10000),
		testEntry("Paris", 48.85, 2.35, FeatureCity, "FR", 2100000),
	)

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
	if refs[0].ID != 1 || refs[1].ID != 2 {
		t.Errorf("lookup IDs = %d, %d; want input order 1, 2", refs[0].ID, refs[1].ID)
	}
	if refs[0].Country != "DE" || refs[0].NormName != "berlin" {
		t.Errorf("first Berlin = %+v", refs[0])
	}
	if got := g.Lookup("munich"); len(got) != 0 {
		t.Errorf("unknown lookup = %v", got)
	}
}

func TestAddValidation(t *testing.T) {
	for _, bad := range []Entry{
		{Name: "", Location: geo.Point{}},
		{Name: "X", Location: geo.Point{Lat: 200}},
		{Name: "!!!", Location: geo.Point{}},
	} {
		ok := testEntry("Berlin", 52.52, 13.405, FeatureCity, "DE", 0)
		if _, err := New([]Entry{ok, bad}); err == nil {
			t.Errorf("New accepted %+v", bad)
		}
	}
	empty := build(t)
	if empty.Len() != 0 || empty.NameCount() != 0 {
		t.Errorf("empty gazetteer: Len %d, NameCount %d", empty.Len(), empty.NameCount())
	}
}

func TestAltNameLookup(t *testing.T) {
	g := build(t, Entry{
		Name:     "München",
		AltNames: []string{"Munich", "Muenchen"},
		Location: geo.Point{Lat: 48.14, Lon: 11.58},
		Feature:  FeatureCity,
		Country:  "DE",
	})
	for _, q := range []string{"München", "Munich", "Muenchen", "munich"} {
		if refs := g.Lookup(q); len(refs) != 1 {
			t.Errorf("Lookup(%q) = %d refs", q, len(refs))
		}
	}
}

func TestLookupFuzzy(t *testing.T) {
	g := build(t,
		testEntry("Movenpick Hotel", 52.52, 13.40, FeatureCity, "DE", 0),
		testEntry("Berlin", 52.52, 13.405, FeatureCity, "DE", 3700000),
	)

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
	g := build(t, testEntry("Berlin", 52.52, 13.405, FeatureCity, "DE", 0))
	// First letter wrong: "merlin" -> "berlin" needs a cross-bucket scan.
	ms := g.LookupFuzzy("merlin", 1)
	if len(ms) != 1 || ms[0].Name != "berlin" {
		t.Errorf("first-letter edit: %+v", ms)
	}
}

func TestHasName(t *testing.T) {
	g := build(t, testEntry("Axel Hotel", 52.5, 13.4, FeatureCity, "DE", 0))
	if !g.HasName("axel hotel") || !g.HasName("Axel  Hotel!") {
		t.Error("HasName misses normalised variants")
	}
	if g.HasName("grand hotel") {
		t.Error("HasName false positive")
	}
}

func TestNear(t *testing.T) {
	g := build(t,
		testEntry("Berlin", 52.52, 13.405, FeatureCity, "DE", 3700000),
		testEntry("Potsdam", 52.39, 13.06, FeatureCity, "DE", 180000),
		testEntry("Paris", 48.85, 2.35, FeatureCity, "FR", 2100000),
	)

	near := g.Near(geo.Point{Lat: 52.52, Lon: 13.405}, 50000)
	if len(near) != 2 {
		t.Fatalf("Near 50km = %d entries", len(near))
	}
	if near[0].Name != "Berlin" {
		t.Error("nearest-first ordering violated")
	}
}

// Near's linear scan answers exactly what the R-tree it replaced
// answered: the same entries in the same distance order.
func TestNearMatchesRTree(t *testing.T) {
	g, err := Synthesize(Config{Names: 2000, Seed: 2011})
	if err != nil {
		t.Fatal(err)
	}
	tree := geo.NewRTree[int64]()
	g.EachEntry(func(e *Entry) bool {
		if err := tree.Insert(geo.BBoxOf(e.Location), e.ID); err != nil {
			t.Fatal(err)
		}
		return true
	})
	rng := rand.New(rand.NewSource(2011))
	for q := 0; q < 200; q++ {
		var p geo.Point
		if q%4 == 0 { // centred on an entry: distance 0 must come first
			e, _ := g.Get(1 + rng.Int63n(int64(g.Len())))
			p = e.Location
		} else {
			c := Countries[rng.Intn(len(Countries))]
			p = randomPointIn(rng, c.Box)
		}
		radius := rng.Float64() * 500_000
		if q%10 == 0 {
			radius = 0
		}
		var want []int64
		ns := tree.Within(p, radius)
		// Within orders by distance only; break its ties by ID as Near does.
		slices.SortFunc(ns, func(a, b geo.Neighbor[int64]) int {
			return cmp.Or(cmp.Compare(a.DistanceMeters, b.DistanceMeters), cmp.Compare(a.Value, b.Value))
		})
		for _, n := range ns {
			want = append(want, n.Value)
		}
		var got []int64
		for _, e := range g.Near(p, radius) {
			got = append(got, e.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("query %d at %v r=%.0f: Near = %v, R-tree = %v", q, p, radius, got, want)
		}
	}
}

func TestGet(t *testing.T) {
	g := build(t,
		testEntry("Berlin", 52.52, 13.405, FeatureCity, "DE", 0),
		testEntry("Paris", 48.85, 2.35, FeatureCity, "FR", 0),
	)
	got, ok := g.Get(2)
	if !ok || got.Name != "Paris" || got.ID != 2 {
		t.Errorf("Get(2) = %v, %v", got, ok)
	}
	for _, id := range []int64{0, -1, 3, 99999} {
		if e, ok := g.Get(id); ok || e != nil {
			t.Errorf("Get(%d) = %v, %v; want nil, false", id, e, ok)
		}
	}
}

func TestEachEntryEarlyStop(t *testing.T) {
	var entries []Entry
	for i := 0; i < 10; i++ {
		entries = append(entries, testEntry("City"+strings.Repeat("x", i+1), 10, 10, FeatureCity, "US", 0))
	}
	g := build(t, entries...)
	var visited []int64
	g.EachEntry(func(e *Entry) bool {
		visited = append(visited, e.ID)
		return len(visited) < 3
	})
	if !slices.Equal(visited, []int64{1, 2, 3}) {
		t.Errorf("visited %v, want [1 2 3] (ID order, stopped after 3)", visited)
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
