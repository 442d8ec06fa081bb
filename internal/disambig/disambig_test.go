package disambig

import (
	"math"
	"testing"

	"repro/internal/gazetteer"
	"repro/internal/geo"
	"repro/internal/ontology"
)

type fixture struct {
	gaz      *gazetteer.Gazetteer
	ont      *ontology.Ontology
	resolver *Resolver
	ids      map[string]int64 // "name/country" -> ID
}

// newFixture builds the standard candidate set plus any extra entries.
func newFixture(t *testing.T, extra ...gazetteer.Entry) *fixture {
	t.Helper()
	var entries []gazetteer.Entry
	add := func(name string, lat, lon float64, country string, pop int64, fc gazetteer.FeatureClass) {
		entries = append(entries, gazetteer.Entry{
			Name: name, Location: geo.Point{Lat: lat, Lon: lon},
			Feature: fc, Country: country, Population: pop,
		})
	}
	add("Berlin", 52.52, 13.405, "DE", 3_700_000, gazetteer.FeatureCity)
	add("Berlin", 44.47, -71.18, "US", 10_000, gazetteer.FeatureCity)
	add("Paris", 48.85, 2.35, "FR", 2_100_000, gazetteer.FeatureCity)
	add("Paris", 33.66, -95.55, "US", 25_000, gazetteer.FeatureCity)
	add("Potsdam", 52.39, 13.06, "DE", 180_000, gazetteer.FeatureCity)
	add("Potsdam", 44.66, -74.98, "US", 9_000, gazetteer.FeatureCity)
	add("Cairo", 30.04, 31.23, "EG", 9_500_000, gazetteer.FeatureCity)
	add("Cairo", 37.00, -89.17, "US", 2_500, gazetteer.FeatureCity)
	add("Mill Creek", 40.0, -100.0, "US", 0, gazetteer.FeatureStream)
	g, err := gazetteer.New(append(entries, extra...))
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{gaz: g, ids: make(map[string]int64)}
	g.EachEntry(func(e *gazetteer.Entry) bool {
		f.ids[e.Name+"/"+e.Country] = e.ID
		return true
	})
	f.ont = ontology.New()
	f.ont.LoadContainment(f.gaz)
	f.resolver = NewResolver(f.gaz, f.ont)
	return f
}

func TestResolvePriorPrefersPopulous(t *testing.T) {
	f := newFixture(t)
	res, err := f.resolver.ResolvePriorOnly("Berlin")
	if err != nil {
		t.Fatal(err)
	}
	best, ok := res.Best()
	if !ok {
		t.Fatal("no candidates")
	}
	if best.Entry.Country != "DE" {
		t.Errorf("prior-only best = %s/%s", best.Entry.Name, best.Entry.Country)
	}
	if best.P <= 0.5 {
		t.Errorf("best probability = %v", best.P)
	}
	// Country distribution mirrors the candidates.
	if res.Country.P("Germany") <= res.Country.P("United States") {
		t.Errorf("country dist: %v", res.Country.Normalized())
	}
}

func TestResolveCountryHintOverridesPrior(t *testing.T) {
	f := newFixture(t)
	res, err := f.resolver.Resolve("Berlin", Context{CountryHint: "US"})
	if err != nil {
		t.Fatal(err)
	}
	best, _ := res.Best()
	if best.Entry.Country != "US" {
		t.Errorf("hinted best = %s/%s", best.Entry.Name, best.Entry.Country)
	}
}

func TestResolveCoToponymCoherence(t *testing.T) {
	f := newFixture(t)
	// "Potsdam" near "Berlin": the German pair should cohere; likewise the
	// US pair when the co-mention is the US Berlin.
	deBerlin, _ := f.gaz.Get(f.ids["Berlin/DE"])
	usBerlin, _ := f.gaz.Get(f.ids["Berlin/US"])

	res, err := f.resolver.Resolve("Potsdam", Context{
		CoToponyms: [][]*gazetteer.Entry{{deBerlin}},
	})
	if err != nil {
		t.Fatal(err)
	}
	best, _ := res.Best()
	if best.Entry.Country != "DE" {
		t.Errorf("with German co-toponym, best = %s", best.Entry.Country)
	}

	res, err = f.resolver.Resolve("Potsdam", Context{
		CoToponyms: [][]*gazetteer.Entry{{usBerlin}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// US Potsdam is ~330 km from US Berlin; German Potsdam has a 20x
	// population prior. Coherence must at least close most of the gap.
	var pUS, pDE float64
	for _, c := range res.Candidates {
		switch c.Entry.Country {
		case "US":
			pUS = c.P
		case "DE":
			pDE = c.P
		}
	}
	noCtx, _ := f.resolver.ResolvePriorOnly("Potsdam")
	var pUSprior float64
	for _, c := range noCtx.Candidates {
		if c.Entry.Country == "US" {
			pUSprior = c.P
		}
	}
	if pUS <= pUSprior {
		t.Errorf("US co-toponym did not raise P(US Potsdam): %v <= %v (DE %v)", pUS, pUSprior, pDE)
	}
}

func TestResolveAnchorProximity(t *testing.T) {
	f := newFixture(t)
	anchor := geo.Point{Lat: 37.0, Lon: -89.0} // near Cairo, Illinois
	res, err := f.resolver.Resolve("Cairo", Context{Anchor: &anchor})
	if err != nil {
		t.Fatal(err)
	}
	best, _ := res.Best()
	if best.Entry.Country != "US" {
		t.Errorf("anchored best = %s/%s; candidates %+v", best.Entry.Name, best.Entry.Country, res.Candidates)
	}
}

func TestResolveUnknownName(t *testing.T) {
	f := newFixture(t)
	res, err := f.resolver.Resolve("Atlantis", Context{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 0 {
		t.Errorf("unknown name candidates: %+v", res.Candidates)
	}
	if _, ok := res.Best(); ok {
		t.Error("unknown name has a best candidate")
	}
	if _, err := f.resolver.Resolve("", Context{}); err == nil {
		t.Error("empty name accepted")
	}
}

func TestResolveProbabilitiesSumToOne(t *testing.T) {
	f := newFixture(t)
	for _, name := range []string{"Berlin", "Paris", "Cairo", "Potsdam"} {
		res, err := f.resolver.Resolve(name, Context{})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, c := range res.Candidates {
			if c.P < 0 || c.P > 1 {
				t.Errorf("%s: probability out of range: %v", name, c.P)
			}
			sum += c.P
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: probabilities sum to %v", name, sum)
		}
		var csum float64
		for _, a := range res.Country.Normalized() {
			csum += a.P
		}
		if math.Abs(csum-1) > 1e-9 {
			t.Errorf("%s: country probabilities sum to %v", name, csum)
		}
	}
}

func TestResolveEntropyDropsWithEvidence(t *testing.T) {
	f := newFixture(t)
	noCtx, err := f.resolver.ResolvePriorOnly("Potsdam")
	if err != nil {
		t.Fatal(err)
	}
	deBerlin, _ := f.gaz.Get(f.ids["Berlin/DE"])
	withCtx, err := f.resolver.Resolve("Potsdam", Context{
		CoToponyms: [][]*gazetteer.Entry{{deBerlin}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if withCtx.Entropy >= noCtx.Entropy {
		t.Errorf("entropy did not drop with evidence: %v >= %v", withCtx.Entropy, noCtx.Entropy)
	}
}

func TestResolveEntries(t *testing.T) {
	f := newFixture(t)
	ids := []int64{f.ids["Berlin/DE"], f.ids["Berlin/US"]}
	res, err := f.resolver.ResolveEntries("berlin", ids, Context{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 2 {
		t.Fatalf("candidates = %d", len(res.Candidates))
	}
	// Unknown IDs are skipped silently.
	res, err = f.resolver.ResolveEntries("berlin", []int64{99999}, Context{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 0 {
		t.Errorf("ghost candidates: %+v", res.Candidates)
	}
}

func TestPreferCities(t *testing.T) {
	// A stream named Paris competes with the cities.
	f := newFixture(t, gazetteer.Entry{
		Name: "Paris", Location: geo.Point{Lat: 45, Lon: -93},
		Feature: gazetteer.FeatureStream, Country: "US",
	})
	res, err := f.resolver.Resolve("Paris", Context{PreferCities: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if c.Entry.Feature == gazetteer.FeatureStream && c.P >= res.Candidates[0].P {
			t.Error("stream outranked cities despite PreferCities")
		}
	}
}

func TestGroundRelative(t *testing.T) {
	berlin := geo.Point{Lat: 52.52, Lon: 13.405}
	region := geo.NewDirectionRegion(berlin, 0)
	pt, radius, ok := GroundRelative(region)
	if !ok {
		t.Fatal("grounding failed")
	}
	if pt.Lat <= berlin.Lat {
		t.Errorf("grounded point %v not north of anchor", pt)
	}
	if radius <= 0 {
		t.Errorf("radius = %v", radius)
	}
	// Disjoint intersection grounds nothing.
	empty := geo.IntersectRegions{
		geo.NewNearRegion(berlin, 100),
		geo.NewNearRegion(geo.Point{Lat: -33, Lon: 151}, 100),
	}
	if _, _, ok := GroundRelative(empty); ok {
		t.Error("empty region grounded")
	}
}
