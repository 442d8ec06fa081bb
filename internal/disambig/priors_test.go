package disambig

import (
	"testing"

	"repro/internal/gazetteer"
	"repro/internal/geo"
	"repro/internal/ontology"
)

// ambiguousParis builds a gazetteer where the population prior favours
// Paris (FR) over Paris (TX).
func ambiguousParis(t *testing.T) (*gazetteer.Gazetteer, *gazetteer.Entry, *gazetteer.Entry) {
	t.Helper()
	g := gazetteer.New()
	fr, err := g.Add(gazetteer.Entry{Name: "Paris", Location: geo.Point{Lat: 48.8566, Lon: 2.3522}, Country: "FR", Population: 2_100_000, Feature: gazetteer.FeatureCity})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := g.Add(gazetteer.Entry{Name: "Paris", Location: geo.Point{Lat: 33.6609, Lon: -95.5555}, Country: "US", Population: 25_000, Feature: gazetteer.FeatureCity})
	if err != nil {
		t.Fatal(err)
	}
	return g, fr, tx
}

// TestPriorsReinforcementFlipsResolution is the paper's reinforcement
// effect in isolation: before feedback, prominence picks Paris (FR);
// after repeated confirmations of the Texas interpretation, the same
// mention resolves to Paris (TX).
func TestPriorsReinforcementFlipsResolution(t *testing.T) {
	g, fr, tx := ambiguousParis(t)
	r := NewResolver(g, ontology.New())

	res, err := r.Resolve("Paris", Context{})
	if err != nil {
		t.Fatal(err)
	}
	best, ok := res.Best()
	if !ok || best.Entry.ID != fr.ID {
		t.Fatalf("baseline resolution picked entry %+v, want Paris (FR)", best.Entry)
	}
	baselineTX := candidateP(res, tx.ID)

	p := NewPriors()
	r.Priors = p
	for i := 0; i < 5; i++ {
		p.Reinforce("Paris", tx.ID, 1)
	}
	res2, err := r.Resolve("Paris", Context{})
	if err != nil {
		t.Fatal(err)
	}
	best2, _ := res2.Best()
	if best2.Entry.ID != tx.ID {
		t.Fatalf("after 5 confirmations resolution still picks entry %d, want Paris (TX) %d", best2.Entry.ID, tx.ID)
	}
	if got := candidateP(res2, tx.ID); got <= baselineTX {
		t.Errorf("P(Paris TX) after reinforcement = %v, want > baseline %v", got, baselineTX)
	}

	// The prior-only ablation baseline must stay blind to reinforcement.
	res3, err := r.ResolvePriorOnly("Paris")
	if err != nil {
		t.Fatal(err)
	}
	if best3, _ := res3.Best(); best3.Entry.ID != fr.ID {
		t.Errorf("prior-only baseline uses learned priors (picked %d)", best3.Entry.ID)
	}
}

func candidateP(res Resolution, id int64) float64 {
	for _, c := range res.Candidates {
		if c.Entry.ID == id {
			return c.P
		}
	}
	return 0
}

// TestPriorsBoostShape pins the boost formula's invariants: unknown
// names and entries are neutral, boosts grow with confirmations, and
// mass on one entry never boosts another.
func TestPriorsBoostShape(t *testing.T) {
	p := NewPriors()
	if b := p.Boost("Nowhere", 1); b != 1 {
		t.Errorf("unknown name boost = %v", b)
	}
	p.Reinforce("Paris", 1, 1)
	one := p.Boost("Paris", 1)
	if one <= 1 {
		t.Fatalf("boost after one confirmation = %v, want > 1", one)
	}
	if b := p.Boost("Paris", 2); b != 1 {
		t.Errorf("unconfirmed sibling entry boosted: %v", b)
	}
	p.Reinforce("Paris", 1, 1)
	p.Reinforce("Paris", 1, 1)
	if b := p.Boost("Paris", 1); b <= one {
		t.Errorf("boost does not grow with confirmations: %v <= %v", b, one)
	}
	// Normalisation: the same surface name in different case shares mass.
	if b := p.Boost("paris", 1); b <= 1 {
		t.Errorf("case-normalised lookup missed the learned prior: %v", b)
	}
	// Invalid reinforcements are ignored.
	p.Reinforce("", 1, 1)
	p.Reinforce("Paris", 0, 1)
	p.Reinforce("Paris", 1, -5)
	if len(p.names) != 1 {
		t.Errorf("invalid reinforcements created names: %d", len(p.names))
	}
}

// TestPriorsStateRoundTrip: export/import preserves boosts exactly.
func TestPriorsStateRoundTrip(t *testing.T) {
	p := NewPriors()
	p.Reinforce("Paris", 7, 2)
	p.Reinforce("Paris", 9, 1)
	p.Reinforce("Springfield", 3, 4)

	q := NewPriors()
	if err := q.ImportState(p.ExportState()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		id   int64
	}{{"Paris", 7}, {"Paris", 9}, {"Springfield", 3}} {
		if got, want := q.Boost(tc.name, tc.id), p.Boost(tc.name, tc.id); got != want {
			t.Errorf("Boost(%s, %d) after round trip = %v, want %v", tc.name, tc.id, got, want)
		}
	}
	if err := q.ImportState(nil); err != nil {
		t.Fatal(err)
	}
	if len(q.names) != 0 {
		t.Errorf("ImportState(nil) left %d names", len(q.names))
	}
}
