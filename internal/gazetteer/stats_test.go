package gazetteer

import (
	"math/rand"
	"strings"
	"testing"
)

func newTestRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func TestTopAmbiguousSmall(t *testing.T) {
	var es []Entry
	for i := 0; i < 3; i++ {
		es = append(es, testEntry("Springfield", 40, -90+float64(i), FeatureCity, "US", 0))
	}
	for i := 0; i < 2; i++ {
		es = append(es, testEntry("Paris", 48, 2+float64(i), FeatureCity, "FR", 0))
	}
	es = append(es, testEntry("Enschede", 52.2, 6.9, FeatureCity, "NL", 0))

	g := build(t, es...)
	top := g.TopAmbiguous(10)
	if len(top) != 3 {
		t.Fatalf("TopAmbiguous = %v", top)
	}
	if top[0].Name != "Springfield" || top[0].Count != 3 {
		t.Errorf("top = %+v", top[0])
	}
	if top[1].Name != "Paris" || top[1].Count != 2 {
		t.Errorf("second = %+v", top[1])
	}
	// n smaller than distinct names truncates.
	if got := g.TopAmbiguous(1); len(got) != 1 {
		t.Errorf("truncation: %v", got)
	}
}

func TestAmbiguityHistogramSmall(t *testing.T) {
	var es []Entry
	for i := 0; i < 3; i++ {
		es = append(es, testEntry("Springfield", 40, -90+float64(i), FeatureCity, "US", 0))
	}
	es = append(es, testEntry("Enschede", 52.2, 6.9, FeatureCity, "NL", 0))
	es = append(es, testEntry("Hengelo", 52.27, 6.79, FeatureCity, "NL", 0))

	g := build(t, es...)
	hist := g.AmbiguityHistogram()
	if len(hist) != 2 {
		t.Fatalf("histogram = %v", hist)
	}
	if hist[0].Degree != 1 || hist[0].Names != 2 {
		t.Errorf("bucket 1 = %+v", hist[0])
	}
	if hist[1].Degree != 3 || hist[1].Names != 1 {
		t.Errorf("bucket 3 = %+v", hist[1])
	}
}

func TestSharesSmall(t *testing.T) {
	var es []Entry
	// 2 singles, 1 double, 1 quad -> shares 0.5, 0.25, 0, 0.25.
	es = append(es, testEntry("A Town", 10, 10, FeatureCity, "US", 0))
	es = append(es, testEntry("B Town", 11, 10, FeatureCity, "US", 0))
	for i := 0; i < 2; i++ {
		es = append(es, testEntry("C Town", 12, 10+float64(i), FeatureCity, "US", 0))
	}
	for i := 0; i < 4; i++ {
		es = append(es, testEntry("D Town", 13, 10+float64(i), FeatureCity, "US", 0))
	}
	g := build(t, es...)
	s := g.Shares()
	if s.One != 0.5 || s.Two != 0.25 || s.Three != 0 || s.FourOrMore != 0.25 {
		t.Errorf("shares = %+v", s)
	}
	// Empty gazetteer: all zero.
	if z := build(t).Shares(); z != (ReferenceShares{}) {
		t.Errorf("empty shares = %+v", z)
	}
}

func TestAmbiguityOf(t *testing.T) {
	var es []Entry
	for i := 0; i < 3; i++ {
		es = append(es, testEntry("Cairo", 30, 31+float64(i), FeatureCity, "EG", 0))
	}
	g := build(t, es...)
	if got := g.AmbiguityOf("cairo"); got != 3 {
		t.Errorf("AmbiguityOf = %d", got)
	}
	if got := g.AmbiguityOf("atlantis"); got != 0 {
		t.Errorf("unknown ambiguity = %d", got)
	}
}

func TestWriteTable1AndFigures(t *testing.T) {
	var es []Entry
	for i := 0; i < 2; i++ {
		es = append(es, testEntry("Paris", 48, 2+float64(i), FeatureCity, "FR", 0))
	}
	es = append(es, testEntry("Enschede", 52.2, 6.9, FeatureCity, "NL", 0))

	g := build(t, es...)
	var sb strings.Builder
	if err := g.WriteTable1(&sb, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Paris") || !strings.Contains(sb.String(), "2") {
		t.Errorf("Table1 output:\n%s", sb.String())
	}

	sb.Reset()
	if err := g.WriteFigure1(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ambiguity_degree") {
		t.Errorf("Figure1 output:\n%s", sb.String())
	}

	sb.Reset()
	if err := g.WriteFigure2(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "1 reference") || !strings.Contains(out, "4 or more references") {
		t.Errorf("Figure2 output:\n%s", out)
	}
}
