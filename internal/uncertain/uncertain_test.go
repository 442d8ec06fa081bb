package uncertain

import (
	"math"
	"testing"
	"testing/quick"
)

func clamp01(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	x = math.Abs(math.Mod(x, 1))
	return x
}

func randomCF(x float64) CF {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return clampCF(math.Mod(x, 1))
}

func TestCombineKnown(t *testing.T) {
	cases := []struct {
		a, b, want CF
	}{
		{0, 0, 0},
		{0.5, 0, 0.5},
		{0.5, 0.5, 0.75},
		{1, 0.5, 1},
		{-0.5, -0.5, -0.75},
		{1, -1, 0},
	}
	for _, c := range cases {
		if got := Combine(c.a, c.b); math.Abs(float64(got-c.want)) > 1e-12 {
			t.Errorf("Combine(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	// Mixed-sign case: (0.8 - 0.3) / (1 - 0.3).
	got := Combine(0.8, -0.3)
	want := CF(0.5 / 0.7)
	if math.Abs(float64(got-want)) > 1e-12 {
		t.Errorf("mixed Combine = %v, want %v", got, want)
	}
}

func TestCombineCommutative(t *testing.T) {
	f := func(x, y float64) bool {
		a, b := randomCF(x), randomCF(y)
		return math.Abs(float64(Combine(a, b)-Combine(b, a))) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCombineAssociativeSameSign(t *testing.T) {
	// MYCIN combination is associative for same-sign evidence.
	f := func(x, y, z float64) bool {
		a := clampCF(math.Abs(math.Mod(x, 1)))
		b := clampCF(math.Abs(math.Mod(y, 1)))
		c := clampCF(math.Abs(math.Mod(z, 1)))
		l := Combine(Combine(a, b), c)
		r := Combine(a, Combine(b, c))
		return math.Abs(float64(l-r)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCombineBounded(t *testing.T) {
	f := func(x, y float64) bool {
		got := Combine(randomCF(x), randomCF(y))
		return got.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCombineMonotone(t *testing.T) {
	// Adding positive evidence never lowers belief.
	f := func(x, y float64) bool {
		a := randomCF(x)
		b := clampCF(math.Abs(math.Mod(y, 1)))
		return Combine(a, b) >= a-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCombineAll(t *testing.T) {
	if got := CombineAll(nil); got != 0 {
		t.Errorf("CombineAll(nil) = %v", got)
	}
	got := CombineAll([]CF{0.5, 0.5, 0.5})
	want := Combine(Combine(0.5, 0.5), 0.5)
	if got != want {
		t.Errorf("CombineAll = %v, want %v", got, want)
	}
}

func TestAttenuate(t *testing.T) {
	if got := Attenuate(0.8, 0.5); got != 0.4 {
		t.Errorf("Attenuate = %v", got)
	}
	if got := Attenuate(0.8, 2); got != 0.8 {
		t.Errorf("reliability clamp high: %v", got)
	}
	if got := Attenuate(0.8, -1); got != 0 {
		t.Errorf("reliability clamp low: %v", got)
	}
	if got := Attenuate(-0.6, 0.5); got != -0.3 {
		t.Errorf("negative CF attenuation: %v", got)
	}
}

func TestProbabilityRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		p := clamp01(x)
		back := ToProbability(FromProbability(p))
		return math.Abs(back-p) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if FromProbability(0.5) != 0 {
		t.Error("indifference point not 0")
	}
	if FromProbability(1) != 1 || FromProbability(0) != -1 {
		t.Error("endpoints wrong")
	}
}

func TestBayesUpdate(t *testing.T) {
	// Supporting evidence raises, opposing lowers, neutral keeps.
	if got := BayesUpdate(0.5, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("neutral update = %v", got)
	}
	if got := BayesUpdate(0.5, 3); got <= 0.5 {
		t.Errorf("supporting update = %v", got)
	}
	if got := BayesUpdate(0.5, 0.2); got >= 0.5 {
		t.Errorf("opposing update = %v", got)
	}
	if got := BayesUpdate(0, 10); got != 0 {
		t.Errorf("zero prior = %v", got)
	}
	if got := BayesUpdate(1, 0.1); got != 1 {
		t.Errorf("unit prior = %v", got)
	}
	// Known value: prior 0.5, LR 3 -> 0.75.
	if got := BayesUpdate(0.5, 3); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("LR3 update = %v, want 0.75", got)
	}
}

func TestBayesUpdateBounded(t *testing.T) {
	f := func(x, y float64) bool {
		p := clamp01(x)
		lr := math.Abs(math.Mod(y, 100))
		got := BayesUpdate(p, lr)
		return got >= 0 && got <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistBasics(t *testing.T) {
	d := NewDist()
	if _, ok := d.Top(); ok {
		t.Error("empty dist has a top")
	}
	if err := d.Set("Germany", 3); err != nil {
		t.Fatal(err)
	}
	if err := d.Set("USA", 1); err != nil {
		t.Fatal(err)
	}
	if got := d.P("Germany"); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("P(Germany) = %v, want 0.75", got)
	}
	top, ok := d.Top()
	if !ok || top.Name != "Germany" {
		t.Errorf("Top = %+v", top)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	if err := d.Set("x", -1); err == nil {
		t.Error("negative mass accepted")
	}
	if err := d.Add("x", math.NaN()); err == nil {
		t.Error("NaN mass accepted")
	}
}

func TestDistNormalizedSumsToOne(t *testing.T) {
	f := func(a, b, c float64) bool {
		d := NewDist()
		_ = d.Set("a", math.Abs(math.Mod(a, 10))+0.1)
		_ = d.Set("b", math.Abs(math.Mod(b, 10)))
		_ = d.Set("c", math.Abs(math.Mod(c, 10)))
		var sum float64
		for _, alt := range d.Normalized() {
			if alt.P < 0 || alt.P > 1 {
				return false
			}
			sum += alt.P
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistOrderingDeterministic(t *testing.T) {
	d := NewDist()
	_ = d.Set("b", 1)
	_ = d.Set("a", 1)
	_ = d.Set("c", 2)
	alts := d.Normalized()
	if alts[0].Name != "c" || alts[1].Name != "a" || alts[2].Name != "b" {
		t.Errorf("ordering = %v", alts)
	}
}

// TestDistBitIdentical rebuilds one distribution many times: the total
// behind P and Normalized must be summed in a fixed order, because float
// addition is not associative and a map-ordered sum moves the last bits
// from one build to the next.
func TestDistBitIdentical(t *testing.T) {
	masses := []float64{0.1, 0.7, 0.2, 0.3, 1e-3, 0.6, 1.1}
	build := func() *Dist {
		d := NewDist()
		for i, m := range masses {
			_ = d.Add(string(rune('a'+i)), m)
		}
		return d
	}
	ref := build()
	wantP := math.Float64bits(ref.P("a"))
	wantAlts := ref.Normalized()
	for i := 0; i < 500; i++ {
		d := build()
		if got := math.Float64bits(d.P("a")); got != wantP {
			t.Fatalf("build %d: P(a) bits %x, want %x", i, got, wantP)
		}
		for j, a := range d.Normalized() {
			if a.Name != wantAlts[j].Name || math.Float64bits(a.P) != math.Float64bits(wantAlts[j].P) {
				t.Fatalf("build %d: alternative %d = %+v, want %+v", i, j, a, wantAlts[j])
			}
		}
	}
}

func TestDistEntropy(t *testing.T) {
	d := NewDist()
	_ = d.Set("only", 1)
	if h := d.Entropy(); h != 0 {
		t.Errorf("single-alternative entropy = %v", h)
	}
	u := NewDist()
	_ = u.Set("a", 1)
	_ = u.Set("b", 1)
	if h := u.Entropy(); math.Abs(h-1) > 1e-12 {
		t.Errorf("uniform-2 entropy = %v, want 1", h)
	}
	// More alternatives, more entropy.
	v := NewDist()
	for _, n := range []string{"a", "b", "c", "d"} {
		_ = v.Set(n, 1)
	}
	if v.Entropy() <= u.Entropy() {
		t.Error("entropy did not grow with alternatives")
	}
}

func TestDistMerge(t *testing.T) {
	d := NewDist()
	_ = d.Set("Germany", 0.6)
	_ = d.Set("USA", 0.4)
	o := NewDist()
	_ = o.Set("Germany", 1)
	if err := d.Merge(o, 1); err != nil {
		t.Fatal(err)
	}
	if d.P("Germany") <= 0.6 {
		t.Errorf("merge did not strengthen Germany: %v", d.P("Germany"))
	}
	if err := d.Merge(o, -1); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestDistClone(t *testing.T) {
	d := NewDist()
	_ = d.Set("a", 1)
	c := d.Clone()
	_ = c.Set("b", 5)
	if d.Len() != 1 {
		t.Error("clone mutated original")
	}
	if c.Len() != 2 {
		t.Error("clone incomplete")
	}
}

func TestCFValidate(t *testing.T) {
	if err := CF(0.5).Validate(); err != nil {
		t.Error(err)
	}
	for _, bad := range []CF{1.5, -1.5, CF(math.NaN())} {
		if err := bad.Validate(); err == nil {
			t.Errorf("CF %v passed validation", float64(bad))
		}
	}
}
