// Package uncertain is the probabilistic framework shared by the
// information-extraction and data-integration services (paper RQ2: "What
// probabilistic framework can manage uncertainty in the IE/DI process?").
// It provides certainty factors with MYCIN-style combination, Bayesian
// evidence fusion, discrete probability distributions over alternatives,
// and a source-trust model, answering RQ2b/RQ2c's call to "measure
// different sources of uncertainty" and "combine those measures".
package uncertain

import (
	"fmt"
	"math"
	"sort"
)

// CF is a certainty factor in [-1, 1]: 1 is certain belief, -1 certain
// disbelief, 0 no information.
type CF float64

// Validate reports whether the CF is in range.
func (c CF) Validate() error {
	if math.IsNaN(float64(c)) || c < -1 || c > 1 {
		return fmt.Errorf("uncertain: certainty factor %v out of [-1, 1]", float64(c))
	}
	return nil
}

// clampCF forces a value into [-1, 1], absorbing floating-point drift.
func clampCF(v float64) CF {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return CF(v)
}

// Combine merges two certainty factors about the same proposition using the
// MYCIN parallel-combination rule, which is commutative and associative:
//
//	both >= 0:  a + b - a*b
//	both <= 0:  a + b + a*b
//	mixed:      (a + b) / (1 - min(|a|, |b|))
func Combine(a, b CF) CF {
	x, y := float64(a), float64(b)
	switch {
	case x >= 0 && y >= 0:
		return clampCF(x + y - x*y)
	case x <= 0 && y <= 0:
		return clampCF(x + y + x*y)
	default:
		den := 1 - math.Min(math.Abs(x), math.Abs(y))
		if den == 0 {
			// Total contradiction (+1 combined with -1): no information.
			return 0
		}
		return clampCF((x + y) / den)
	}
}

// CombineAll folds Combine over a slice; an empty slice yields 0.
func CombineAll(cfs []CF) CF {
	var acc CF
	for _, c := range cfs {
		acc = Combine(acc, c)
	}
	return acc
}

// Attenuate scales a certainty factor by the reliability of the rule or
// source that produced it (MYCIN's CF(rule)*CF(evidence) chaining).
// reliability is clamped to [0, 1].
func Attenuate(c CF, reliability float64) CF {
	if reliability < 0 {
		reliability = 0
	}
	if reliability > 1 {
		reliability = 1
	}
	return clampCF(float64(c) * reliability)
}

// FromProbability maps a probability in [0, 1] to a certainty factor in
// [-1, 1] linearly around the 0.5 indifference point.
func FromProbability(p float64) CF {
	return clampCF(2*p - 1)
}

// ToProbability maps a certainty factor back to a probability.
func ToProbability(c CF) float64 {
	return (float64(c) + 1) / 2
}

// BayesUpdate returns the posterior probability of a hypothesis with prior
// p after observing evidence with the given likelihood ratio
// P(E|H)/P(E|¬H). Ratios above 1 raise the posterior.
func BayesUpdate(prior, likelihoodRatio float64) float64 {
	if prior <= 0 {
		return 0
	}
	if prior >= 1 {
		return 1
	}
	if likelihoodRatio < 0 {
		likelihoodRatio = 0
	}
	odds := prior / (1 - prior) * likelihoodRatio
	return odds / (1 + odds)
}

// Dist is a discrete probability distribution over named alternatives, the
// representation behind template fields such as
// "Country: P(Germany) > P(USA) > …" in the paper's worked scenario.
type Dist struct {
	alts  map[string]float64
	order []string // insertion order for deterministic iteration
}

// NewDist returns an empty distribution.
func NewDist() *Dist {
	return &Dist{alts: make(map[string]float64)}
}

// Set assigns unnormalised mass to an alternative. Negative mass is
// rejected.
func (d *Dist) Set(name string, mass float64) error {
	if math.IsNaN(mass) || mass < 0 {
		return fmt.Errorf("uncertain: invalid mass %v for %q", mass, name)
	}
	if _, ok := d.alts[name]; !ok {
		d.order = append(d.order, name)
	}
	d.alts[name] = mass
	return nil
}

// Add accumulates mass onto an alternative.
func (d *Dist) Add(name string, mass float64) error {
	if math.IsNaN(mass) || mass < 0 {
		return fmt.Errorf("uncertain: invalid mass %v for %q", mass, name)
	}
	if _, ok := d.alts[name]; !ok {
		d.order = append(d.order, name)
	}
	d.alts[name] += mass
	return nil
}

// Len returns the number of alternatives.
func (d *Dist) Len() int { return len(d.alts) }

// P returns the normalised probability of the alternative (0 if absent or
// if the distribution has no mass).
func (d *Dist) P(name string) float64 {
	total := d.total()
	if total == 0 {
		return 0
	}
	return d.alts[name] / total
}

// total sums the masses in insertion order: float addition is not
// associative, so a map-ordered sum would differ in its last bits from
// one build to the next.
func (d *Dist) total() float64 {
	var t float64
	for _, name := range d.order {
		t += d.alts[name]
	}
	return t
}

// Alternative is one (name, probability) pair of a normalised distribution.
type Alternative struct {
	Name string
	P    float64
}

// Normalized returns the alternatives sorted by decreasing probability
// (ties broken by name for determinism). Probabilities sum to 1 unless the
// distribution is empty or massless.
func (d *Dist) Normalized() []Alternative {
	total := d.total()
	out := make([]Alternative, 0, len(d.order))
	for _, name := range d.order {
		p := 0.0
		if total > 0 {
			p = d.alts[name] / total
		}
		out = append(out, Alternative{Name: name, P: p})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P > out[j].P
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Top returns the most probable alternative, or ok=false when empty.
func (d *Dist) Top() (Alternative, bool) {
	alts := d.Normalized()
	if len(alts) == 0 {
		return Alternative{}, false
	}
	return alts[0], true
}

// Entropy returns the Shannon entropy (bits) of the normalised
// distribution — the disambiguation service's measure of residual
// ambiguity.
func (d *Dist) Entropy() float64 {
	var h float64
	for _, a := range d.Normalized() {
		if a.P > 0 {
			h -= a.P * math.Log2(a.P)
		}
	}
	return h
}

// Merge combines another distribution into d with the given weight,
// implementing weighted evidence pooling across observations.
func (d *Dist) Merge(o *Dist, weight float64) error {
	if weight < 0 {
		return fmt.Errorf("uncertain: negative merge weight %v", weight)
	}
	for _, a := range o.Normalized() {
		if err := d.Add(a.Name, a.P*weight); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns an independent copy.
func (d *Dist) Clone() *Dist {
	c := NewDist()
	for _, name := range d.order {
		c.order = append(c.order, name)
		c.alts[name] = d.alts[name]
	}
	return c
}
