package disambig

import (
	"fmt"
	"sync"

	"repro/internal/text"
)

// Priors is the reinforcement memory of the disambiguation service: a
// per-name distribution of confirmed gazetteer interpretations, learned
// from user feedback on query answers. The paper frames human feedback
// as the mechanism that drives uncertainty down over time — repeated
// confirmations that "Paris" meant one particular reference must change
// how *future* mentions of "Paris" resolve, not just the one record the
// verdict was about. The feedback engine calls Reinforce; the Resolver
// multiplies Boost into every candidate's score.
//
// All methods are safe for concurrent use.
type Priors struct {
	mu    sync.RWMutex
	names map[string]*namePrior
}

type namePrior struct {
	mass  map[int64]float64 // gazetteer entry ID -> accumulated confirmations
	total float64
}

// reinforceGain scales how strongly a fully confirmed interpretation is
// boosted; reinforceSat is the pseudo-count damping a handful of early
// confirmations (boost saturates toward 1+gain as evidence accumulates).
const (
	reinforceGain = 4.0
	reinforceSat  = 2.0
)

// NewPriors returns an empty reinforcement memory.
func NewPriors() *Priors {
	return &Priors{names: make(map[string]*namePrior)}
}

// Reinforce adds confirmation mass for one (name, gazetteer entry)
// interpretation. Negative or NaN mass is ignored.
func (p *Priors) Reinforce(name string, entryID int64, mass float64) {
	norm := text.NormalizeName(name)
	if norm == "" || entryID <= 0 || !(mass > 0) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	np, ok := p.names[norm]
	if !ok {
		np = &namePrior{mass: make(map[int64]float64)}
		p.names[norm] = np
	}
	np.mass[entryID] += mass
	np.total += mass
}

// Boost returns the learned multiplier for a candidate interpretation:
// 1 for names or entries never confirmed, rising toward 1+reinforceGain
// as confirmations of this entry dominate the name's feedback history.
func (p *Priors) Boost(name string, entryID int64) float64 {
	norm := text.NormalizeName(name)
	if norm == "" {
		return 1
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	np, ok := p.names[norm]
	if !ok || np.total == 0 {
		return 1
	}
	m := np.mass[entryID]
	if m == 0 {
		return 1
	}
	// share*saturation = m/total * total/(total+k) = m/(total+k).
	return 1 + reinforceGain*m/(np.total+reinforceSat)
}

// PriorsState is the serializable image of the learned priors, carried
// in store checkpoints so reinforcement survives restarts. Entry IDs are
// gazetteer IDs, which are deterministic for a fixed gazetteer seed.
type PriorsState map[string]map[int64]float64

// ExportState snapshots the priors for serialization.
func (p *Priors) ExportState() PriorsState {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.names) == 0 {
		return nil
	}
	out := make(PriorsState, len(p.names))
	for name, np := range p.names {
		m := make(map[int64]float64, len(np.mass))
		for id, v := range np.mass {
			m[id] = v
		}
		out[name] = m
	}
	return out
}

// ImportState replaces the learned priors with a previously exported
// image.
func (p *Priors) ImportState(st PriorsState) error {
	staged := make(map[string]*namePrior, len(st))
	for name, masses := range st {
		np := &namePrior{mass: make(map[int64]float64, len(masses))}
		for id, v := range masses {
			if !(v >= 0) {
				return fmt.Errorf("disambig: priors state %q/%d has invalid mass %v", name, id, v)
			}
			np.mass[id] = v
			np.total += v
		}
		staged[name] = np
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.names = staged
	return nil
}
