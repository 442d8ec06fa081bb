package gazetteer

import (
	"fmt"
	"io"
	"sort"
)

// NameStat is one distinct name with its reference count (ambiguity
// degree).
type NameStat struct {
	Name  string // canonical (most common display) form
	Count int
}

// nameCounts tallies reference counts per canonical name. Canonical names,
// not normalised keys, are reported; alternate-name index entries are
// excluded so that one entry contributes exactly one reference.
func (g *Gazetteer) nameCounts() map[string]int {
	counts := make(map[string]int)
	g.EachEntry(func(e *Entry) bool {
		counts[e.Name]++
		return true
	})
	return counts
}

// TopAmbiguous returns the n most ambiguous names — the paper's Table 1
// when run on the calibrated synthetic gazetteer (experiment E1). Ties
// break alphabetically for determinism.
func (g *Gazetteer) TopAmbiguous(n int) []NameStat {
	counts := g.nameCounts()
	out := make([]NameStat, 0, len(counts))
	for name, c := range counts {
		out = append(out, NameStat{Name: name, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Name < out[j].Name
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// DegreeBucket is one point of the ambiguity histogram: how many distinct
// names have exactly Degree references.
type DegreeBucket struct {
	Degree int
	Names  int
}

// AmbiguityHistogram returns the number of distinct names per ambiguity
// degree, ordered by degree — the paper's Figure 1 series (experiment E2).
func (g *Gazetteer) AmbiguityHistogram() []DegreeBucket {
	counts := g.nameCounts()
	hist := make(map[int]int)
	for _, c := range counts {
		hist[c]++
	}
	out := make([]DegreeBucket, 0, len(hist))
	for d, n := range hist {
		out = append(out, DegreeBucket{Degree: d, Names: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Degree < out[j].Degree })
	return out
}

// ReferenceShares is the paper's Figure 2: the share of distinct names
// with exactly 1, 2, 3 and 4-or-more references. Shares sum to 1 for a
// non-empty gazetteer.
type ReferenceShares struct {
	One        float64
	Two        float64
	Three      float64
	FourOrMore float64
}

// Shares computes the Figure 2 pie (experiment E3).
func (g *Gazetteer) Shares() ReferenceShares {
	counts := g.nameCounts()
	if len(counts) == 0 {
		return ReferenceShares{}
	}
	var s ReferenceShares
	total := float64(len(counts))
	for _, c := range counts {
		switch {
		case c == 1:
			s.One++
		case c == 2:
			s.Two++
		case c == 3:
			s.Three++
		default:
			s.FourOrMore++
		}
	}
	s.One /= total
	s.Two /= total
	s.Three /= total
	s.FourOrMore /= total
	return s
}

// WriteTable1 renders the Table 1 reproduction to w in the paper's layout.
func (g *Gazetteer) WriteTable1(w io.Writer, n int) error {
	if _, err := fmt.Fprintf(w, "%-50s %s\n", "Geographic name", "Number of references"); err != nil {
		return err
	}
	for _, s := range g.TopAmbiguous(n) {
		if _, err := fmt.Fprintf(w, "%-50s %d\n", s.Name, s.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteFigure1 renders the Figure 1 series (degree, names-at-degree) as
// tab-separated values suitable for log-log plotting.
func (g *Gazetteer) WriteFigure1(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "ambiguity_degree\tnames_at_degree"); err != nil {
		return err
	}
	for _, b := range g.AmbiguityHistogram() {
		if _, err := fmt.Fprintf(w, "%d\t%d\n", b.Degree, b.Names); err != nil {
			return err
		}
	}
	return nil
}

// WriteFigure2 renders the Figure 2 shares as percentages.
func (g *Gazetteer) WriteFigure2(w io.Writer) error {
	s := g.Shares()
	_, err := fmt.Fprintf(w,
		"1 reference\t%.0f%%\n2 references\t%.0f%%\n3 references\t%.0f%%\n4 or more references\t%.0f%%\n",
		s.One*100, s.Two*100, s.Three*100, s.FourOrMore*100)
	return err
}
