package xmldb

import (
	"fmt"
	"sort"

	"repro/internal/pxml"
	"repro/internal/uncertain"
)

// Result is one query answer.
type Result struct {
	Record *Record
	// CondP is the probability that the where-clause holds for this
	// record (1 when there is none): the product of the equality
	// conjuncts' marginals, times a crisp near(). It is the exact
	// possible-worlds probability when each constrained field of the
	// record is one certain text leaf or one mux of text leaves, the shape
	// extraction and integration build, because Parse admits each field
	// once. Under an ind node, or with a field repeated in the record, it
	// is not.
	CondP float64
	// Score is CondP weighted by the record's integration certainty —
	// the paper's score($x).
	Score float64
}

// Execute runs a parsed query. A near() conjunct is crisp, so a record
// outside the circle scores 0 whatever the other conjuncts: the spatial
// index pre-filters candidates and the exact distance decides. Without
// near() the collection is scanned.
func (db *DB) Execute(q *Query) ([]Result, error) {
	if q == nil {
		return nil, fmt.Errorf("xmldb: nil query")
	}
	var out []Result
	eval := func(rec *Record) {
		condP := 1.0
		for _, e := range q.Where {
			condP *= pxml.ValueProb(rec.Doc, rec.Doc.Tag+"/"+e.Path, e.Value)
		}
		if condP <= 0 {
			return
		}
		score := condP * uncertain.ToProbability(rec.Certainty)
		out = append(out, Result{Record: rec, CondP: condP, Score: score})
	}
	if n := q.Near; n != nil {
		for _, id := range db.Near(q.Collection, n.Center, n.RadiusMeters) {
			rec, ok := db.Get(q.Collection, id)
			if ok && rec.Location != nil && rec.Location.DistanceMeters(n.Center) <= n.RadiusMeters {
				eval(rec)
			}
		}
	} else {
		db.Each(q.Collection, func(rec *Record) bool {
			eval(rec)
			return true
		})
	}

	if q.OrderByScore {
		sort.SliceStable(out, func(i, j int) bool {
			if out[i].Score != out[j].Score {
				return out[i].Score > out[j].Score
			}
			return out[i].Record.ID < out[j].Record.ID
		})
	}
	if q.TopK > 0 && len(out) > q.TopK {
		out = out[:q.TopK]
	}
	return out, nil
}
