package xmldb

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/geo"
	"repro/internal/pxml"
	"repro/internal/uncertain"
)

// Result is one query answer.
type Result struct {
	Record *Record
	// CondP is the probability that the where-clause holds for this
	// record under possible-world semantics (1 when no where-clause).
	CondP float64
	// Score is CondP weighted by the record's integration certainty —
	// the paper's score($x).
	Score float64
}

// Execute runs a parsed query. When the where-clause is a conjunction
// containing a Near predicate, the spatial index pre-filters candidates;
// otherwise the collection is scanned.
func (db *DB) Execute(q *Query) ([]Result, error) {
	if q == nil {
		return nil, fmt.Errorf("xmldb: nil query")
	}
	var out []Result
	eval := func(rec *Record) error {
		condP := 1.0
		if q.Where != nil {
			p, err := evalExpr(q.Where, rec)
			if err != nil {
				return err
			}
			condP = p
		}
		if condP <= 0 {
			return nil
		}
		score := condP * uncertain.ToProbability(rec.Certainty)
		out = append(out, Result{Record: rec, CondP: condP, Score: score})
		return nil
	}

	// Spatial fast path: a top-level conjunct Near restricts candidates.
	if near, ok := extractNear(q.Where); ok {
		ids := db.Near(q.Collection, geo.Point{Lat: near.Lat, Lon: near.Lon}, near.RadiusMeters)
		for _, id := range ids {
			rec, ok := db.Get(q.Collection, id)
			if !ok {
				continue
			}
			if err := eval(rec); err != nil {
				return nil, err
			}
		}
	} else {
		var evalErr error
		db.Each(q.Collection, func(rec *Record) bool {
			if err := eval(rec); err != nil {
				evalErr = err
				return false
			}
			return true
		})
		if evalErr != nil {
			return nil, evalErr
		}
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

// extractNear finds a Near predicate that is a top-level conjunct of the
// where-clause, safe to use as an index pre-filter (near is crisp, so
// records outside the radius have condP = 0 regardless of other
// conjuncts).
func extractNear(e Expr) (Near, bool) {
	switch x := e.(type) {
	case Near:
		return x, true
	case And:
		if n, ok := extractNear(x.L); ok {
			return n, true
		}
		return extractNear(x.R)
	default:
		return Near{}, false
	}
}

// evalExpr computes P(expr holds) for a record, treating sub-conditions on
// distinct fields as independent (the distribution nodes of the model are
// independent by construction).
func evalExpr(e Expr, rec *Record) (float64, error) {
	switch x := e.(type) {
	case Cmp:
		return evalCmp(x, rec)
	case And:
		l, err := evalExpr(x.L, rec)
		if err != nil {
			return 0, err
		}
		r, err := evalExpr(x.R, rec)
		if err != nil {
			return 0, err
		}
		return l * r, nil
	case Or:
		l, err := evalExpr(x.L, rec)
		if err != nil {
			return 0, err
		}
		r, err := evalExpr(x.R, rec)
		if err != nil {
			return 0, err
		}
		return 1 - (1-l)*(1-r), nil
	case Not:
		p, err := evalExpr(x.E, rec)
		if err != nil {
			return 0, err
		}
		return 1 - p, nil
	case Near:
		if rec.Location == nil {
			return 0, nil
		}
		d := rec.Location.DistanceMeters(geo.Point{Lat: x.Lat, Lon: x.Lon})
		if d <= x.RadiusMeters {
			return 1, nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("xmldb: unknown expression %T", e)
	}
}

func evalCmp(c Cmp, rec *Record) (float64, error) {
	root := rec.Doc.Tag
	full := root + "/" + c.Path
	switch c.Op {
	case "==":
		if !c.IsNum {
			return pxml.ValueProb(rec.Doc, full, c.Str), nil
		}
		// Numeric equality: sum alternatives parsing to the same number.
		return sumDist(rec.Doc, full, func(v float64) bool { return v == c.Num }), nil
	case "!=":
		if !c.IsNum {
			return pxml.PathProb(rec.Doc, full) - pxml.ValueProb(rec.Doc, full, c.Str), nil
		}
		return sumDist(rec.Doc, full, func(v float64) bool { return v != c.Num }), nil
	case "<", "<=", ">", ">=":
		if !c.IsNum {
			return 0, fmt.Errorf("xmldb: ordering comparison needs a numeric literal, got %q", c.Str)
		}
		pred := map[string]func(float64) bool{
			"<":  func(v float64) bool { return v < c.Num },
			"<=": func(v float64) bool { return v <= c.Num },
			">":  func(v float64) bool { return v > c.Num },
			">=": func(v float64) bool { return v >= c.Num },
		}[c.Op]
		return sumDist(rec.Doc, full, pred), nil
	default:
		return 0, fmt.Errorf("xmldb: unknown operator %q", c.Op)
	}
}

// sumDist sums the marginal probability of the field's alternatives whose
// numeric value satisfies pred. pxml value distributions accumulate
// absolute branch probabilities as masses, so the raw masses are the
// marginals. Non-numeric alternatives contribute nothing; a value capped
// at probability 1 guards against float drift.
func sumDist(doc *pxml.Node, path string, pred func(float64) bool) float64 {
	dist := pxml.ValueDist(doc, path)
	var p float64
	for _, alt := range dist.Masses() {
		v, err := strconv.ParseFloat(alt.Name, 64)
		if err != nil {
			continue
		}
		if pred(v) {
			p += alt.P
		}
	}
	if p > 1 {
		p = 1
	}
	return p
}
