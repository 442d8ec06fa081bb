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
// index pre-filters candidates and the exact distance decides. Otherwise
// the value index (index.go) names the records on which every equality
// can hold, and only those are scored, in insertion order; a field no
// query has constrained before is indexed on the way in. A query with no
// conjunct scans the collection. Every record is scored by the same
// float operations on every path, so the path changes no answer.
func (db *DB) Execute(q *Query) ([]Result, error) {
	if q == nil {
		return nil, fmt.Errorf("xmldb: nil query")
	}
	for {
		if out, ok := db.execute(q); ok {
			return out, nil
		}
		db.indexFields(q)
	}
}

// execute runs q under the read lock. It runs nothing and reports false
// when q needs a field index its collection lacks.
func (db *DB) execute(q *Query) ([]Result, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c := db.collections[q.Collection]
	if c == nil {
		return nil, true
	}
	if q.Near == nil && c.indexable(q.Where) && c.unindexed(q.Where) {
		return nil, false
	}
	top := topK{k: q.TopK, ranked: q.OrderByScore}
	for _, id := range c.visit(q) {
		rec, ok := c.records[id]
		if !ok {
			continue
		}
		if n := q.Near; n != nil && (rec.Location == nil || rec.Location.DistanceMeters(n.Center) > n.RadiusMeters) {
			continue
		}
		condP := 1.0
		for _, e := range q.Where {
			condP *= pxml.FieldValueProb(rec.Doc, e.Path, e.Value)
		}
		if condP <= 0 {
			continue
		}
		score := condP * uncertain.ToProbability(rec.Certainty)
		if !top.add(Result{Record: rec, CondP: condP, Score: score}) {
			break
		}
	}
	return top.results(), true
}

// visit returns the IDs Execute scores for q: the spatial hits of a
// near(), the value index's candidates, or the whole collection.
func (c *Collection) visit(q *Query) []int64 {
	if n := q.Near; n != nil {
		return c.near(n.Center, n.RadiusMeters)
	}
	if ids, ok := c.candidates(q.Where); ok {
		return ids
	}
	return c.order
}

// topK keeps Execute's results. Ranked, it holds the best k by (score
// descending, ID ascending) in that order, or sorts every result when k
// is 0; unranked, it keeps the first k in visiting order.
type topK struct {
	k      int
	ranked bool
	out    []Result
}

// add offers r and reports whether later results can still be kept.
func (t *topK) add(r Result) bool {
	switch {
	case t.k == 0:
		t.out = append(t.out, r)
		return true
	case !t.ranked:
		t.out = append(t.out, r)
		return len(t.out) < t.k
	}
	i := sort.Search(len(t.out), func(i int) bool { return better(r, t.out[i]) })
	if i == t.k {
		return true
	}
	if len(t.out) < t.k {
		t.out = append(t.out, Result{})
	}
	copy(t.out[i+1:], t.out[i:])
	t.out[i] = r
	return true
}

func (t *topK) results() []Result {
	if t.ranked && t.k == 0 {
		sort.SliceStable(t.out, func(i, j int) bool { return better(t.out[i], t.out[j]) })
	}
	return t.out
}

// better is the ranked order: score descending, then record ID ascending.
func better(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Record.ID < b.Record.ID
}
