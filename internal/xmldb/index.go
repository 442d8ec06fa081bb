package xmldb

import (
	"slices"
	"strings"

	"repro/internal/pxml"
)

// The value index maps, per collection, a top-level field and a text
// value to the ascending IDs of the records whose field can take that
// value. An equality conjunct $x/Field == "v" is positive only on the
// records in that list (pxml.FieldValueProb is 0 elsewhere), so Execute
// scores the intersection of its conjuncts' lists instead of the whole
// collection. A field is indexed the first time a query constrains it;
// from then on the Tx writes keep its lists current. The index is
// derived state: building it changes no record and bumps no version.

// postings is one field's index: value → ascending record IDs.
type postings map[string][]int64

// fieldValues appends to dst the values field can take in doc: for each
// element named field that is a child of the root, directly or through a
// root-level mux or ind, its certain text when it has any, and otherwise
// the text leaves under its mux and ind children. These are the values
// for which pxml.FieldValueProb can be positive. A value may repeat.
func fieldValues(dst []string, doc *pxml.Node, field string) []string {
	for _, c := range doc.Children {
		switch c.Kind {
		case pxml.KindElem:
			if c.Tag == field {
				dst = elemValues(dst, c)
			}
		case pxml.KindMux, pxml.KindInd:
			for _, gc := range c.Children {
				if gc.Kind == pxml.KindElem && gc.Tag == field {
					dst = elemValues(dst, gc)
				}
			}
		}
	}
	return dst
}

// elemValues mirrors the branches of pxml's text-equality test on e.
func elemValues(dst []string, e *pxml.Node) []string {
	if t := e.TextContent(); t != "" {
		return append(dst, t)
	}
	for _, c := range e.Children {
		if c.Kind == pxml.KindMux || c.Kind == pxml.KindInd {
			for _, gc := range c.Children {
				if gc.Kind == pxml.KindText && gc.Text != "" {
					dst = append(dst, gc.Text)
				}
			}
		}
	}
	return dst
}

// indexFields builds the value index of every field q constrains that
// its collection does not index yet, unless a concurrent query got
// there first. It changes no record, so it bumps no version: a bump
// would invalidate cached answers on a read.
func (db *DB) indexFields(q *Query) {
	db.mu.Lock()
	defer db.mu.Unlock()
	c := db.collections[q.Collection]
	if c == nil || !c.indexable(q.Where) {
		return
	}
	if c.values == nil {
		c.values = make(map[string]postings)
	}
	for _, e := range q.Where {
		if _, ok := c.values[e.Path]; !ok {
			c.values[e.Path] = c.indexField(e.Path)
		}
	}
}

// indexField builds field's postings from the collection's records.
func (c *Collection) indexField(field string) postings {
	p := postings{}
	var vals []string
	for _, id := range c.order {
		vals = fieldValues(vals[:0], c.records[id].Doc, field)
		for _, v := range vals {
			p.add(v, id)
		}
	}
	return p
}

// reindex moves record id's postings in every indexed field from the
// values of old to those of next; a nil document has no values (insert
// passes old nil, delete passes next nil). A field whose values did not
// change keeps its lists as they are.
func (c *Collection) reindex(id int64, old, next *pxml.Node) {
	for field, p := range c.values {
		var was, now []string
		if old != nil {
			was = fieldValues(nil, old, field)
		}
		if next != nil {
			now = fieldValues(nil, next, field)
		}
		if slices.Equal(was, now) {
			continue
		}
		for _, v := range was {
			if !slices.Contains(now, v) {
				p.remove(v, id)
			}
		}
		for _, v := range now {
			p.add(v, id)
		}
	}
}

func (p postings) add(v string, id int64) {
	ids := p[v]
	if i, found := slices.BinarySearch(ids, id); !found {
		p[v] = slices.Insert(ids, i, id)
	}
}

func (p postings) remove(v string, id int64) {
	ids := p[v]
	i, found := slices.BinarySearch(ids, id)
	switch {
	case !found:
	case len(ids) == 1:
		delete(p, v)
	default:
		p[v] = slices.Delete(ids, i, i+1)
	}
}

// indexable reports whether the value index can answer where: at least
// one conjunct, each on a plain top-level field with a non-empty value
// (the only conjuncts Parse admits), over a collection whose insertion
// order ascends by ID, as every order this package writes does.
func (c *Collection) indexable(where []Equal) bool {
	if len(where) == 0 || c.unordered {
		return false
	}
	for _, e := range where {
		if e.Path == "" || e.Value == "" || strings.Contains(e.Path, "/") {
			return false
		}
	}
	return true
}

// unindexed reports whether some field of where lacks an index.
func (c *Collection) unindexed(where []Equal) bool {
	for _, e := range where {
		if _, ok := c.values[e.Path]; !ok {
			return true
		}
	}
	return false
}

// candidates returns, in ascending ID order, the records that appear in
// every conjunct's postings: the only records on which all of where can
// be positive. ok is false when the index cannot answer where, and the
// caller scans instead.
func (c *Collection) candidates(where []Equal) (ids []int64, ok bool) {
	if !c.indexable(where) || c.unindexed(where) {
		return nil, false
	}
	var buf [4][]int64
	lists := buf[:0]
	for _, e := range where {
		lists = append(lists, c.values[e.Path][e.Value])
	}
	slices.SortFunc(lists, func(a, b []int64) int { return len(a) - len(b) })
	ids = lists[0]
	for _, l := range lists[1:] {
		ids = intersect(ids, l)
	}
	return ids, true
}

// intersect returns the IDs in both ascending lists a and b, ascending.
func intersect(a, b []int64) []int64 {
	out := make([]int64, 0, min(len(a), len(b)))
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
