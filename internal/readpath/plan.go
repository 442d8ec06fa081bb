package readpath

import (
	"repro/internal/geo"
	"repro/internal/shard"
	"repro/internal/xmldb"
)

// TouchedShards computes an answer's blast radius: the sorted set of
// shards whose writes could change the answer produced by the given
// formulated query, or nil when it is the whole store.
//
// The only narrowing implemented is the one the QA service actually
// emits: a near($x, lat, lon, r) predicate in conjunctive position
// under a GridRouter. A record matching such a query must be located
// inside the circle, located records live on the shard of their
// location's grid cell, and GridRouter.CoverShards enumerates every
// cell the circle touches — so writes outside the cover cannot add,
// remove or rescore a match. Everything else (city equality, attitude
// filters, disjunctions) keys on field values the router never sees and
// stays whole-store.
//
// Narrowing additionally requires the store's placement-drift epoch to
// be zero: a location-moving merge or feedback correction can strand a
// record off its location's cell, breaking the cover argument (see
// shard.Store.Drift). Callers must still pin the epoch in the cache
// entry, because drift can begin after the plan is computed.
func TouchedShards(query string, st *shard.Store) []int {
	if st.NumShards() == 1 {
		return nil
	}
	if st.Drift() != 0 {
		return nil
	}
	q, err := xmldb.Parse(query)
	if err != nil || q.Where == nil {
		return nil
	}
	near, ok := conjunctiveNear(q.Where)
	if !ok {
		return nil
	}
	center, err := geo.NewPoint(near.Lat, near.Lon)
	if err != nil {
		return nil
	}
	cover := st.Router().CoverShards(center, near.RadiusMeters)
	if len(cover) >= st.NumShards() {
		return nil
	}
	return cover
}

// conjunctiveNear finds a Near predicate that every match must satisfy:
// the expression itself, or a conjunct of a top-level And chain. Under
// Or or Not a record can match without being inside the circle, so the
// walk does not descend into them.
func conjunctiveNear(e xmldb.Expr) (xmldb.Near, bool) {
	switch v := e.(type) {
	case xmldb.Near:
		return v, true
	case xmldb.And:
		if n, ok := conjunctiveNear(v.L); ok {
			return n, ok
		}
		return conjunctiveNear(v.R)
	}
	return xmldb.Near{}, false
}
