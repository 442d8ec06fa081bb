package readpath

import (
	"repro/internal/shard"
	"repro/internal/xmldb"
)

// TouchedShards computes an answer's blast radius: the sorted set of
// shards whose writes could change the answer produced by the given
// formulated query, or nil when it is the whole store.
//
// The only narrowing is by the query's near($x, lat, lon, r) conjunct
// under a GridRouter. Every conjunct must hold, so a record matching the
// query is located inside the circle; located records live on the shard
// of their location's grid cell, and GridRouter.CoverShards enumerates
// every cell the circle touches — so writes outside the cover cannot add,
// remove or rescore a match. A query without near() keys on field values
// the router never sees and stays whole-store, as does one Parse rejects.
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
	if err != nil || q.Near == nil {
		return nil
	}
	cover := st.Router().CoverShards(q.Near.Center, q.Near.RadiusMeters)
	if len(cover) >= st.NumShards() {
		return nil
	}
	return cover
}
