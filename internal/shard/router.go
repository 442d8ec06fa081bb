// Package shard partitions the probabilistic spatial XML database into N
// independent xmldb shards so unrelated regions never contend on one
// lock. The GridRouter decides placement — spatially, on the coarse
// geographic grid the gazetteer's disambiguation scale implies, with a
// key-hash fallback for location-less records — and the
// Store scatters reads (Query, Near, Each, Len) across all shards and
// merges the results. Integrator gives the coordinator's concurrent
// pipeline one integration lane per shard, so batches for different
// regions commit and group-ack in parallel while each shard keeps the
// single-writer invariant of the unsharded pipeline.
package shard

import (
	"hash/fnv"

	"repro/internal/geo"
	"repro/internal/text"
)

// GridPrecision is the geohash precision of the default spatial routing
// grid. Precision 3 cells are ~156×156 km — comfortably larger than the
// 50 km duplicate-blocking radius of the integration service, so the
// reports that could ever merge almost always share a cell, and the
// cell count is still high enough to spread load evenly.
const GridPrecision = 3

// GridRouter maps a record to its home shard: records with a resolved
// location are routed by the geohash grid cell containing it (all
// reports about one place share a cell, so they share a shard);
// location-less records fall back to a hash of their normalised entity
// key, which is exactly the identity duplicate detection matches them by.
//
// Known placement gap: when one entity is reported both with and
// without a resolved location, the two routes (cell hash vs key hash)
// usually disagree, so shard-local duplicate detection can keep two
// records where a single store would merge — spatial locality and key
// locality cannot both hold without a global directory. Streams whose
// reports resolve locations consistently (the validation scenarios) are
// unaffected.
type GridRouter struct {
	n         int
	precision int
}

// NewGridRouter returns a spatial router over n shards (n >= 1) at the
// default grid precision.
func NewGridRouter(n int) *GridRouter {
	if n < 1 {
		n = 1
	}
	return &GridRouter{n: n, precision: GridPrecision}
}

// Shards is the number of partitions the router spreads over.
func (r *GridRouter) Shards() int { return r.n }

// Route returns the shard index in [0, Shards()) for a record with the
// given resolved location (nil when none) and entity key (the domain
// key-field text; may be empty). Routing is a pure function of its
// arguments: the same (location, key) always lands on the same shard, so
// repeated reports about one entity meet in one partition and duplicate
// detection keeps working shard-locally.
func (r *GridRouter) Route(loc *geo.Point, key string) int {
	if r.n == 1 {
		return 0
	}
	if loc != nil {
		return int(hashString(geo.EncodeGeohash(*loc, r.precision)) % uint64(r.n))
	}
	return int(hashString("key\x00"+text.NormalizeName(key)) % uint64(r.n))
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}
