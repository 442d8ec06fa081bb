package shard

import (
	"math"
	"sort"

	"repro/internal/geo"
)

// metersPerDegree understates the great-circle metres spanned by one
// degree of latitude (π·EarthRadius/180 ≈ 111195), so radius→degree
// conversions below always overshoot and a cover never misses a cell.
const metersPerDegree = 110000

// coverCellLimit bounds how many grid cells CoverShards will enumerate
// before giving up and declaring the whole store touched. The QA
// service's proximity radii (tens of km) cover 1–4 of the ~156 km
// precision-3 cells, far below the limit; only a degenerate radius
// (thousands of km) trips it.
const coverCellLimit = 4096

// CoverShards returns the sorted set of shard indexes that can hold a
// located record within radiusMeters of center — the union of the homes
// of every routing-grid cell intersecting the circle. It is a superset
// guarantee, not an exact cover: a returned shard may hold no matching
// record, but a matching located record is never outside the returned
// set, because placement is by the geohash cell of the record's
// location and every cell the circle touches is enumerated (with a
// conservative margin on the degree conversion).
//
// The read path uses this two ways: an answer whose query carries a
// near() predicate is cached against only the covering shards' versions,
// and a geofenced standing query registers on only the covering shards.
// Location-less records route by key hash instead and are invisible to
// spatial predicates, so they cannot invalidate the superset guarantee.
func (r *GridRouter) CoverShards(center geo.Point, radiusMeters float64) []int {
	if r.n == 1 {
		return []int{0}
	}
	if radiusMeters < 0 {
		radiusMeters = 0
	}

	// Geohash cell geometry at this precision: 5 bits per character,
	// alternating starting with longitude, so longitude gets the extra
	// bit on odd totals.
	bits := 5 * r.precision
	lonBits := (bits + 1) / 2
	latBits := bits / 2
	cellLat := 180 / float64(int64(1)<<latBits)
	cellLon := 360 / float64(int64(1)<<lonBits)
	latCells := int64(1) << latBits
	lonCells := int64(1) << lonBits

	latDelta := radiusMeters / metersPerDegree
	latMin := math.Max(center.Lat-latDelta, -90)
	latMax := math.Min(center.Lat+latDelta, 90)

	// Longitude degrees shrink with cos(lat); near the poles the circle
	// wraps most of a parallel and the cover degenerates to everything.
	maxAbsLat := math.Max(math.Abs(latMin), math.Abs(latMax))
	if maxAbsLat > 89 {
		return r.allShards()
	}
	lonDelta := radiusMeters / (metersPerDegree * math.Cos(deg2rad(maxAbsLat)))
	if lonDelta >= 180 {
		return r.allShards()
	}

	i0 := cellIndex(latMin+90, cellLat, latCells)
	i1 := cellIndex(latMax+90, cellLat, latCells)
	// Longitude indexes may run past the antimeridian; enumerate the
	// unclamped range and wrap each index into [0, lonCells).
	j0 := int64(math.Floor((center.Lon - lonDelta + 180) / cellLon))
	j1 := int64(math.Floor((center.Lon + lonDelta + 180) / cellLon))

	if (i1-i0+1)*(j1-j0+1) > coverCellLimit {
		return r.allShards()
	}

	seen := make(map[int]bool)
	for i := i0; i <= i1; i++ {
		lat := -90 + (float64(i)+0.5)*cellLat
		for j := j0; j <= j1; j++ {
			jm := ((j % lonCells) + lonCells) % lonCells
			lon := -180 + (float64(jm)+0.5)*cellLon
			cell := geo.EncodeGeohash(geo.Point{Lat: lat, Lon: lon}, r.precision)
			seen[int(hashString(cell)%uint64(r.n))] = true
		}
		if len(seen) == r.n {
			break
		}
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// cellIndex maps a shifted coordinate (latitude+90 or longitude+180) to
// its grid row, clamped onto the valid index range so the 90/180
// boundary lands in the last cell instead of one past it.
func cellIndex(shifted, cellSize float64, cells int64) int64 {
	i := int64(math.Floor(shifted / cellSize))
	if i < 0 {
		i = 0
	}
	if i >= cells {
		i = cells - 1
	}
	return i
}

func (r *GridRouter) allShards() []int {
	out := make([]int, r.n)
	for i := range out {
		out[i] = i
	}
	return out
}

func deg2rad(d float64) float64 { return d * math.Pi / 180 }
