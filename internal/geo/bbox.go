package geo

import (
	"fmt"
	"math"
)

// BBox is an axis-aligned geographic bounding box. MinLat <= MaxLat and
// MinLon <= MaxLon always hold for boxes produced by this package; boxes
// crossing the antimeridian are not supported and must be split by the
// caller (the synthetic gazetteer never produces them).
type BBox struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// NewBBox returns the bounding box spanning the two corner points in any
// order.
func NewBBox(a, b Point) BBox {
	return BBox{
		MinLat: math.Min(a.Lat, b.Lat),
		MinLon: math.Min(a.Lon, b.Lon),
		MaxLat: math.Max(a.Lat, b.Lat),
		MaxLon: math.Max(a.Lon, b.Lon),
	}
}

// BBoxOf returns the degenerate box containing a single point.
func BBoxOf(p Point) BBox {
	return BBox{MinLat: p.Lat, MinLon: p.Lon, MaxLat: p.Lat, MaxLon: p.Lon}
}

// EmptyBBox returns an inverted box that acts as the identity for Union.
func EmptyBBox() BBox {
	return BBox{
		MinLat: math.Inf(1), MinLon: math.Inf(1),
		MaxLat: math.Inf(-1), MaxLon: math.Inf(-1),
	}
}

// IsEmpty reports whether the box contains no points.
func (b BBox) IsEmpty() bool {
	return b.MinLat > b.MaxLat || b.MinLon > b.MaxLon
}

// Validate reports whether the box corners are in coordinate range.
func (b BBox) Validate() error {
	if b.IsEmpty() {
		return nil
	}
	for _, p := range []Point{{b.MinLat, b.MinLon}, {b.MaxLat, b.MaxLon}} {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("geo: invalid bbox corner: %w", err)
		}
	}
	return nil
}

// String implements fmt.Stringer.
func (b BBox) String() string {
	return fmt.Sprintf("[%.5f,%.5f — %.5f,%.5f]", b.MinLat, b.MinLon, b.MaxLat, b.MaxLon)
}

// Contains reports whether the point lies inside or on the boundary.
func (b BBox) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// ContainsBBox reports whether o lies fully inside b.
func (b BBox) ContainsBBox(o BBox) bool {
	if o.IsEmpty() {
		return true
	}
	return o.MinLat >= b.MinLat && o.MaxLat <= b.MaxLat &&
		o.MinLon >= b.MinLon && o.MaxLon <= b.MaxLon
}

// Intersects reports whether the two boxes share any point.
func (b BBox) Intersects(o BBox) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	return b.MinLat <= o.MaxLat && b.MaxLat >= o.MinLat &&
		b.MinLon <= o.MaxLon && b.MaxLon >= o.MinLon
}

// Union returns the smallest box containing both b and o.
func (b BBox) Union(o BBox) BBox {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return BBox{
		MinLat: math.Min(b.MinLat, o.MinLat),
		MinLon: math.Min(b.MinLon, o.MinLon),
		MaxLat: math.Max(b.MaxLat, o.MaxLat),
		MaxLon: math.Max(b.MaxLon, o.MaxLon),
	}
}

// Area returns the box area in square degrees. Degrees (not metres) are the
// right unit for R-tree split heuristics, where only relative areas matter.
func (b BBox) Area() float64 {
	if b.IsEmpty() {
		return 0
	}
	return (b.MaxLat - b.MinLat) * (b.MaxLon - b.MinLon)
}

// Enlargement returns how much b's area grows if extended to cover o.
func (b BBox) Enlargement(o BBox) float64 {
	return b.Union(o).Area() - b.Area()
}

// IntersectionArea returns the overlap area of the two boxes in square
// degrees, zero if disjoint.
func (b BBox) IntersectionArea(o BBox) float64 {
	if !b.Intersects(o) {
		return 0
	}
	h := math.Min(b.MaxLat, o.MaxLat) - math.Max(b.MinLat, o.MinLat)
	w := math.Min(b.MaxLon, o.MaxLon) - math.Max(b.MinLon, o.MinLon)
	return h * w
}

// Center returns the box centre point.
func (b BBox) Center() Point {
	return Point{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
}

// MinDistanceMeters returns the minimum great-circle distance from p to any
// point in the box, which best-first kNN search relies on as an exact lower
// bound. When p's longitude falls inside the box's longitude span the
// nearest boundary point lies due north or south; otherwise it lies on one
// of the two meridian edges, at the latitude where the great circle from p
// meets that meridian perpendicularly (clamped into the edge's range).
func (b BBox) MinDistanceMeters(p Point) float64 {
	if b.IsEmpty() {
		return math.Inf(1)
	}
	if b.Contains(p) {
		return 0
	}
	if p.Lon >= b.MinLon && p.Lon <= b.MaxLon {
		var dLat float64
		switch {
		case p.Lat < b.MinLat:
			dLat = b.MinLat - p.Lat
		case p.Lat > b.MaxLat:
			dLat = p.Lat - b.MaxLat
		}
		return deg2rad(dLat) * EarthRadiusMeters
	}
	left := distToMeridianEdge(p, b.MinLon, b.MinLat, b.MaxLat)
	right := distToMeridianEdge(p, b.MaxLon, b.MinLat, b.MaxLat)
	return math.Min(left, right)
}

// distToMeridianEdge returns the minimum great-circle distance from p to the
// meridian segment at longitude lon between latMin and latMax. The foot of
// the perpendicular from p onto the full meridian has latitude
// atan2(tan(lat_p), cos(Δlon)); distance along the meridian grows
// monotonically away from that foot, so clamping it into the segment yields
// the true nearest point.
func distToMeridianEdge(p Point, lon, latMin, latMax float64) float64 {
	dLon := math.Mod(p.Lon-lon+540, 360) - 180
	foot := rad2deg(math.Atan2(math.Tan(deg2rad(p.Lat)), math.Cos(deg2rad(dLon))))
	// The distance to the meridian is monotone between critical latitudes,
	// so the segment minimum is at an in-range critical point or an
	// endpoint. Evaluate every candidate; the foot may fold past a pole
	// when |Δlon| > 90°, hence the ±180° counterparts.
	clamp := func(lat float64) float64 {
		return math.Max(latMin, math.Min(latMax, lat))
	}
	best := math.Inf(1)
	for _, lat := range [...]float64{clamp(foot), clamp(foot - 180), clamp(foot + 180), latMin, latMax} {
		if d := p.DistanceMeters(Point{Lat: lat, Lon: lon}); d < best {
			best = d
		}
	}
	return best
}

// BBoxAround returns a box that contains the circle of the given radius
// around centre. The box may be slightly larger than the circle (it pads the
// longitude span near the poles) but never smaller, so it is safe as a
// pre-filter for radius queries.
func BBoxAround(center Point, radiusMeters float64) BBox {
	if radiusMeters < 0 {
		radiusMeters = 0
	}
	// Pad slightly so floating-point rounding never excludes a point that
	// is exactly on the circle; this box is only ever a pre-filter.
	pad := radiusMeters*1e-7 + 1e-9*EarthRadiusMeters*math.Pi/180
	dLat := rad2deg((radiusMeters + pad) / EarthRadiusMeters)
	cos := math.Cos(deg2rad(center.Lat))
	var dLon float64
	if cos < 1e-9 {
		dLon = 180 // at the poles every longitude is within range
	} else {
		dLon = rad2deg((radiusMeters+pad)/EarthRadiusMeters) / cos
	}
	return BBox{
		MinLat: math.Max(-90, center.Lat-dLat),
		MinLon: math.Max(-180, center.Lon-dLon),
		MaxLat: math.Min(90, center.Lat+dLat),
		MaxLon: math.Min(180, center.Lon+dLon),
	}
}
