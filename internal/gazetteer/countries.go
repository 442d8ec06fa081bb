package gazetteer

import "repro/internal/geo"

// Country describes one country of the synthetic world: a code, a display
// name, a bounding box used for placing synthetic entries and for
// containment reasoning, and a sampling weight proportional to how many
// toponyms it contributes (US-style gazetteers dominate GeoNames, which is
// why Table 1 is full of US church and creek names).
type Country struct {
	Code   string
	Name   string
	Box    geo.BBox
	Weight float64
}

// Countries is the synthetic world's country table. Boxes are rough real
// bounding boxes; exactness is irrelevant, only disjointness of the major
// ones and plausible containment matter.
var Countries = []Country{
	{"US", "United States", geo.BBox{MinLat: 24.5, MinLon: -124.8, MaxLat: 49.4, MaxLon: -66.9}, 40},
	{"DE", "Germany", geo.BBox{MinLat: 47.3, MinLon: 5.9, MaxLat: 55.1, MaxLon: 15.0}, 4},
	{"FR", "France", geo.BBox{MinLat: 41.3, MinLon: -5.1, MaxLat: 51.1, MaxLon: 9.6}, 4},
	{"GB", "United Kingdom", geo.BBox{MinLat: 49.9, MinLon: -8.6, MaxLat: 58.7, MaxLon: 1.8}, 4},
	{"NL", "Netherlands", geo.BBox{MinLat: 50.8, MinLon: 3.4, MaxLat: 53.6, MaxLon: 7.2}, 2},
	{"ES", "Spain", geo.BBox{MinLat: 36.0, MinLon: -9.3, MaxLat: 43.8, MaxLon: 3.3}, 4},
	{"IT", "Italy", geo.BBox{MinLat: 36.6, MinLon: 6.6, MaxLat: 47.1, MaxLon: 18.5}, 3},
	{"EG", "Egypt", geo.BBox{MinLat: 22.0, MinLon: 24.7, MaxLat: 31.7, MaxLon: 36.9}, 2},
	{"TZ", "Tanzania", geo.BBox{MinLat: -11.7, MinLon: 29.3, MaxLat: -0.9, MaxLon: 40.4}, 2},
	{"KE", "Kenya", geo.BBox{MinLat: -4.7, MinLon: 33.9, MaxLat: 5.5, MaxLon: 41.9}, 2},
	{"NG", "Nigeria", geo.BBox{MinLat: 4.3, MinLon: 2.7, MaxLat: 13.9, MaxLon: 14.7}, 2},
	{"ZA", "South Africa", geo.BBox{MinLat: -34.8, MinLon: 16.5, MaxLat: -22.1, MaxLon: 32.9}, 2},
	{"BR", "Brazil", geo.BBox{MinLat: -33.8, MinLon: -73.9, MaxLat: 5.3, MaxLon: -34.8}, 5},
	{"MX", "Mexico", geo.BBox{MinLat: 14.5, MinLon: -118.4, MaxLat: 32.7, MaxLon: -86.7}, 4},
	{"AR", "Argentina", geo.BBox{MinLat: -55.1, MinLon: -73.6, MaxLat: -21.8, MaxLon: -53.6}, 3},
	{"IN", "India", geo.BBox{MinLat: 8.1, MinLon: 68.2, MaxLat: 35.5, MaxLon: 97.4}, 5},
	{"CN", "China", geo.BBox{MinLat: 18.2, MinLon: 73.5, MaxLat: 53.6, MaxLon: 134.8}, 5},
	{"AU", "Australia", geo.BBox{MinLat: -43.6, MinLon: 113.3, MaxLat: -10.7, MaxLon: 153.6}, 3},
	{"CA", "Canada", geo.BBox{MinLat: 41.7, MinLon: -141.0, MaxLat: 74.0, MaxLon: -52.6}, 4},
	{"PH", "Philippines", geo.BBox{MinLat: 4.6, MinLon: 116.9, MaxLat: 19.6, MaxLon: 126.6}, 3},
}

// CountryByCode returns the country with the given code.
func CountryByCode(code string) (Country, bool) {
	for _, c := range Countries {
		if c.Code == code {
			return c, true
		}
	}
	return Country{}, false
}
