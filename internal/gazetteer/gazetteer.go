// Package gazetteer implements a GeoNames-like toponym store: named
// geographic references with coordinates, feature classes, countries and
// populations, indexed for exact and misspelling-tolerant lookup.
//
// A Gazetteer is immutable once New returns: it is built in one pass from
// a slice of entries and read without locks. Spatial queries (Near) are a
// linear scan; no serving path asks one, so no spatial index is kept.
//
// The paper uses the GeoNames database for its ambiguity statistics
// (Table 1, Figures 1 and 2) and as the candidate source for geographic
// name disambiguation. GeoNames itself is not shippable here, so
// synth.go provides a calibrated synthetic generator whose name→reference
// multiplicity distribution matches the paper's published statistics; see
// DESIGN.md §2 for the substitution argument.
package gazetteer

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/geo"
	"repro/internal/text"
)

// FeatureClass is a coarse GeoNames-style feature category.
type FeatureClass string

// Feature classes used by the synthetic gazetteer.
const (
	FeatureCity     FeatureClass = "P" // populated place
	FeatureChurch   FeatureClass = "S" // spot/building (churches etc.)
	FeatureStream   FeatureClass = "H" // hydrographic (creeks, lakes)
	FeatureMountain FeatureClass = "T" // hypsographic
	FeatureRegion   FeatureClass = "A" // administrative region
)

// Entry is one geographic reference: a (name, location) pair with metadata.
// Many entries may share a name — that is precisely the ambiguity the
// paper quantifies ("'Cairo' is the name of more than ten cities …").
type Entry struct {
	ID         int64
	Name       string // canonical display name
	NormName   string // text.NormalizeName(Name)
	AltNames   []string
	Location   geo.Point
	Feature    FeatureClass
	Country    string // ISO-like country code
	Population int64  // 0 for non-populated features
}

// Gazetteer is an immutable in-memory toponym database with a name index.
// It is safe for concurrent use.
type Gazetteer struct {
	entries []Entry            // entry ID i is entries[i-1]
	byName  map[string][]int64 // normalised name -> entry IDs, ascending
	// lenBuckets groups names by (first byte, rune length) so fuzzy lookup
	// only scans names whose length is within the edit-distance budget.
	lenBuckets map[bucketKey][]string

	// fuzzyMu guards fuzzyCache, the memo of LookupFuzzy results. Noisy
	// streams repeat the same misspellings constantly, and the
	// edit-distance scan dominates the extraction hot path, so memoizing
	// it is the single largest throughput lever.
	fuzzyMu    sync.Mutex
	fuzzyCache map[fuzzyKey][]FuzzyMatch
}

type bucketKey struct {
	first  byte
	length int
}

type fuzzyKey struct {
	maxDist int
	norm    string
}

// maxFuzzyCache bounds the fuzzy-lookup memo; past it the memo resets
// wholesale (streams revisit the same misspellings, so the working set is
// small and a full reset is cheaper than eviction bookkeeping).
const maxFuzzyCache = 8192

// New builds a gazetteer from entries. Entry i gets ID i+1 and its
// normalised name; any ID or NormName the caller set is overwritten. An
// entry with an empty name, an invalid location or a name that
// normalises to empty is an error.
func New(entries []Entry) (*Gazetteer, error) {
	g := &Gazetteer{
		entries:    make([]Entry, len(entries)),
		byName:     make(map[string][]int64),
		lenBuckets: make(map[bucketKey][]string),
	}
	for i, e := range entries {
		if strings.TrimSpace(e.Name) == "" {
			return nil, fmt.Errorf("gazetteer: entry %d: empty name", i)
		}
		if err := e.Location.Validate(); err != nil {
			return nil, fmt.Errorf("gazetteer: entry %q: %w", e.Name, err)
		}
		e.ID = int64(i + 1)
		e.NormName = text.NormalizeName(e.Name)
		if e.NormName == "" {
			return nil, fmt.Errorf("gazetteer: name %q normalises to empty", e.Name)
		}
		g.entries[i] = e
		g.indexName(e.NormName, e.ID)
		for _, alt := range e.AltNames {
			if norm := text.NormalizeName(alt); norm != "" && norm != e.NormName {
				g.indexName(norm, e.ID)
			}
		}
	}
	return g, nil
}

func (g *Gazetteer) indexName(norm string, id int64) {
	ids := g.byName[norm]
	if len(ids) == 0 {
		key := bucketKey{first: norm[0], length: runeCount(norm)}
		g.lenBuckets[key] = append(g.lenBuckets[key], norm)
	}
	g.byName[norm] = append(ids, id)
}

func runeCount(s string) int {
	n := 0
	for range s {
		n++
	}
	return n
}

// Len returns the number of entries (references).
func (g *Gazetteer) Len() int {
	return len(g.entries)
}

// NameCount returns the number of distinct indexed names.
func (g *Gazetteer) NameCount() int {
	return len(g.byName)
}

// Get returns the entry with the given ID.
func (g *Gazetteer) Get(id int64) (*Entry, bool) {
	if id < 1 || id > int64(len(g.entries)) {
		return nil, false
	}
	return &g.entries[id-1], true
}

// entriesOf resolves a name index list to its entries, in ID order.
func (g *Gazetteer) entriesOf(ids []int64) []*Entry {
	out := make([]*Entry, len(ids))
	for i, id := range ids {
		out[i] = &g.entries[id-1]
	}
	return out
}

// Lookup returns all entries whose (normalised) name or alternate name
// equals the given name, in ID order. This is the "degree of ambiguity" of
// the name: len(Lookup(name)) is its reference count.
func (g *Gazetteer) Lookup(name string) []*Entry {
	return g.entriesOf(g.byName[text.NormalizeName(name)])
}

// FuzzyMatch is a fuzzy-lookup result: the matched indexed name, its edit
// distance from the query, and the entries it refers to.
type FuzzyMatch struct {
	Name     string
	Distance int
	Entries  []*Entry
}

// LookupFuzzy returns entries whose names are within maxDist
// Damerau-Levenshtein edits of the query, grouped by matched name and
// ordered by increasing distance then name. Exact matches are included at
// distance 0. Length bucketing keeps the scan to names that could possibly
// match.
//
// The returned slice may be shared with other callers (results are
// memoized): treat it, and the entries it points to, as read-only.
func (g *Gazetteer) LookupFuzzy(name string, maxDist int) []FuzzyMatch {
	norm := text.NormalizeName(name)
	if norm == "" {
		return nil
	}
	if maxDist < 0 {
		maxDist = 0
	}
	key := fuzzyKey{maxDist: maxDist, norm: norm}
	g.fuzzyMu.Lock()
	cached, hit := g.fuzzyCache[key]
	g.fuzzyMu.Unlock()
	if hit {
		// The memoized slice is shared: callers must treat matches (and
		// the entries they point to) as read-only, which all of ner does.
		return cached
	}
	out := g.lookupFuzzySlow(norm, maxDist)
	g.fuzzyMu.Lock()
	if g.fuzzyCache == nil || len(g.fuzzyCache) >= maxFuzzyCache {
		g.fuzzyCache = make(map[fuzzyKey][]FuzzyMatch)
	}
	g.fuzzyCache[key] = out
	g.fuzzyMu.Unlock()
	return out
}

func (g *Gazetteer) lookupFuzzySlow(norm string, maxDist int) []FuzzyMatch {
	qLen := runeCount(norm)
	seen := make(map[string]int) // name -> distance
	// Candidate first bytes: the query's own first byte always; if the
	// budget allows deleting/substituting the first rune, all buckets with
	// matching length must be scanned.
	for key, names := range g.lenBuckets {
		if key.length < qLen-maxDist || key.length > qLen+maxDist {
			continue
		}
		if key.first != norm[0] && maxDist == 0 {
			continue
		}
		for _, cand := range names {
			if _, done := seen[cand]; done {
				continue
			}
			if cand == norm {
				seen[cand] = 0
				continue
			}
			if maxDist == 0 {
				continue
			}
			if text.WithinDistance(norm, cand, maxDist) {
				seen[cand] = text.DamerauLevenshtein(norm, cand)
			}
		}
	}
	out := make([]FuzzyMatch, 0, len(seen))
	for cand, dist := range seen {
		out = append(out, FuzzyMatch{Name: cand, Distance: dist, Entries: g.entriesOf(g.byName[cand])})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// HasName reports whether the exact normalised name is indexed.
func (g *Gazetteer) HasName(name string) bool {
	return len(g.byName[text.NormalizeName(name)]) > 0
}

// Near returns the entries within radiusMeters of p ordered by distance,
// ties by ID. It scans every entry: a bounding box around the circle
// prefilters, the haversine distance decides.
func (g *Gazetteer) Near(p geo.Point, radiusMeters float64) []*Entry {
	type hit struct {
		e *Entry
		d float64
	}
	box := geo.BBoxAround(p, radiusMeters)
	var hits []hit
	for i := range g.entries {
		e := &g.entries[i]
		if !box.Contains(e.Location) {
			continue
		}
		if d := p.DistanceMeters(e.Location); d <= radiusMeters {
			hits = append(hits, hit{e, d})
		}
	}
	slices.SortFunc(hits, func(a, b hit) int {
		return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.e.ID, b.e.ID))
	})
	out := make([]*Entry, len(hits))
	for i, h := range hits {
		out[i] = h.e
	}
	return out
}

// EachEntry visits every entry in ID order until fn returns false.
func (g *Gazetteer) EachEntry(fn func(*Entry) bool) {
	for i := range g.entries {
		if !fn(&g.entries[i]) {
			return
		}
	}
}
