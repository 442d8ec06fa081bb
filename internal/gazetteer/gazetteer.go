// Package gazetteer implements a GeoNames-like toponym store: named
// geographic references with coordinates, feature classes, countries and
// populations, indexed for exact and misspelling-tolerant lookup.
//
// A Gazetteer is immutable once New returns: it is built in one pass from
// a slice of entries and read without locks. Each distinct normalised name
// is stored once and maps to a span of entry IDs. Fuzzy lookup at edit
// distance 1, the only distance the pipeline asks, probes a one-deletion
// index; larger distances scan every name. Spatial queries (Near) are a
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
	"math/bits"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"

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
	NormName   string // text.NormalizeName(Name), shared with the name index
	AltNames   []string
	Location   geo.Point
	Feature    FeatureClass
	Country    string // ISO-like country code
	Population int64  // 0 for non-populated features
}

// Gazetteer is an immutable in-memory toponym database with a name index.
// It is safe for concurrent use.
type Gazetteer struct {
	entries []Entry // entry ID i is entries[i-1]

	// The name index. Each distinct normalised name (primary or
	// alternate) is stored once in names, and Entry.NormName shares its
	// string; the entry IDs indexed under names[i] are
	// ids[idStart[i]:idStart[i+1]], ascending.
	names   []string
	nameOf  map[string]int32
	idStart []int32
	ids     []int32

	// fuzzyKeys is the one-deletion index behind LookupFuzzy(name, 1):
	// for every name, the hash of the name and of each one-rune deletion
	// of it, with the low nameBits bits replaced by the name's index,
	// sorted and deduplicated.
	fuzzyKeys []uint64
	nameBits  uint

	// fuzzyMu guards fuzzyCache, the memo of LookupFuzzy results. Noisy
	// streams repeat the same misspellings, and a memo hit is one map
	// read, while an index probe hashes every deletion of the query,
	// binary-searches each hash, verifies the candidates and builds the
	// result; larger distances scan every name.
	fuzzyMu    sync.Mutex
	fuzzyCache map[fuzzyKey][]FuzzyMatch
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
		entries: make([]Entry, len(entries)),
		nameOf:  make(map[string]int32),
	}
	// refs holds one (name index, entry ID) pair per indexed name, in ID
	// order, until the counting pass below lays them out as spans.
	refs := make([][2]int32, 0, len(entries))
	for i, e := range entries {
		if strings.TrimSpace(e.Name) == "" {
			return nil, fmt.Errorf("gazetteer: entry %d: empty name", i)
		}
		if err := e.Location.Validate(); err != nil {
			return nil, fmt.Errorf("gazetteer: entry %q: %w", e.Name, err)
		}
		e.ID = int64(i + 1)
		norm := text.NormalizeName(e.Name)
		if norm == "" {
			return nil, fmt.Errorf("gazetteer: name %q normalises to empty", e.Name)
		}
		n := g.intern(norm)
		e.NormName = g.names[n]
		g.entries[i] = e
		refs = append(refs, [2]int32{n, int32(e.ID)})
		for _, alt := range e.AltNames {
			if norm := text.NormalizeName(alt); norm != "" && norm != e.NormName {
				refs = append(refs, [2]int32{g.intern(norm), int32(e.ID)})
			}
		}
	}
	g.idStart = make([]int32, len(g.names)+1)
	for _, r := range refs {
		g.idStart[r[0]+1]++
	}
	for i := range g.names {
		g.idStart[i+1] += g.idStart[i]
	}
	g.ids = make([]int32, len(refs))
	next := slices.Clone(g.idStart[:len(g.names)])
	for _, r := range refs {
		g.ids[next[r[0]]] = r[1]
		next[r[0]]++
	}
	g.buildFuzzyIndex()
	return g, nil
}

// intern returns the index of the normalised name, adding it if new.
func (g *Gazetteer) intern(norm string) int32 {
	n, ok := g.nameOf[norm]
	if !ok {
		n = int32(len(g.names))
		g.names = append(g.names, norm)
		g.nameOf[norm] = n
	}
	return n
}

// idsOf returns the entry IDs indexed under names[n], ascending.
func (g *Gazetteer) idsOf(n int32) []int32 {
	return g.ids[g.idStart[n]:g.idStart[n+1]]
}

// Len returns the number of entries (references).
func (g *Gazetteer) Len() int {
	return len(g.entries)
}

// NameCount returns the number of distinct indexed names.
func (g *Gazetteer) NameCount() int {
	return len(g.names)
}

// Get returns the entry with the given ID.
func (g *Gazetteer) Get(id int64) (*Entry, bool) {
	if id < 1 || id > int64(len(g.entries)) {
		return nil, false
	}
	return &g.entries[id-1], true
}

// entriesOf resolves an ID span to its entries, in ID order.
func (g *Gazetteer) entriesOf(ids []int32) []*Entry {
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
	n, ok := g.nameOf[text.NormalizeName(name)]
	if !ok {
		return g.entriesOf(nil)
	}
	return g.entriesOf(g.idsOf(n))
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
// distance 0. Distance 0 is answered from the name index, distance 1 by
// probing the one-deletion index, and larger distances by scanning every
// name within the length budget.
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
	var out []FuzzyMatch
	switch maxDist {
	case 0:
		out = []FuzzyMatch{}
		if n, ok := g.nameOf[norm]; ok {
			out = append(out, g.match(n, 0))
		}
	case 1:
		out = g.lookupFuzzyIndexed(norm)
	default:
		out = g.lookupFuzzySlow(norm, maxDist)
	}
	g.fuzzyMu.Lock()
	if g.fuzzyCache == nil || len(g.fuzzyCache) >= maxFuzzyCache {
		g.fuzzyCache = make(map[fuzzyKey][]FuzzyMatch)
	}
	g.fuzzyCache[key] = out
	g.fuzzyMu.Unlock()
	return out
}

// match is names[n] as a fuzzy-lookup result at distance dist.
func (g *Gazetteer) match(n int32, dist int) FuzzyMatch {
	return FuzzyMatch{Name: g.names[n], Distance: dist, Entries: g.entriesOf(g.idsOf(n))}
}

// lookupFuzzyIndexed answers LookupFuzzy(norm, 1) from the one-deletion
// index: it verifies each candidate the index proposes.
func (g *Gazetteer) lookupFuzzyIndexed(norm string) []FuzzyMatch {
	out := []FuzzyMatch{}
	for _, n := range g.fuzzyCandidates(norm) {
		switch cand := g.names[n]; {
		case cand == norm:
			out = append(out, g.match(n, 0))
		case text.WithinDistance(norm, cand, 1):
			out = append(out, g.match(n, 1))
		}
	}
	sortMatches(out)
	return out
}

// lookupFuzzySlow scans every name within maxDist runes of the query's
// length. It serves maxDist >= 2 and is the oracle the index is tested
// against.
func (g *Gazetteer) lookupFuzzySlow(norm string, maxDist int) []FuzzyMatch {
	qLen := utf8.RuneCountInString(norm)
	out := []FuzzyMatch{}
	for n, cand := range g.names {
		if l := utf8.RuneCountInString(cand); l < qLen-maxDist || l > qLen+maxDist {
			continue
		}
		switch {
		case cand == norm:
			out = append(out, g.match(int32(n), 0))
		case text.WithinDistance(norm, cand, maxDist):
			out = append(out, g.match(int32(n), text.DamerauLevenshtein(norm, cand)))
		}
	}
	sortMatches(out)
	return out
}

func sortMatches(ms []FuzzyMatch) {
	slices.SortFunc(ms, func(a, b FuzzyMatch) int {
		return cmp.Or(cmp.Compare(a.Distance, b.Distance), strings.Compare(a.Name, b.Name))
	})
}

// The one-deletion index (FastSS, k = 1: T. Bocek, E. Hunt and B.
// Stiller, "Fast Similarity Search in Large Dictionaries", 2007). Two
// strings within optimal-string-alignment distance 1 share a string made
// by deleting at most one rune from each: a substitution at rune i
// deletes i from both, an insertion deletes the extra rune from the
// longer string, and a transposition of runes i, i+1 deletes i from one
// and i+1 from the other ("xaby" and "xbay" both give "xby"). So every
// match of a query shares a key with it, and a shared key that is a hash
// collision is removed by the verification in lookupFuzzyIndexed.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a continues the 64-bit FNV-1a hash h over the bytes of s.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// eachDeletionHash calls fn with the FNV-1a hash of s and of every string
// made by deleting one rune of s, without building those strings.
func eachDeletionHash(s string, fn func(uint64)) {
	fn(fnv1a(fnvOffset64, s))
	prefix := uint64(fnvOffset64)
	for i := 0; i < len(s); {
		_, w := utf8.DecodeRuneInString(s[i:])
		fn(fnv1a(prefix, s[i+w:]))
		prefix = fnv1a(prefix, s[i:i+w])
		i += w
	}
}

// buildFuzzyIndex fills fuzzyKeys. The name index takes the low
// bits.Len(len(names)) bits of each key, so the index needs no size cap.
func (g *Gazetteer) buildFuzzyIndex() {
	g.nameBits = uint(bits.Len(uint(len(g.names))))
	mask := uint64(1)<<g.nameBits - 1
	n := 0
	for _, s := range g.names {
		n += utf8.RuneCountInString(s) + 1
	}
	keys := make([]uint64, 0, n)
	for i, s := range g.names {
		eachDeletionHash(s, func(h uint64) { keys = append(keys, h&^mask|uint64(i)) })
	}
	slices.Sort(keys)
	g.fuzzyKeys = slices.Compact(keys)
}

// fuzzyCandidates returns the distinct indexes of the names that share a
// one-deletion key with norm: a superset of the names within distance 1.
func (g *Gazetteer) fuzzyCandidates(norm string) []int32 {
	mask := uint64(1)<<g.nameBits - 1
	var cands []int32
	eachDeletionHash(norm, func(h uint64) {
		h &^= mask
		i, _ := slices.BinarySearch(g.fuzzyKeys, h)
		for ; i < len(g.fuzzyKeys) && g.fuzzyKeys[i]&^mask == h; i++ {
			if n := int32(g.fuzzyKeys[i] & mask); !slices.Contains(cands, n) {
				cands = append(cands, n)
			}
		}
	})
	return cands
}

// HasName reports whether the exact normalised name is indexed.
func (g *Gazetteer) HasName(name string) bool {
	_, ok := g.nameOf[text.NormalizeName(name)]
	return ok
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
