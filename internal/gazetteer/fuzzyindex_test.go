package gazetteer

import (
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/geo"
	"repro/internal/text"
)

// gaz20k is the benchmarks' gazetteer, Synthesize(20000, 2011), built
// once per test binary.
var gaz20k *Gazetteer

func synth20k(tb testing.TB) *Gazetteer {
	tb.Helper()
	if gaz20k == nil {
		g, err := Synthesize(Config{Names: 20000, Seed: 2011})
		if err != nil {
			tb.Fatalf("Synthesize: %v", err)
		}
		gaz20k = g
	}
	return gaz20k
}

// editRunes are the runes the seeded edits insert and substitute: ASCII
// letters, accented letters that normalise to ASCII (é, ü), and letters
// that stay non-ASCII after normalisation.
var editRunes = []rune("abcdefghijklmnopqrstuvwxyz éüłøяж")

// fuzzyQueries returns n seeded queries around g's names: one
// substitution, insertion, deletion or adjacent transposition at any rune
// (the first included), unedited names, 1–2-rune queries and random
// strings.
func fuzzyQueries(g *Gazetteer, seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	randRune := func() rune { return editRunes[rng.Intn(len(editRunes))] }
	out := make([]string, 0, n)
	for len(out) < n {
		r := []rune(g.names[rng.Intn(len(g.names))])
		i := rng.Intn(len(r))
		switch rng.Intn(8) {
		case 0: // substitution
			r[i] = randRune()
		case 1: // insertion
			r = slices.Insert(r, i, randRune())
		case 2: // deletion
			r = slices.Delete(r, i, i+1)
		case 3: // adjacent transposition
			if i+1 < len(r) {
				r[i], r[i+1] = r[i+1], r[i]
			}
		case 4: // unedited
		case 5: // one or two runes
			r = []rune{randRune()}
			if rng.Intn(2) == 0 {
				r = append(r, randRune())
			}
		default: // random string
			r = r[:0]
			for range 3 + rng.Intn(10) {
				r = append(r, randRune())
			}
		}
		out = append(out, string(r))
	}
	return out
}

// checkAgainstScan fails t unless LookupFuzzy(q, k) equals a fresh scan.
func checkAgainstScan(t *testing.T, g *Gazetteer, q string, k int) {
	t.Helper()
	var want []FuzzyMatch
	if norm := text.NormalizeName(q); norm != "" {
		want = g.lookupFuzzySlow(norm, k)
	}
	if got := g.LookupFuzzy(q, k); !reflect.DeepEqual(got, want) {
		t.Fatalf("LookupFuzzy(%q, %d) = %+v, scan %+v", q, k, got, want)
	}
}

// The one-deletion index answers exactly what the scan answers.
func TestFuzzyIndexMatchesScan(t *testing.T) {
	g := synth20k(t)
	qs := fuzzyQueries(g, 2011, 3000)
	matched := 0
	for _, q := range qs {
		checkAgainstScan(t, g, q, 1)
		if len(g.LookupFuzzy(q, 1)) > 0 {
			matched++
		}
	}
	if matched < len(qs)/2 {
		t.Errorf("only %d of %d queries matched: the edits are too far from the names", matched, len(qs))
	}
}

// The index verifies a few candidates per query, where the scan compares
// every name within one rune of the query's length (~4 500 of 21 049).
func TestFuzzyIndexCandidates(t *testing.T) {
	g := synth20k(t)
	qs := fuzzyQueries(g, 7, 2000)
	cands := 0
	for _, q := range qs {
		if norm := text.NormalizeName(q); norm != "" {
			cands += len(g.fuzzyCandidates(norm))
		}
	}
	mean := float64(cands) / float64(len(qs))
	t.Logf("index candidates per query: %.2f", mean)
	if mean >= 50 {
		t.Errorf("index verifies %.1f candidates per query, want < 50", mean)
	}
}

// The flat name index holds what the per-name map it replaced held: every
// primary and alternate name, each with its entry IDs ascending, and
// entries sharing a name share one NormName string.
func TestNameIndex(t *testing.T) {
	g := synth20k(t)
	if g.NameCount() != 21049 {
		t.Errorf("NameCount = %d, want 21049", g.NameCount())
	}
	want := make(map[string][]int64)
	g.EachEntry(func(e *Entry) bool {
		want[e.NormName] = append(want[e.NormName], e.ID)
		for _, alt := range e.AltNames {
			if norm := text.NormalizeName(alt); norm != "" && norm != e.NormName {
				want[norm] = append(want[norm], e.ID)
			}
		}
		n := g.nameOf[e.NormName]
		if unsafe.StringData(e.NormName) != unsafe.StringData(g.names[n]) {
			t.Fatalf("entry %d: NormName %q is a copy, not the interned name", e.ID, e.NormName)
		}
		return true
	})
	if len(want) != g.NameCount() {
		t.Fatalf("%d distinct names in the entries, NameCount %d", len(want), g.NameCount())
	}
	alts := 0
	for name, ids := range want {
		var got []int64
		for _, e := range g.Lookup(name) {
			got = append(got, e.ID)
		}
		if !slices.Equal(got, ids) {
			t.Fatalf("Lookup(%q) = %v, want %v", name, got, ids)
		}
		span := g.idsOf(g.nameOf[name])
		for i := 1; i < len(span); i++ {
			if span[i-1] >= span[i] {
				t.Fatalf("IDs of %q not ascending: %v", name, span)
			}
		}
		if e, _ := g.Get(ids[0]); e.NormName != name {
			alts++
		}
	}
	if alts == 0 {
		t.Error("no alternate name is indexed")
	}
}

// FuzzLookupFuzzy checks the index (distance 1) and the name map
// (distance 0) against the scan on arbitrary queries over a small
// gazetteer with alternate and non-ASCII names.
func FuzzLookupFuzzy(f *testing.F) {
	var entries []Entry
	for i, names := range [][]string{
		{"München", "Munich", "Muenchen"},
		{"Łódź", "Lodz"},
		{"Moskva", "Москва"},
		{"Tōkyō", "東京"},
		{"Zürich"},
		{"São Paulo"},
		{"Berlin"}, {"Berlin"}, {"Bern"}, {"Brest"},
		{"Paris"}, {"Parish"}, {"Aa"}, {"A"},
		{"Xaby", "Xbay"},
	} {
		entries = append(entries, Entry{
			Name:     names[0],
			AltNames: names[1:],
			Location: geo.Point{Lat: float64(i), Lon: float64(i)},
			Feature:  FeatureCity,
		})
	}
	g, err := New(entries)
	if err != nil {
		f.Fatal(err)
	}
	for _, q := range []string{"munchen", "lodź", "москв", "東亰", "berlni", "erlin", "xbya", "a", "", "\xff", "pari s"} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		checkAgainstScan(t, g, q, 0)
		checkAgainstScan(t, g, q, 1)
	})
}

var fuzzySink []FuzzyMatch

// BenchmarkLookupFuzzyMiss times a lookup of a name no earlier call
// asked: a misspelt city with a counter suffix, so the memo cannot
// answer it.
func BenchmarkLookupFuzzyMiss(b *testing.B) {
	g := synth20k(b)
	i := 0
	for b.Loop() {
		fuzzySink = g.LookupFuzzy("berlni"+strconv.Itoa(i), 1)
		i++
	}
}

// BenchmarkLookupFuzzyHit times a repeated lookup, answered by the memo.
func BenchmarkLookupFuzzyHit(b *testing.B) {
	g := synth20k(b)
	g.LookupFuzzy("berlni", 1)
	for b.Loop() {
		fuzzySink = g.LookupFuzzy("berlni", 1)
	}
}
