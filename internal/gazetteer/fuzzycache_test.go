package gazetteer

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/geo"
)

// The fuzzy-lookup memo must be invisible to callers: repeated queries
// return what a fresh scan returns, and a gazetteer built with a closer
// name answers from its own index, never from another build's memo.
func TestFuzzyCacheInvalidatedByAdd(t *testing.T) {
	berlin := Entry{Name: "Berlin", Location: geo.Point{Lat: 52.5, Lon: 13.4}, Feature: FeatureCity}
	g := build(t, berlin)
	first := g.LookupFuzzy("berlim", 1)
	if len(first) != 1 || first[0].Name != "berlin" {
		t.Fatalf("LookupFuzzy = %+v, want berlin", first)
	}
	again := g.LookupFuzzy("berlim", 1)
	if !reflect.DeepEqual(again, first) || !reflect.DeepEqual(again, g.lookupFuzzySlow("berlim", 1)) {
		t.Fatalf("memoized LookupFuzzy diverged: %+v", again)
	}

	// A second build with an exact "berlim" entry must show it first.
	g2 := build(t, berlin, Entry{Name: "Berlim", Location: geo.Point{Lat: 10, Lon: 10}, Feature: FeatureCity})
	after := g2.LookupFuzzy("berlim", 1)
	if len(after) != 2 {
		t.Fatalf("second build LookupFuzzy = %+v, want 2 matches", after)
	}
	if after[0].Name != "berlim" || after[0].Distance != 0 {
		t.Fatalf("exact match not first in second build: %+v", after)
	}
	if still := g.LookupFuzzy("berlim", 1); !reflect.DeepEqual(still, first) {
		t.Fatalf("first build's answer changed after a second build: %+v", still)
	}
}

// Concurrent fuzzy lookups sharing the memo are race-free. Run with -race.
func TestFuzzyCacheConcurrent(t *testing.T) {
	g, err := Synthesize(Config{Names: 500, Seed: 2011})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"sprngfield", "oakdale", "rivertonn", "lakevew", "hilcrest"}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = g.LookupFuzzy(queries[(i+w)%len(queries)], 1)
			}
		}(w)
	}
	wg.Wait()
	for _, q := range queries {
		if got, want := g.LookupFuzzy(q, 1), g.lookupFuzzySlow(q, 1); !reflect.DeepEqual(got, want) {
			t.Errorf("LookupFuzzy(%q) = %+v, fresh scan %+v", q, got, want)
		}
	}
}
