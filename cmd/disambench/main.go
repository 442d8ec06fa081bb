// Command disambench runs experiment E6: geographic-name disambiguation
// accuracy as a function of ambiguity degree, comparing the population-
// prior baseline against the full context-aware resolver (RQ2c/RQ2d).
//
// The workload samples ambiguous names from the calibrated gazetteer,
// picks a gold reference uniformly at random, and gives the resolver a
// co-occurring toponym drawn near the gold reference — the kind of
// context a real message carries.
package main

import (
	"flag"
	"fmt"
	"log"
	"maps"
	"math/rand"
	"slices"

	"repro/internal/disambig"
	"repro/internal/gazetteer"
	"repro/internal/ontology"
)

func main() {
	var (
		trials = flag.Int("trials", 2000, "disambiguation trials")
		seed   = flag.Int64("seed", 2011, "seed")
		names  = flag.Int("names", 10000, "gazetteer size (distinct names)")
	)
	flag.Parse()

	gaz, err := gazetteer.Synthesize(gazetteer.Config{Names: *names, Seed: *seed})
	if err != nil {
		log.Fatalf("gazetteer: %v", err)
	}
	ont := ontology.New()
	ont.LoadContainment(gaz)
	resolver := disambig.NewResolver(gaz, ont)
	rng := rand.New(rand.NewSource(*seed))

	// Collect names by ambiguity bucket.
	type sample struct {
		name string
		gold *gazetteer.Entry
	}
	buckets := map[string][]sample{}
	bucketOf := func(d int) string {
		switch {
		case d <= 1:
			return "1"
		case d <= 3:
			return "2-3"
		case d <= 10:
			return "4-10"
		case d <= 100:
			return "11-100"
		default:
			return ">100"
		}
	}
	names2entries := map[string][]*gazetteer.Entry{}
	gaz.EachEntry(func(e *gazetteer.Entry) bool {
		names2entries[e.NormName] = append(names2entries[e.NormName], e)
		return true
	})
	// Sample in name order: drawing from rng while ranging over the map
	// would make the table differ from run to run under one seed.
	for _, name := range slices.Sorted(maps.Keys(names2entries)) {
		entries := names2entries[name]
		if len(entries) < 2 {
			continue
		}
		b := bucketOf(len(entries))
		buckets[b] = append(buckets[b], sample{name: name, gold: entries[rng.Intn(len(entries))]})
	}

	fmt.Println("ambiguity\ttrials\tprior_only_acc\tcontext_acc")
	for _, b := range []string{"2-3", "4-10", "11-100", ">100"} {
		pool := buckets[b]
		if len(pool) == 0 {
			continue
		}
		n := *trials / 4
		var priorOK, ctxOK int
		for i := 0; i < n; i++ {
			s := pool[rng.Intn(len(pool))]
			// Context: a co-toponym within 100 km of the gold reference.
			co := gaz.Near(s.gold.Location, 100000)
			var coSet [][]*gazetteer.Entry
			for _, c := range co {
				if c.NormName != s.name {
					coSet = append(coSet, []*gazetteer.Entry{c})
					break
				}
			}
			prior, err := resolver.ResolvePriorOnly(s.name)
			if err != nil {
				log.Fatal(err)
			}
			if best, ok := prior.Best(); ok && best.Entry.ID == s.gold.ID {
				priorOK++
			}
			ctx, err := resolver.Resolve(s.name, disambig.Context{
				CoToponyms: coSet,
				Anchor:     nil,
			})
			if err != nil {
				log.Fatal(err)
			}
			if best, ok := ctx.Best(); ok && best.Entry.ID == s.gold.ID {
				ctxOK++
			}
		}
		fmt.Printf("%s\t%d\t%.3f\t%.3f\n", b, n, float64(priorOK)/float64(n), float64(ctxOK)/float64(n))
	}
}
