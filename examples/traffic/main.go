// Command traffic demonstrates the motivation section's truck-driver
// scenario: drivers report road conditions by SMS; the system aggregates
// them into road reports with certainty factors, and other drivers query
// the current situation — including the effect of temporal decay, since
// "geographical information is dynamic information and always changing
// over time".
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	neogeo "repro"
)

func main() {
	// A fixed clock dates the reports the same on every run, so the
	// temporal expressions and the decay below print the same counts.
	now := time.Date(2011, 4, 1, 12, 0, 0, 0, time.UTC)
	sys, err := neogeo.New(
		neogeo.WithGazetteerNames(2000),
		neogeo.WithGazetteerSeed(2011),
		neogeo.WithClock(func() time.Time { return now }),
	)
	if err != nil {
		log.Fatalf("building system: %v", err)
	}
	defer sys.Close()

	ctx := context.Background()
	reports := []struct{ body, source string }{
		{"huge traffic jam in Nairobi after the accident, road blocked", "driver01"},
		{"still stuck in the jam in Nairobi, avoid the ring road", "driver02"},
		{"road near Lagos flooded, take the northern detour", "driver03"},
		{"traffic moving slowly past the checkpoint in Cairo", "driver04"},
		{"accident cleared in Cairo, road open again", "driver05"},
	}
	for _, r := range reports {
		out, err := sys.Ingest(ctx, r.body, r.source)
		if err != nil {
			log.Fatalf("ingest %q: %v", r.body, err)
		}
		fmt.Printf("%-9s -> domain=%-8s inserted=%d merged=%d\n",
			r.source, out.Domain, out.Inserted, out.Merged)
	}

	for _, q := range []string{
		"any traffic in Nairobi this morning?",
		"is the road near Lagos open?",
	} {
		answer, err := sys.Ask(ctx, q, "driver99")
		if err != nil {
			log.Fatalf("ask: %v", err)
		}
		fmt.Println("\nQ:", q)
		fmt.Println("A:", answer.Text)
	}

	// A week later, unconfirmed reports have decayed.
	later := now.Add(7 * 24 * time.Hour)
	decayed, deleted, err := sys.Decay(later, 0.05)
	if err != nil {
		log.Fatalf("decay: %v", err)
	}
	fmt.Printf("\nafter 7 days: %d reports decayed, %d dropped below the certainty floor\n",
		decayed, deleted)
}
