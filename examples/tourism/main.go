// Command tourism replays the paper's worked scenario (§"Example of a
// possible scenario") through the public facade: the three Berlin tweets
// flow through the Modules Coordinator into extraction templates and the
// probabilistic database; the user's request is answered with the paper's
// expected sentence. The structured Answer exposes what the paper's
// figures show — the formulated topk query, the ranked records with their
// certainties and conditional probabilities, and the stored probabilistic
// XML itself.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	neogeo "repro"
)

func main() {
	sys, err := neogeo.New(
		neogeo.WithGazetteerNames(2000),
		neogeo.WithGazetteerSeed(2011),
		// A fixed clock keeps the stored record's Observed_At, and so
		// the printed XML, the same on every run.
		neogeo.WithClock(func() time.Time { return time.Date(2011, 4, 1, 12, 0, 0, 0, time.UTC) }),
	)
	if err != nil {
		log.Fatalf("building system: %v", err)
	}
	defer sys.Close()

	ctx := context.Background()
	messages := []string{
		"berlin has some nice hotels i just loved the hetero friendly love that word Axel Hotel in Berlin.",
		"Good morning Berlin. The sun is out!!!! Very impressed by the customer service at #movenpick hotel in berlin. Well done guys!",
		"In Berlin hotel room, nice enough, weather grim however",
	}

	fmt.Println("=== Pipeline run ===")
	for i, m := range messages {
		out, err := sys.Ingest(ctx, m, fmt.Sprintf("user%d", i+1))
		if err != nil {
			log.Fatalf("ingest: %v", err)
		}
		fmt.Printf("message %d: type=%s inserted=%d merged=%d\n", i+1, out.Type, out.Inserted, out.Merged)
	}

	question := "Can anyone recommend a good, but not ridiculously expensive hotel right in the middle of Berlin?"
	ans, err := sys.Ask(ctx, question, "asker")
	if err != nil {
		log.Fatalf("ask: %v", err)
	}
	fmt.Println("\n=== Question answering ===")
	fmt.Println("Q:", question)
	fmt.Println("formulated query:", ans.Query)
	fmt.Println("A:", ans.Text)

	// The ranked records behind the sentence — certainty is the paper's
	// score($x), CondP the probability the where-clause holds.
	fmt.Println("\n=== Ranked results ===")
	for i, r := range ans.Results {
		fmt.Printf("%d. %-16s score=%.2f condP=%.2f", i+1, r.Fields["Hotel_Name"], r.Certainty, r.CondP)
		if r.Location != nil {
			fmt.Printf(" at (%.2f, %.2f)", r.Location.Lat, r.Location.Lon)
		}
		fmt.Println()
	}

	// Dump one stored probabilistic record to show the XML representation.
	if len(ans.Results) > 0 {
		fmt.Println("\n=== A stored probabilistic record ===")
		fmt.Println(ans.Results[0].XML)
	}
}
