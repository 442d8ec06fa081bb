// Example crisis demonstrates the paper's crisis-management motivation
// ("Many other applications in fields of health, urban utilities
// monitoring, and crisis management can be developed with our proposed
// system"): citizens report a flood situation by SMS, reports carry
// temporal expressions that date the observation rather than the arrival,
// a stale report arriving late does not clobber fresher state, and the
// accumulated knowledge survives a process restart via a database
// snapshot — here across a sharded store, whose snapshot stream carries
// one section per shard.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	neogeo "repro"
)

func main() {
	build := func() *neogeo.System {
		// The same gazetteer options on both sides of the restart:
		// synthesis is seeded, so the restarted process reconstructs the
		// identical toponym database the snapshot's records were resolved
		// against.
		sys, err := neogeo.New(
			neogeo.WithGazetteerNames(2000),
			neogeo.WithGazetteerSeed(2011),
			neogeo.WithShards(2),
			// A fixed clock dates "this morning" and "4 hours ago" the
			// same on every run, and keeps the snapshot's timestamps,
			// and so its size, stable.
			neogeo.WithClock(func() time.Time { return time.Date(2011, 4, 1, 12, 0, 0, 0, time.UTC) }),
		)
		if err != nil {
			log.Fatal(err)
		}
		return sys
	}
	sys := build()
	defer sys.Close()

	ctx := context.Background()
	// A flood develops. Note the interleaved timing: the "flooded this
	// morning" report arrives AFTER the road has been reported clear —
	// a delayed SMS, exactly the ill-behaved arrival order the paper
	// warns about. Observation-time integration keeps the fresher fact.
	reports := []struct{ msg, from string }{
		{"road near Nairobi flooded this morning, take the detour", "driver-1"},
		{"huge traffic jam in Nairobi after the accident", "driver-2"},
		{"road near Nairobi clear now, water gone", "driver-3"},
		{"road near Nairobi flooded 4 hours ago", "driver-4 (delayed SMS)"},
	}
	for _, r := range reports {
		out, err := sys.Ingest(ctx, r.msg, r.from)
		if err != nil {
			log.Fatalf("ingest %q: %v", r.msg, err)
		}
		fmt.Printf("%-28s -> type=%s domain=%s inserted=%d merged=%d\n",
			r.from, out.Type, out.Domain, out.Inserted, out.Merged)
	}

	answer, err := sys.Ask(ctx, "is the road to Nairobi open?", "dispatcher")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndispatcher asks: is the road to Nairobi open?\n%s\n", answer.Text)

	// Snapshot the knowledge, simulate a restart, restore, ask again.
	var img bytes.Buffer
	if err := sys.Snapshot(&img); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsnapshot: %d bytes across %d shards\n", img.Len(), sys.Stats().Shards)

	restarted := build()
	defer restarted.Close()
	if err := restarted.Restore(&img); err != nil {
		log.Fatal(err)
	}
	answer2, err := restarted.Ask(ctx, "is the road to Nairobi open?", "dispatcher")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after restart, same question:\n%s\n", answer2.Text)
}
