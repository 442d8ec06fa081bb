package core

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// The concurrent pipeline reaches the same stored state as the sequential
// path for the same stream: every message processed exactly once, entity
// merging unchanged. Run with -race.
func TestProcessConcurrentMatchesSequential(t *testing.T) {
	stream := make([]string, 0, 30)
	for i := 0; i < 30; i++ {
		switch i % 3 {
		case 0:
			stream = append(stream, "wonderful stay at the Axel Hotel in Berlin")
		case 1:
			stream = append(stream, "the Royal Gate Hotel in Paris was dirty and overpriced")
		default:
			stream = append(stream, "can anyone recommend a good hotel in Berlin?")
		}
	}

	seq, err := New(Config{GazetteerNames: 300, Workers: 1, Clock: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	conc, err := New(Config{GazetteerNames: 300, Workers: 4, Clock: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	defer conc.Close()

	for i, m := range stream {
		src := fmt.Sprintf("user%d", i%5)
		if _, err := seq.Submit(context.Background(), m, src); err != nil {
			t.Fatal(err)
		}
		if _, err := conc.Submit(context.Background(), m, src); err != nil {
			t.Fatal(err)
		}
	}

	seqOuts, seqErrs := drainSequential(seq)
	concOuts, concErrs := drainPipeline(conc)
	if len(seqErrs) != 0 || len(concErrs) != 0 {
		t.Fatalf("errors: seq=%v conc=%v", seqErrs, concErrs)
	}
	if len(concOuts) != len(seqOuts) {
		t.Fatalf("outcomes: conc=%d seq=%d", len(concOuts), len(seqOuts))
	}
	if got, want := conc.Store.Shard(0).Len("Hotels"), seq.Store.Shard(0).Len("Hotels"); got != want {
		t.Fatalf("Hotels: conc=%d seq=%d", got, want)
	}
	if conc.Queue.Len() != 0 || conc.Queue.InFlight() != 0 {
		t.Fatalf("concurrent queue not drained: len=%d inflight=%d",
			conc.Queue.Len(), conc.Queue.InFlight())
	}
}
