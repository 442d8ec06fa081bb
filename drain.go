package neogeo

import (
	"context"
	"iter"

	"repro/internal/coordinator"
)

// Drain processes queued messages through the coordinator's pipeline
// engine (coordinator.DrainEach) — the calling goroutine dispatches, a
// worker pool (WithWorkers) extracts, one integration lane per shard
// commits — until the queue is empty, limit messages have been dispatched
// (limit <= 0 means no limit), or ctx is cancelled.
//
// The result is a streaming iterator: each finished message yields
// exactly one (outcome, nil) or (nil, error) pair as the pipeline
// completes it, in completion order, so a million-message drain never
// buffers every outcome in memory. The loop body runs on the goroutine
// that ranges — Drain starts none of its own — so a panic in it unwinds
// through the caller like any other. Breaking out of the loop (or
// panicking) cancels the drain; messages already dispatched into the
// pipeline complete (and are acknowledged) with their outcomes discarded,
// undispatched ones stay pending for the next drain — no message is lost
// or stranded in flight. Failed messages are negatively acknowledged for
// redelivery and dead-letter after the queue's attempt limit, surfacing
// here as errors. Concurrent Drain calls compete for messages and each
// returns once the queue is empty and its own messages are settled.
func (s *System) Drain(ctx context.Context, limit int) iter.Seq2[*Outcome, error] {
	return func(yield func(*Outcome, error) bool) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		stopped := false
		s.sys.MC.DrainEach(ctx, limit, func(out *coordinator.Outcome, err error) {
			if !stopped && !yield(publicOutcome(out), err) {
				stopped = true
				cancel()
			}
		})
	}
}
