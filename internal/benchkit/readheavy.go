package benchkit

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/gazetteer"
	"repro/internal/tweetgen"
)

// ReadHeavyConfig parameterises the serving-mix benchmark: one tweet
// stream whose request ratio sets the ask:report mix, replayed against a
// cached and an uncached system.
type ReadHeavyConfig struct {
	// Ops is the total operation count (asks + reports together).
	Ops int
	// AskRatio is the fraction of operations that are questions; the
	// remainder are reports that integrate (and so bump shard versions
	// under the cache). 0.9 is the hot-read-path shape.
	AskRatio float64
	// Seed generates the stream deterministically: the cached and
	// uncached runs replay the identical operation sequence.
	Seed int64
	// Noise is the tweet-stream noise level.
	Noise float64
	// GazetteerNames is the synthetic gazetteer size.
	GazetteerNames int
	// Workers is the pipeline worker-pool width for drains.
	Workers int
	// Shards is the probabilistic store shard count.
	Shards int
	// Cache is the answer-cache capacity of the cached run; the baseline
	// run always disables the cache.
	Cache int
	// DrainEvery is how many reports buffer before a drain pass
	// (default 16, the pipeline's integration batch).
	DrainEvery int
}

// ReadHeavy replays one mixed ask/report stream twice — answer cache off,
// then on — and reports throughput, mean ask latency and the cache's hit
// ratio to w. Requests route to Ask (a generated request the classifier
// rejects is counted as skipped, identically in both runs); informative
// messages enqueue and drain in integration-batch-sized groups, so the
// cached run pays realistic version-vector invalidations between bursts
// of asks rather than serving an artificially quiescent store.
func ReadHeavy(ctx context.Context, cfg ReadHeavyConfig, w io.Writer) error {
	if cfg.Ops <= 0 {
		return fmt.Errorf("readheavy: ops %d, want > 0", cfg.Ops)
	}
	if cfg.AskRatio < 0 || cfg.AskRatio > 1 {
		return fmt.Errorf("readheavy: ask ratio %v outside [0, 1]", cfg.AskRatio)
	}
	if cfg.Cache <= 0 {
		return fmt.Errorf("readheavy: cache capacity %d, want > 0 for the cached run", cfg.Cache)
	}
	if cfg.DrainEvery <= 0 {
		cfg.DrainEvery = 16
	}
	gaz, err := gazetteer.Synthesize(gazetteer.Config{Names: cfg.GazetteerNames, Seed: 2011})
	if err != nil {
		return fmt.Errorf("synthesising gazetteer: %w", err)
	}
	gen, err := tweetgen.New(tweetgen.Config{
		Seed: cfg.Seed, Noise: cfg.Noise, Domain: tweetgen.DomainMixed, RequestRatio: cfg.AskRatio,
	})
	if err != nil {
		return fmt.Errorf("tweet stream: %w", err)
	}
	stream := gen.Generate(cfg.Ops)

	fmt.Fprintf(w, "# read-heavy mix: %d ops, ask-ratio=%.2f, seed=%d, noise=%.1f, shards=%d, drain-every=%d\n",
		cfg.Ops, cfg.AskRatio, cfg.Seed, cfg.Noise, cfg.Shards, cfg.DrainEvery)
	fmt.Fprintln(w, "config\tasks\treports\tskipped\tseconds\tops_per_sec\task_avg_us\thits\tmisses\thit_rate")
	for _, cache := range []int{0, cfg.Cache} {
		sys, err := core.New(core.Config{
			Gazetteer: gaz, Workers: cfg.Workers, Shards: cfg.Shards,
			AnswerCache: cache, IntegrateBatch: 16,
		})
		if err != nil {
			return err
		}
		var asks, reports, skipped, pending int
		var askTime time.Duration
		drain := func() error {
			if pending == 0 {
				return nil
			}
			pending = 0
			var first error
			sys.MC.DrainEach(ctx, 0, func(_ *coordinator.Outcome, err error) {
				if first == nil && err != nil {
					first = fmt.Errorf("drain: %w", err)
				}
			})
			return first
		}
		start := time.Now()
		for _, m := range stream {
			if m.Truth.Type == "request" {
				t := time.Now()
				_, err := sys.Ask(ctx, m.Text, m.Source)
				askTime += time.Since(t)
				if err != nil {
					// Noise can push a generated request below the
					// classifier's question threshold; the stream is
					// shared, so both runs skip the same messages.
					skipped++
					continue
				}
				asks++
				continue
			}
			if _, err := sys.Submit(ctx, m.Text, m.Source); err != nil {
				sys.Close()
				return err
			}
			reports++
			if pending++; pending >= cfg.DrainEvery {
				if err := drain(); err != nil {
					sys.Close()
					return err
				}
			}
		}
		finalErr := drain()
		elapsed := time.Since(start).Seconds()
		label := "cache=off"
		hits, misses := int64(0), int64(0)
		hitRate := 0.0
		if cache > 0 {
			label = fmt.Sprintf("cache=%d", cache)
			st := sys.Cache.Stats()
			hits, misses = st.Hits, st.Misses
			if hits+misses > 0 {
				hitRate = float64(hits) / float64(hits+misses)
			}
		}
		closeErr := sys.Close()
		if finalErr != nil {
			return finalErr
		}
		if closeErr != nil {
			return fmt.Errorf("%s: closing system: %w", label, closeErr)
		}
		avgUS := 0.0
		if asks > 0 {
			avgUS = float64(askTime.Microseconds()) / float64(asks)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.3f\t%.0f\t%.1f\t%d\t%d\t%.3f\n",
			label, asks, reports, skipped, elapsed,
			float64(asks+reports)/elapsed, avgUS, hits, misses, hitRate)
	}
	return nil
}
