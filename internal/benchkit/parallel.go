package benchkit

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/gazetteer"
	"repro/internal/tweetgen"
)

// ParallelConfig parameterises the end-to-end pipeline throughput
// benchmark.
type ParallelConfig struct {
	// Messages is the stream length.
	Messages int
	// Seed generates the tweet stream deterministically: every mode and
	// configuration replays the identical stream for one value.
	Seed int64
	// Noise is the tweet-stream noise level.
	Noise float64
	// RequestRatio is the fraction of request messages.
	RequestRatio float64
	// GazetteerNames is the synthetic gazetteer size.
	GazetteerNames int
	// UseWAL backs the queue with a write-ahead log, the production
	// configuration whose per-message fsync the integration lanes
	// amortize via group-committed acknowledgements.
	UseWAL bool
	// Workers is the comma-separated worker counts; 0 = sequential drain.
	Workers string
	// Shards is the comma-separated shard counts for the probabilistic
	// store.
	Shards string
}

// Parallel replays one synthetic tweet stream through the full
// MQ -> MC -> IE -> DI pipeline once per drain configuration and reports
// throughput to w. The stream is generated exactly once from the seed and
// every (workers × shards) configuration gets a fresh system fed that
// same slice (same gazetteer too), so sequential, concurrent and sharded
// runs compare identical inputs; submission is not timed — the
// measurement is the drain, which is where acknowledgement durability,
// integration batching and shard-lane parallelism live. Cancelling ctx
// stops the concurrent drains early.
func Parallel(ctx context.Context, cfg ParallelConfig, w io.Writer) error {
	gaz, err := gazetteer.Synthesize(gazetteer.Config{Names: cfg.GazetteerNames, Seed: 2011})
	if err != nil {
		return fmt.Errorf("synthesising gazetteer: %w", err)
	}
	gen, err := tweetgen.New(tweetgen.Config{
		Seed: cfg.Seed, Noise: cfg.Noise, Domain: tweetgen.DomainMixed, RequestRatio: cfg.RequestRatio,
	})
	if err != nil {
		return fmt.Errorf("tweet stream: %w", err)
	}
	n := cfg.Messages
	stream := gen.Generate(n)

	parseCounts := func(list, flagName string, min int) ([]int, error) {
		var out []int
		for _, f := range strings.Split(list, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < min {
				return nil, fmt.Errorf("bad %s entry %q", flagName, f)
			}
			out = append(out, v)
		}
		return out, nil
	}
	workerCounts, err := parseCounts(cfg.Workers, "-workers", 0)
	if err != nil {
		return err
	}
	shardCounts, err := parseCounts(cfg.Shards, "-shards", 1)
	if err != nil {
		return err
	}

	tmp, err := os.MkdirTemp("", "integbench-wal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	fmt.Fprintf(w, "# parallel drain: %d msgs, seed=%d, noise=%.1f, requests=%.1f, wal=%v\n",
		n, cfg.Seed, cfg.Noise, cfg.RequestRatio, cfg.UseWAL)
	fmt.Fprintln(w, "config\tmsgs\tseconds\tmsgs_per_sec\tspeedup\tshard_balance")
	var baseline float64
	run := 0
	for _, wk := range workerCounts {
		for _, nshards := range shardCounts {
			sysCfg := core.Config{Gazetteer: gaz, Workers: wk, Shards: nshards, IntegrateBatch: 16}
			if wk == 0 {
				sysCfg.Workers = 1 // ProcessOne loop below; width is unused
			}
			if cfg.UseWAL {
				sysCfg.QueueWAL = filepath.Join(tmp, fmt.Sprintf("queue-%d.wal", run))
			}
			sys, err := core.New(sysCfg)
			if err != nil {
				return err
			}
			for _, m := range stream {
				if _, err := sys.Submit(ctx, m.Text, m.Source); err != nil {
					sys.Close()
					return err
				}
			}
			label := "sequential"
			if wk != 0 {
				label = fmt.Sprintf("workers=%d", wk)
			}
			if nshards > 1 {
				label += fmt.Sprintf("/shards=%d", nshards)
			}
			start := time.Now()
			var outs int
			var errs []error
			emit := func(_ *coordinator.Outcome, err error) {
				if err != nil {
					errs = append(errs, err)
					return
				}
				outs++
			}
			if wk == 0 {
				for {
					out, ok, err := sys.MC.ProcessOne(ctx)
					if !ok {
						break
					}
					emit(out, err)
				}
			} else {
				sys.MC.DrainEach(ctx, 0, emit)
			}
			elapsed := time.Since(start).Seconds()
			balance := sys.Store.Balance()
			qstats := sys.Queue.Stats()
			// A failed close means the WAL's final state is suspect: the
			// numbers above would describe a run whose durability story is
			// broken, so it fails the benchmark like any drain error.
			closeErr := sys.Close()
			if len(errs) > 0 {
				return fmt.Errorf("%s: %d drain errors (first: %w)", label, len(errs), errs[0])
			}
			if closeErr != nil {
				return fmt.Errorf("%s: closing system: %w", label, closeErr)
			}
			if outs != n {
				return fmt.Errorf("%s: drained %d of %d messages", label, outs, n)
			}
			if qstats.Acked != n || qstats.DeadLettered != 0 {
				return fmt.Errorf("%s: queue health acked=%d dead=%d, want %d acked",
					label, qstats.Acked, qstats.DeadLettered, n)
			}
			rate := float64(n) / elapsed
			// Speedup is relative to the first configuration in the list
			// (conventionally 0 = sequential, but any list works).
			if run == 0 {
				baseline = rate
			}
			run++
			speedup := rate / baseline
			fmt.Fprintf(w, "%s\t%d\t%.3f\t%.0f\t%.2fx\t%s\n",
				label, n, elapsed, rate, speedup, balanceString(balance))
		}
	}
	return nil
}

// balanceString renders per-shard record counts compactly: "512" for a
// single store, "[130 128 125 131]" for a sharded one.
func balanceString(balance []int) string {
	if len(balance) == 1 {
		return strconv.Itoa(balance[0])
	}
	parts := make([]string, len(balance))
	for i, n := range balance {
		parts[i] = strconv.Itoa(n)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
