// Command integbench runs experiment E7: uncertainty-aware probabilistic
// integration versus naive last-write-wins, measured as fact accuracy
// over stream length on a contradiction-laden report stream. Output is
// a TSV series: stream position, probabilistic accuracy, naive accuracy
// — EXPERIMENTS.md §E7 records a reference run. The workload lives in
// internal/benchkit, below the public facade, because it compares
// integration strategies the stable API does not expose.
//
// Throughput and latency are measured by bench/ (see bench/README.md),
// not here.
package main

import (
	"flag"
	"log"
	"os"

	"repro/internal/benchkit"
)

func main() {
	var (
		hotels   = flag.Int("hotels", 40, "distinct entities with a ground-truth attitude")
		msgs     = flag.Int("n", 1200, "total reports in the stream")
		step     = flag.Int("step", 100, "measurement interval")
		liarRate = flag.Float64("liars", 0.3, "fraction of reports from unreliable sources")
		seed     = flag.Int64("seed", 2011, "deterministic stream seed")
	)
	flag.Parse()

	err := benchkit.E7(benchkit.E7Config{
		Hotels:   *hotels,
		Messages: *msgs,
		Step:     *step,
		LiarRate: *liarRate,
		Seed:     *seed,
	}, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
}
