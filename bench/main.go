// Command neogeo-bench is the repository's benchmark: it drives a live
// neogeod over HTTP with four named workloads and reports end-to-end
// metrics, or — with -trace 1 — replays the same generated inputs
// in-process against the pipeline's layers and reports per-layer
// metrics from spans it records around each call. bench/run.sh builds
// both programs and runs this one; see bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// buildDir, at the root of the checkout, is where bench/run.sh puts the
// binaries and where scratch falls back to when there is no tmpfs.
const buildDir = ".bench_build"

// workloads in report order; "all" runs every one.
var workloads = []string{"ingest_stream", "ask_cold", "serve_mix", "crash_recover"}

// endToEnd are the metrics every live run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
}

// harness is one benchmark process: its configuration, the children it
// owns and the verdict it accumulates.
type harness struct {
	neogeod     string
	scratch     string // WALs, data dirs and daemon logs
	scratchKind string
	seed        int64
	seconds     float64
	scale       float64
	out         io.Writer
	load, ctl   *http.Client // conns load connections; one control connection
	daemons     []*daemon

	attempted, failed int
	problems          []string // failed output checks
}

// check records a failed output check; the run then reports
// correct=false and exits non-zero.
func (h *harness) check(ok bool, format string, args ...any) {
	if !ok {
		h.problems = append(h.problems, fmt.Sprintf(format, args...))
	}
}

func (h *harness) printf(format string, args ...any) { fmt.Fprintf(h.out, format, args...) }

// phase is the length of the measured phase.
func (h *harness) phase() time.Duration {
	return time.Duration(h.seconds * float64(time.Second))
}

// cleanup ends every child and removes the scratch directory; it runs on
// every exit path, failed checks included.
func (h *harness) cleanup() {
	for _, d := range h.daemons {
		_ = d.stop(syscall.SIGKILL) // best effort while unwinding
	}
	if h.scratch != "" {
		_ = os.RemoveAll(h.scratch) // best effort while unwinding
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("neogeo-bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "one of "+strings.Join(workloads, ", ")+", or all")
		seed     = fs.Int64("seed", 2011, "seed of every generated input")
		seconds  = fs.Float64("seconds", 18, "length of the measured phase")
		trace    = fs.Int("trace", 0, "1: replay in-process and report per-layer metrics instead")
		scale    = fs.Float64("scale", 1, "scales the fixed op counts (preload, warm-up, crash window); smoke runs use 0.01")
		neogeod  = fs.String("neogeod", filepath.Join(buildDir, "neogeod"), "the neogeod binary under test (bench/run.sh builds it)")
		outDir   = fs.String("out", filepath.Join("bench", "out"), "directory for span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloads
	if *workload != "all" {
		names = []string{*workload}
		if !slices.Contains(workloads, *workload) {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			return 2
		}
	}
	if *seconds <= 0 || *scale <= 0 {
		fmt.Fprintln(os.Stderr, "-seconds and -scale must be positive")
		return 2
	}

	h := &harness{
		neogeod: *neogeod, seed: *seed, seconds: *seconds, scale: *scale, out: stdout,
		load: newClient(conns), ctl: newClient(1),
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	defer h.cleanup()

	var err error
	if *trace == 0 {
		if _, err := os.Stat(*neogeod); err != nil {
			fmt.Fprintf(os.Stderr, "no neogeod binary (%v); run bench/run.sh, which builds it\n", err)
			return 2
		}
		if pid, ok := staleDaemon(); ok {
			fmt.Fprintf(os.Stderr, "a neogeod from an earlier run is still alive (pid %d); stop it first\n", pid)
			return 1
		}
	}
	if h.scratch, h.scratchKind, err = scratchRoot(buildDir); err != nil {
		fmt.Fprintln(os.Stderr, "no scratch directory:", err)
		return 1
	}
	h.header(*trace)

	res := result{Metrics: map[string]metric{}}
	for _, w := range names {
		var m map[string]metric
		if *trace == 0 {
			m, err = h.runLive(ctx, w)
		} else {
			m, err = h.runTrace(ctx, w, *outDir)
		}
		if err != nil {
			// No result line: the run did not measure anything usable.
			fmt.Fprintf(os.Stderr, "%s: %v\n", w, err)
			return 1
		}
		if len(names) == 1 {
			res.Metrics = m
		} else {
			for k, v := range m {
				res.Metrics[w+"/"+k] = v
			}
		}
	}
	res.Attempted, res.Failed = h.attempted, h.failed
	res.Correct = h.failed == 0 && len(h.problems) == 0
	for _, p := range h.problems {
		h.printf("FAILED CHECK: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	h.printf("%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// header describes the box and the build, so a report can be traced to
// what produced it.
func (h *harness) header(trace int) {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	mode := "live daemon over HTTP, tracing off"
	if trace != 0 {
		mode = "in-process traced replay"
	}
	h.printf("# neogeo-bench: %s\n", mode)
	h.printf("# nproc=%d GOMAXPROCS=%d %s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	h.printf("# scratch=%s (%s) seed=%d seconds=%g scale=%g conns=%d\n", h.scratch, h.scratchKind, h.seed, h.seconds, h.scale, conns)
}
