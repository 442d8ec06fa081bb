package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

// contract is the part of BENCHMARK.json the harness must agree with.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []contractMetric `json:"end_to_end"`
	PerLayer  []contractMetric `json:"per_layer"`
}

type contractMetric struct{ Name, Unit string }

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// smoke runs the harness in-process and returns its report and result.
func smoke(t *testing.T, args ...string) (string, result) {
	t.Helper()
	var out bytes.Buffer
	if code := run(args, &out); code != 0 {
		t.Fatalf("run %v: exit code %d\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run %v: %+v\n%s", args, res, out.String())
	}
	return out.String(), res
}

// agree asserts the result holds exactly the contract's metrics, with
// their units, and that the report prints each name once at the start
// of a line.
func agree(t *testing.T, report string, res result, want []contractMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v (present %t), want unit %q", m.Name, got, ok, m.Unit)
		}
		lines := regexp.MustCompile(`(?m)^`+regexp.QuoteMeta(m.Name)+`\s`).FindAllString(report, -1)
		if len(lines) != 1 {
			t.Errorf("metric %s is printed %d times, want once", m.Name, len(lines))
		}
	}
}

// TestSmoke runs every workload against a live daemon, and its traced
// replay, at a hundredth of the size.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds neogeod and boots it a dozen times")
	}
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(c.Workloads), len(workloads))
	}
	neogeod := filepath.Join(t.TempDir(), "neogeod")
	if out, err := exec.Command("go", "build", "-o", neogeod, "repro/cmd/neogeod").CombinedOutput(); err != nil {
		t.Fatalf("building neogeod: %v\n%s", err, out)
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, c.Workloads[i].Name, w)
		}
		t.Run(w, func(t *testing.T) {
			report, res := smoke(t, "-workload", w, "-seed", "7", "-seconds", "1", "-scale", "0.01", "-trace", "0", "-neogeod", neogeod)
			agree(t, report, res, c.EndToEnd)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s is %v", name, m.Value)
				}
			}
		})
		t.Run(w+"/trace", func(t *testing.T) {
			out := t.TempDir()
			report, res := smoke(t, "-workload", w, "-seed", "7", "-scale", "0.05", "-trace", "1", "-out", out)
			agree(t, report, res, c.PerLayer)
			selfTimesAddUp(t, filepath.Join(out, "trace-"+w+".json"))
		})
	}
}

// selfTimesAddUp re-derives every span's self time from the span file
// and checks that they sum to the root span within 1%.
func selfTimesAddUp(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || spans[0].Parent != 0 {
		t.Fatalf("%s: %d spans, the first is not a root", path, len(spans))
	}
	children := map[int]int64{}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		children[s.Parent] += s.End - s.Start
	}
	var self int64
	for _, s := range spans {
		self += s.End - s.Start - children[s.ID]
	}
	root := spans[0].End - spans[0].Start
	if diff := float64(self-root) / float64(root); diff > 0.01 || diff < -0.01 {
		t.Errorf("self times sum to %d ns, the root span is %d ns", self, root)
	}
}

// TestInputsRepeat: one seed, one set of bytes; another seed, another.
func TestInputsRepeat(t *testing.T) {
	for _, w := range workloads {
		sz := sizesFor(w, 1, 0.05)
		a, b, c := generate(7, sz).digest(), generate(7, sz).digest(), generate(8, sz).digest()
		if a != b {
			t.Errorf("%s: seed 7 generated %s, then %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w)
		}
	}
}

// TestLintClean holds the harness to the project's analyzer suite. The
// root module's TestTreeRunsClean loads ./... of that module, which
// stops at this directory's go.mod.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the harness and what it imports")
	}
	pkgs, err := analysis.LoadPackages(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunPackages(pkgs, suite.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", analysis.Format(pkgs[0].Fset, d))
	}
}
