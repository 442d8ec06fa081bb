package neogeo

import (
	"os/exec"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

// TestTreeRunsClean is the testdata-drift guard: the goldens under
// internal/analysis/passes/*/testdata pin what each analyzer flags,
// and this test pins the complement — the real tree, as committed,
// produces zero findings under the full suite. An analyzer change
// that starts flagging live code (or a code change that violates an
// invariant) fails here, in `go test`, not first in CI's lint step;
// and a golden that drifts away from how the production code is
// actually shaped gets caught because both sides run from the same
// suite registry.
func TestTreeRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	pkgs, err := analysis.LoadPackages(".", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("only %d packages loaded — wrong working directory?", len(pkgs))
	}
	diags, err := analysis.RunPackages(pkgs, suite.Analyzers())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", analysis.Format(pkgs[0].Fset, d))
	}
	if t.Failed() {
		t.Log("fix the violation or suppress it with a justified //lint:ignore (see docs/INVARIANTS.md)")
	}
}

// TestBenchModuleBuilds compiles the benchmark harness. bench/ is a
// nested module built against this module's internal packages, so
// `go build ./... && go test ./...` at the root never sees it: a changed
// signature here would otherwise surface only as a benchmark run that
// fails to start. go vet type-checks the harness and its tests.
func TestBenchModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the nested bench module")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
