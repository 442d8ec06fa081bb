// Command neogeolint is the project's invariant checker: it loads the
// packages named on the command line (default ./...) via
// `go list -export`, runs the analyzers under internal/analysis/passes
// over them and prints one finding per line to stdout. It takes no
// flags. Exit status: 0 clean, 1 findings, 2 usage or load error.
//
//	neogeolint ./...        # from the module root; sh scripts/lint.sh does this
//
// Suppress a single finding with a justified directive on or above the
// line:
//
//	//lint:ignore atomicwrite scratch file, durability not required
//
// An ignore directive that matches no finding is itself reported:
// stale suppressions hide nothing and rot.
//
// See docs/INVARIANTS.md for the invariant each analyzer pins.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the packages matching patterns in the module containing
// dir and returns the process exit status.
func run(dir string, patterns []string, stdout, stderr io.Writer) int {
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			usage(stderr)
			return 2
		}
	}
	pkgs, err := analysis.LoadPackages(dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintln(stderr, "neogeolint: no packages matched", strings.Join(patterns, " "))
		return 2
	}
	diags, err := analysis.RunPackages(pkgs, suite.Analyzers())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// Positions print relative to dir, the way go vet prints them.
	base, _ := filepath.Abs(dir)
	for _, d := range diags {
		fmt.Fprintln(stdout, strings.TrimPrefix(analysis.Format(pkgs[0].Fset, d), base+string(filepath.Separator)))
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "neogeolint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprint(w, "usage: neogeolint [packages]\n\nAnalyzers:\n")
	for _, a := range suite.Analyzers() {
		fmt.Fprintf(w, "  %-15s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
	}
}
