package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// RunPackages applies every analyzer (plus the closure of its Requires)
// to every package and returns the surviving diagnostics in position
// order. Facts are scoped to this one run. The driver applies the
// project-wide policy:
//
//   - Requirements run before their dependents (cycles are an error,
//     not a hang), and their per-package results flow to dependents via
//     Pass.ResultOf. Only the originally requested analyzers report —
//     a shared requirement like lockspan never pollutes a run (or a
//     golden test) aimed at one analyzer.
//   - Packages are analyzed in import order, so facts exported while
//     analyzing a dependency are visible when its importers run.
//   - Diagnostics positioned in _test.go files are dropped — tests
//     exercise failure paths and fakes that deliberately break the
//     production invariants. Neither loader reads test files today;
//     the filter holds the policy for one that does.
//   - Diagnostics matched by a justified //lint:ignore directive are
//     dropped. A directive without a justification is itself reported
//     under the pseudo-analyzer "lint", and so is a justified directive
//     that no longer suppresses anything — a stale suppression hides
//     the next real finding at that site, so the inventory must shrink
//     with the violations.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := make(factSet)
	order, err := expand(analyzers)
	if err != nil {
		return nil, err
	}
	requested := make(map[*Analyzer]bool, len(analyzers))
	runNames := make(map[string]bool, len(order))
	for _, a := range analyzers {
		requested[a] = true
	}
	for _, a := range order {
		runNames[a.Name] = true
	}

	var diags []Diagnostic
	for _, pkg := range sortPackages(pkgs) {
		dirs := parseDirectives(pkg.Fset, pkg.Files)
		used := make([]bool, len(dirs))
		for _, d := range dirs {
			if d.reason == "" {
				diags = append(diags, Diagnostic{
					Pos:      d.pos,
					Analyzer: "lint",
					Message:  "lint:ignore directive without a justification — state why the rule does not apply",
				})
			}
		}
		results := make(map[*Analyzer]any, len(order))
		for _, a := range order {
			pass := &Pass{
				Analyzer:  a,
				Path:      pkg.Path,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				ResultOf:  make(map[*Analyzer]any, len(a.Requires)),
				facts:     facts,
			}
			for _, req := range a.Requires {
				pass.ResultOf[req] = results[req]
			}
			var reported []Diagnostic
			pass.Report = func(d Diagnostic) {
				d.Analyzer = a.Name
				reported = append(reported, d)
			}
			res, err := a.Run(pass)
			if err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
			results[a] = res
			for _, d := range reported {
				p := pkg.Fset.Position(d.Pos)
				if strings.HasSuffix(p.Filename, "_test.go") {
					continue
				}
				suppressed := false
				for i := range dirs {
					if dirs[i].matches(a.Name, p.Filename, p.Line) {
						used[i] = true
						suppressed = true
						break
					}
				}
				if !suppressed && requested[a] {
					diags = append(diags, d)
				}
			}
		}
		for i, d := range dirs {
			if used[i] || d.reason == "" || !d.checkable(runNames) {
				continue
			}
			if strings.HasSuffix(d.file, "_test.go") {
				continue // test-file diagnostics are dropped, so usage is unknowable
			}
			diags = append(diags, Diagnostic{
				Pos:      d.pos,
				Analyzer: "lint",
				Message:  "unused lint:ignore directive — no matching diagnostic at this site, remove it",
			})
		}
	}
	// Sort by file position, then analyzer, for stable output. All
	// packages share one FileSet per load, so positions are comparable
	// within a run; across loads the file name breaks ties first.
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := position(pkgs, diags[i].Pos), position(pkgs, diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// checkable reports whether this run can decide that the directive is
// unused: every analyzer it names must have run (a directive naming an
// analyzer outside the run may be load-bearing for a different tool
// invocation). A "*" directive is checkable against any run.
func (d *directive) checkable(runNames map[string]bool) bool {
	if d.analyzers == nil {
		return true
	}
	for name := range d.analyzers {
		if !runNames[name] {
			return false
		}
	}
	return true
}

// expand returns the requested analyzers plus the transitive closure of
// their Requires, deterministically ordered with every requirement
// before its dependents. A Requires cycle is reported as an error.
func expand(analyzers []*Analyzer) ([]*Analyzer, error) {
	const (
		white = iota // unvisited
		grey         // on the current DFS path
		black        // done
	)
	state := make(map[*Analyzer]int)
	var order []*Analyzer
	var path []string
	var visit func(a *Analyzer) error
	visit = func(a *Analyzer) error {
		switch state[a] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("analysis: requires cycle: %s -> %s", strings.Join(path, " -> "), a.Name)
		}
		state[a] = grey
		path = append(path, a.Name)
		for _, req := range a.Requires {
			if err := visit(req); err != nil {
				return err
			}
		}
		path = path[:len(path)-1]
		state[a] = black
		order = append(order, a)
		return nil
	}
	for _, a := range analyzers {
		if err := visit(a); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// sortPackages orders packages so that every package follows the
// packages it imports (restricted to the in-run set): facts exported by
// a dependency's analysis are then in the store before any importer is
// analyzed. Input order breaks ties, so the result is deterministic for
// a deterministic load.
func sortPackages(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, pkg := range pkgs {
		byPath[pkg.Path] = pkg
	}
	done := make(map[*Package]bool, len(pkgs))
	out := make([]*Package, 0, len(pkgs))
	var visit func(pkg *Package)
	visit = func(pkg *Package) {
		if done[pkg] {
			return
		}
		done[pkg] = true // imports are acyclic (the compiler enforces it)
		if pkg.Types != nil {
			for _, imp := range pkg.Types.Imports() {
				if dep, ok := byPath[imp.Path()]; ok {
					visit(dep)
				}
			}
		}
		out = append(out, pkg)
	}
	for _, pkg := range pkgs {
		visit(pkg)
	}
	return out
}

// position resolves pos against whichever package's FileSet knows it.
func position(pkgs []*Package, pos token.Pos) token.Position {
	for _, pkg := range pkgs {
		if p := pkg.Fset.Position(pos); p.IsValid() {
			return p
		}
	}
	return token.Position{}
}

// Format renders one diagnostic the way `go vet` does, with the
// analyzer name appended so the invariant it enforces is identifiable
// (and suppressible by name).
func Format(fset *token.FileSet, d Diagnostic) string {
	return fmt.Sprintf("%s: %s (%s)", fset.Position(d.Pos), d.Message, d.Analyzer)
}
