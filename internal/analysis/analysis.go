// Package analysis is a self-contained static-analysis framework
// modelled on golang.org/x/tools/go/analysis, built only on the
// standard library's go/ast, go/parser and go/types (the x/tools
// module is not vendored here, so the real framework is out of reach
// offline). It provides just the slice the project needs:
//
//   - Analyzer / Pass / Diagnostic mirroring the x/tools API shape, so
//     the project's analyzers port to the real framework mechanically
//     if the dependency ever lands.
//   - A loader that type-checks module packages against compiler
//     export data obtained from `go list -export` (load.go), plus a
//     GOPATH-style testdata loader for golden tests (the analysistest
//     subpackage).
//   - One driver (multichecker.go: LoadPackages → RunPackages), used
//     by cmd/neogeolint, the tree-stays-clean tests and the goldens
//     alike, with //lint:ignore suppression directives (directive.go)
//     and run-local cross-package facts (facts.go).
//
// The analyzers themselves live under passes/ and encode the repo's
// hard invariants — import boundaries, single-writer shard discipline,
// temp→fsync→rename durability, error wrapping, context flow — so a
// refactor that silently violates one fails CI instead of corrupting a
// store at runtime. docs/INVARIANTS.md is the human-readable index.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one analysis: a named invariant and the
// function that checks a single package against it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. By convention it is a single
	// lower-case word.
	Name string

	// Doc is the analyzer's documentation: first line a summary, the
	// rest an explanation of the invariant it pins.
	Doc string

	// Run applies the analyzer to one package, reporting diagnostics
	// through pass.Report. The returned value is this analyzer's result
	// for the package: dependents declared via Requires receive it in
	// Pass.ResultOf. Errors abort the whole run.
	Run func(*Pass) (any, error)

	// Requires lists analyzers whose results this one consumes. The
	// driver expands the closure, rejects cycles, and runs requirements
	// first; their per-package results appear in Pass.ResultOf. The
	// shared single-walk AST index (passes/inspect) and the locked-region
	// layer (passes/lockspan) are the common requirements — N analyzers
	// requiring them cost one traversal per package, not N.
	Requires []*Analyzer
}

// A Pass provides one analyzer with the type-checked syntax of one
// package plus the Report sink for its diagnostics.
type Pass struct {
	// Analyzer is the analyzer being applied.
	Analyzer *Analyzer

	// Path is the package's import path (e.g. "repro/internal/mq").
	Path string

	// Fset maps token positions to file locations for all Files.
	Fset *token.FileSet

	// Files is the package's parsed syntax, test files excluded.
	Files []*ast.File

	// Pkg is the type-checked package.
	Pkg *types.Package

	// TypesInfo holds the type information recorded while checking
	// Files (definitions, uses, selections, expression types).
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver owns filtering
	// (lint:ignore directives, test files) and formatting.
	Report func(Diagnostic)

	// ResultOf holds the results of this package's analyses by the
	// analyzers named in Analyzer.Requires.
	ResultOf map[*Analyzer]any

	// facts is the run-wide fact store (see facts.go).
	facts factSet
}

// ExportFact publishes a fact about fn for later analyses — of this
// package by dependent analyzers, and of downstream packages by any
// analyzer (the driver analyzes packages in import order).
func (p *Pass) ExportFact(fn *types.Func, f Fact) {
	p.facts.export(fn, f)
}

// ImportFact copies the stored fact of dst's type about fn into dst,
// reporting whether one was found. fn may belong to this package or to
// any dependency already analyzed.
func (p *Pass) ImportFact(fn *types.Func, dst Fact) bool {
	return p.facts.imp(fn, dst)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding: a position and a message. The driver
// stamps the reporting analyzer's name before printing.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled in by the driver
}
