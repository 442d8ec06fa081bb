// Package suite is the single registry of the project's analyzers:
// cmd/neogeolint and the tree-stays-clean guard tests (the root
// module's and bench's) all draw from it, so an analyzer added here is
// enforced everywhere at once.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/passes/atomicwrite"
	"repro/internal/analysis/passes/ctxflow"
	"repro/internal/analysis/passes/errdiscipline"
	"repro/internal/analysis/passes/importboundary"
	"repro/internal/analysis/passes/lockdiscipline"
	"repro/internal/analysis/passes/metriclabels"
	"repro/internal/analysis/passes/postcommit"
	"repro/internal/analysis/passes/singlewriter"
	"repro/internal/analysis/passes/versionbump"
)

// Analyzers returns the full suite, alphabetical by name. The shared
// inspect and lockspan passes are pulled in through Requires and are
// not listed — they report nothing themselves.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicwrite.Analyzer,
		ctxflow.Analyzer,
		errdiscipline.Analyzer,
		importboundary.Analyzer,
		lockdiscipline.Analyzer,
		metriclabels.Analyzer,
		postcommit.Analyzer,
		singlewriter.Analyzer,
		versionbump.Analyzer,
	}
}
