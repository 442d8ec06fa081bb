// Package singlewriter pins the store's concurrency discipline: every
// xmldb.DB behind the sharded store has exactly one writer — the
// integration lane that owns the shard, or the feedback engine's
// per-shard apply batches — so integration never takes a cross-shard
// lock and a reader can never observe a half-merged record. The
// analyzer flags any call to a mutating DB/Tx method from a package
// outside the small set that implements those write paths; serving,
// QA and command-line code must go through Submit/Feedback instead of
// reaching into the store.
package singlewriter

import (
	"go/ast"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/inspect"
)

// xmldbPath is the package whose DB/Tx mutations are guarded.
const xmldbPath = "repro/internal/xmldb"

// mutators is the write surface of xmldb.DB and xmldb.Tx.
var mutators = map[string]bool{
	"Insert":          true,
	"Update":          true,
	"Delete":          true,
	"Batch":           true,
	"Restore":         true,
	"Install":         true,
	"SetIDSequence":   true,
	"AlignIDSequence": true,
	"SetClock":        true,
}

// writers are the packages that legitimately own a write path:
// xmldb itself, the integration lanes, the feedback apply engine, the
// shard router that fans writes out to lane-owned shards, and core,
// which restores checkpoint images during single-threaded boot.
var writers = map[string]bool{
	"repro/internal/xmldb":     true,
	"repro/internal/integrate": true,
	"repro/internal/feedback":  true,
	"repro/internal/shard":     true,
	"repro/internal/core":      true,
}

var Analyzer = &analysis.Analyzer{
	Name: "singlewriter",
	Doc: "xmldb.DB is mutated only by integration lanes and feedback apply paths\n\n" +
		"Each shard's DB has a single writer; mutating it from serving, QA\n" +
		"or command code bypasses the lane ordering that keeps concurrent\n" +
		"integration linearizable.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	if writers[pass.Path] {
		return nil, nil
	}
	inspect.Of(pass).Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok {
			return // package-qualified call, not a method
		}
		pkgPath, typeName, ok := analysis.NamedType(selection.Recv())
		if !ok || pkgPath != xmldbPath {
			return
		}
		if (typeName != "DB" && typeName != "Tx") || !mutators[sel.Sel.Name] {
			return
		}
		pass.Reportf(call.Pos(),
			"direct xmldb.%s.%s from %s — store writes belong to integration lanes and feedback apply paths (see docs/INVARIANTS.md)",
			typeName, sel.Sel.Name, pass.Path)
	})
	return nil, nil
}
