// Package atomicwrite pins the durability subsystem's publication
// protocol: a durable file becomes visible only as temp → fsync →
// rename. An os.Rename that publishes bytes which were never synced
// can surface a zero-length or torn file after a crash — exactly the
// corruption the checkpoint manager's recovery scan exists to refuse.
//
// Two rules:
//
//   - In every package, a function that calls os.Rename must have
//     issued a sync (an (*os.File).Sync call, or a call to a helper
//     whose name says it syncs, e.g. syncDir) earlier in its body.
//     Rename-without-fsync is the classic crash-consistency bug and
//     there is no in-tree reason to do it.
//   - In the durable packages (persist, durable, feedback, mq),
//     os.WriteFile is banned outright: it cannot fsync, so nothing
//     written with it is crash-safe.
package atomicwrite

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/inspect"
)

// durable lists the packages whose files must survive kill -9: the
// checkpoint manager, the append log, and the two logs built on it — the
// feedback ledger and the queue WAL.
var durable = map[string]bool{
	"repro/internal/persist":  true,
	"repro/internal/durable":  true,
	"repro/internal/feedback": true,
	"repro/internal/mq":       true,
}

var Analyzer = &analysis.Analyzer{
	Name: "atomicwrite",
	Doc: "durable files are published temp → fsync → rename\n\n" +
		"os.Rename must be preceded by a sync in the same function, and\n" +
		"the durability packages may not use os.WriteFile (it cannot\n" +
		"fsync).",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	inspect.Of(pass).Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		if fd := n.(*ast.FuncDecl); fd.Body != nil {
			checkFunc(pass, fd)
		}
	})
	return nil, nil
}

// checkFunc orders every sync-like and rename call in the function
// body (nested closures included — they share the body's source order)
// and reports renames with no earlier sync.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var syncs, renames []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		switch {
		case fn.FullName() == "os.Rename":
			renames = append(renames, call.Pos())
		case isSyncish(fn.Name()):
			syncs = append(syncs, call.Pos())
		case fn.FullName() == "os.WriteFile" && durable[pass.Path]:
			pass.Reportf(call.Pos(),
				"os.WriteFile in durable package %s — it cannot fsync; write temp → fsync → rename instead", pass.Path)
		}
		return true
	})
	if len(renames) == 0 {
		return
	}
	sort.Slice(syncs, func(i, j int) bool { return syncs[i] < syncs[j] })
	for _, r := range renames {
		i := sort.Search(len(syncs), func(i int) bool { return syncs[i] >= r })
		if i == 0 {
			pass.Reportf(r,
				"os.Rename with no preceding sync in %s — publish durable files temp → fsync → rename", fd.Name.Name)
		}
	}
}

// isSyncish reports whether a callee name denotes a sync: the
// (*os.File).Sync method itself, or a helper advertising one
// (syncDir, flushAndSync, ...).
func isSyncish(name string) bool {
	return name == "Sync" || strings.Contains(strings.ToLower(name), "sync")
}
