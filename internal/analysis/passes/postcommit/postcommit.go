// Package postcommit pins the commit-then-publish ordering of the read
// path: readpath.Broker publishes and the database's commit observer
// (the onCommit hook xmldb.DB.Batch invokes) tell subscribers "this
// state is now visible", so they must fire only after
// the mutation is complete — never while a mutex is held (a slow or
// wedged subscriber pipeline must not extend a critical section), and
// never before the version bump that makes the commit observable (a
// subscriber that re-queries on the event must not read pre-commit
// state). It also restricts readpath.NewBroker construction to the
// system wiring, keeping the single-broadcaster topology: one broker
// per system is what makes "subscribers see every commit exactly once"
// checkable at all.
package postcommit

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/inspect"
	"repro/internal/analysis/passes/lockspan"
	"repro/internal/analysis/passes/versionbump"
)

const (
	brokerPublish = "(*repro/internal/readpath.Broker).Publish"
	newBroker     = "repro/internal/readpath.NewBroker"
)

// constructors are the packages allowed to call readpath.NewBroker:
// the system wiring in core, and readpath itself.
var constructors = map[string]bool{
	"repro/internal/core":     true,
	"repro/internal/readpath": true,
}

// hookNames are the commit-hook conventions: func-typed fields (or
// variables) whose invocation announces an applied commit. Calling a
// METHOD of these names (the registration setters) is not an
// invocation and is not matched.
var hookNames = map[string]bool{
	"onCommit": true,
	"OnCommit": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "postcommit",
	Doc: "broker publishes and commit hooks fire after the commit, outside locks\n\n" +
		"Publishing under a mutex couples subscriber latency to the\n" +
		"critical section; publishing before the version bump announces\n" +
		"state the announced readers cannot yet see.",
	Requires: []*analysis.Analyzer{
		inspect.Analyzer,
		lockspan.Analyzer,
		versionbump.Analyzer, // its facts identify mutating callees
	},
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	in := inspect.Of(pass)

	// Single-broadcaster: construction sites are restricted.
	if !constructors[pass.Path] {
		in.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
			call := n.(*ast.CallExpr)
			if analysis.IsFunc(pass.TypesInfo, call, newBroker) {
				pass.Reportf(call.Pos(),
					"readpath.NewBroker outside the system wiring — the store has one broker, constructed in core")
			}
		})
	}

	// No publish or hook invocation while a lock is held.
	for _, r := range lockspan.Of(pass).Regions {
		lockspan.InspectStmts(r.Stmts, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if analysis.IsFunc(pass.TypesInfo, call, brokerPublish) {
				pass.Reportf(call.Pos(),
					"broker publish inside locked region %s — publish after the commit unlocks", r.Lock.Expr)
			} else if name := hookCall(pass.TypesInfo, call); name != "" {
				pass.Reportf(call.Pos(),
					"commit hook %s invoked inside locked region %s — fire hooks after unlock", name, r.Lock.Expr)
			}
			return true
		})
	}

	// No publish before the commit completes: within one function, a
	// publish lexically followed by a version bump or a call into a
	// mutating function announces state that is not yet committed.
	in.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.FuncDecl:
			body = n.Body
		case *ast.FuncLit:
			body = n.Body
		}
		if body == nil {
			return
		}
		checkEarlyPublish(pass, n, body)
	})
	return nil, nil
}

// checkEarlyPublish scans one function (nested literals excluded — they
// run elsewhere) for publishes followed by commit activity.
func checkEarlyPublish(pass *analysis.Pass, fn ast.Node, body *ast.BlockStmt) {
	type site struct {
		pos  token.Pos
		what string
	}
	var publishes []site
	var commits []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != fn {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case analysis.IsFunc(pass.TypesInfo, call, brokerPublish):
			publishes = append(publishes, site{call.Pos(), "broker publish"})
		case hookCall(pass.TypesInfo, call) != "":
			publishes = append(publishes, site{call.Pos(), "commit hook " + hookCall(pass.TypesInfo, call)})
		case isVersionBump(pass.TypesInfo, call):
			commits = append(commits, call.Pos())
		default:
			if f := analysis.CalleeFunc(pass.TypesInfo, call); f != nil {
				var mf versionbump.MutFact
				if pass.ImportFact(f, &mf) && (mf.Mutates || mf.Bumps) {
					commits = append(commits, call.Pos())
				}
			}
		}
		return true
	})
	for _, p := range publishes {
		for _, c := range commits {
			if c > p.pos {
				pass.Reportf(p.pos,
					"%s precedes a later commit in the same function — publish only after the mutation and its version bump", p.what)
				break
			}
		}
	}
}

// hookCall reports the hook name when the call invokes a func-typed
// field or variable with a commit-hook name, "" otherwise. Method calls
// (the registration setters share these names) do not match.
func hookCall(info *types.Info, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if !hookNames[fun.Sel.Name] {
			return ""
		}
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.FieldVal {
			if _, isSig := sel.Obj().Type().Underlying().(*types.Signature); isSig {
				return fun.Sel.Name
			}
		}
	case *ast.Ident:
		if !hookNames[fun.Name] {
			return ""
		}
		if v, ok := info.Uses[fun].(*types.Var); ok {
			if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
				return fun.Name
			}
		}
	}
	return ""
}

// isVersionBump matches the project's bump convention: an Add call on a
// struct field named "version".
func isVersionBump(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Add" {
		return false
	}
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[field]
	return ok && s.Kind() == types.FieldVal && s.Obj().Name() == "version"
}
