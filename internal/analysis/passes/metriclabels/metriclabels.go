// Package metriclabels prevents cardinality bombs in the obs metrics:
// every label value passed to a metric family's With(...) must come
// from a bounded set — a string literal, a constant, a concatenation of
// bounded parts, a small-int formatter, or a normalizer function (by
// convention named *Label) that collapses request data onto a fixed
// vocabulary. Passing raw request data (r.URL.Path, r.Method, an error
// string) mints a new time series per distinct value, growing the
// registry without bound and flattening scrape performance.
//
// A local variable is accepted when it has exactly one assignment in
// the outermost enclosing function — closures that capture it
// included — and that right-hand side is itself bounded: the
// `route := s.routeLabel(path)` shape, also when the With call sits in
// a deferred closure that observes at function exit.
//
// Span names are labels too: the flight recorder groups and displays
// timelines by span name, so the name argument of obs.StartSpan /
// obs.ForceSpan / obs.Stage must be bounded the same way. Request data
// belongs in span attributes (SetAttr/SetInt), never in the name.
package metriclabels

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/inspect"
)

// obsPath is the metrics package whose With methods are guarded.
const obsPath = "repro/internal/obs"

// formatters are std formatting calls that keep int-derived labels
// bounded in practice (status classes, shard indices).
var formatters = map[string]bool{
	"strconv.Itoa":       true,
	"strconv.FormatInt":  true,
	"strconv.FormatUint": true,
}

// spanStarters are the obs package-level functions whose name argument
// (position 1, after ctx) names a span and must stay bounded.
var spanStarters = map[string]bool{
	obsPath + ".StartSpan": true,
	obsPath + ".ForceSpan": true,
	obsPath + ".Stage":     true,
}

var Analyzer = &analysis.Analyzer{
	Name: "metriclabels",
	Doc: "obs metric label values and span names come from bounded sets\n\n" +
		"A label minted from raw request data creates a time series per\n" +
		"distinct value; the registry and every scrape grow without bound.\n" +
		"Span names group the flight recorder's timelines the same way, so\n" +
		"StartSpan/ForceSpan/Stage names must be bounded too — variable data\n" +
		"rides in span attributes.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Path == obsPath {
		return nil, nil // the family implementation handles raw values by design
	}
	inspect.Of(pass).WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		call := n.(*ast.CallExpr)
		if isSpanStarter(pass.TypesInfo, call) {
			if len(call.Args) >= 2 && !bounded(pass.TypesInfo, call.Args[1], enclosingBody(stack)) {
				pass.Reportf(call.Args[1].Pos(),
					"span name is not from a bounded set — name spans with constants and put variable data in attributes")
			}
			return true
		}
		if !isObsWith(pass.TypesInfo, call) {
			return true
		}
		for _, arg := range call.Args {
			if !bounded(pass.TypesInfo, arg, enclosingBody(stack)) {
				pass.Reportf(arg.Pos(),
					"metric label value is not from a bounded set — use a literal, a constant, or a *Label normalizer")
			}
		}
		return true
	})
	return nil, nil
}

// isSpanStarter reports whether the call is obs.StartSpan,
// obs.ForceSpan or obs.Stage.
func isSpanStarter(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(info, call)
	return fn != nil && spanStarters[fn.FullName()]
}

// isObsWith reports whether the call is a With method on an obs family
// type.
func isObsWith(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "With" {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	pkgPath, _, ok := analysis.NamedType(selection.Recv())
	return ok && pkgPath == obsPath
}

// enclosingBody returns the outermost function body on the stack. The
// outermost body contains every nested closure, so counting a label
// variable's assignments there covers both the declaring scope and any
// capturing closures — a variable bounded in the handler stays bounded
// inside its deferred observation closure, and a reassignment inside
// the closure still counts against it.
func enclosingBody(stack []ast.Node) *ast.BlockStmt {
	for _, n := range stack {
		switch fn := n.(type) {
		case *ast.FuncLit:
			return fn.Body
		case *ast.FuncDecl:
			return fn.Body
		}
	}
	return nil
}

// bounded reports whether the expression's value is drawn from a
// bounded set.
func bounded(info *types.Info, expr ast.Expr, body *ast.BlockStmt) bool {
	expr = ast.Unparen(expr)
	if tv, ok := info.Types[expr]; ok && tv.Value != nil {
		return true // constant, covers literals and const idents/selectors
	}
	switch e := expr.(type) {
	case *ast.BinaryExpr:
		return e.Op == token.ADD && bounded(info, e.X, body) && bounded(info, e.Y, body)
	case *ast.CallExpr:
		fn := analysis.CalleeFunc(info, e)
		if fn == nil {
			return false
		}
		return formatters[fn.FullName()] || strings.HasSuffix(fn.Name(), "Label")
	case *ast.Ident:
		v, ok := info.Uses[e].(*types.Var)
		if !ok || body == nil {
			return false
		}
		return singleBoundedAssignment(info, v, body)
	}
	return false
}

// singleBoundedAssignment accepts a local with exactly one assignment
// whose right-hand side is bounded. More than one assignment (or a
// range/parameter binding) means the value's provenance is not a single
// bounded expression, so it is rejected.
func singleBoundedAssignment(info *types.Info, v *types.Var, body *ast.BlockStmt) bool {
	var rhs ast.Expr
	count := 0
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != v {
					continue
				}
				count++
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
			}
		case *ast.RangeStmt:
			for _, lhs := range []ast.Expr{n.Key, n.Value} {
				if id, ok := lhs.(*ast.Ident); ok {
					obj := info.Defs[id]
					if obj == nil {
						obj = info.Uses[id]
					}
					if obj == v {
						count += 2 // range bindings are never a single bounded source
					}
				}
			}
		}
		return true
	})
	return count == 1 && rhs != nil && bounded(info, rhs, body)
}
