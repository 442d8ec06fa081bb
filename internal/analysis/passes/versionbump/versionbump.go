// Package versionbump pins the store's cache-invalidation spine: every
// locked mutation of xmldb state — the collections map, a collection's
// records/order, the spatial index — must be followed by a
// db.version.Add bump before the write lock is released. The version
// counter is what the read path's answer cache and standing queries
// key their invalidation on (docs/INVARIANTS.md); a mutation path that
// reaches unlock without bumping serves stale answers forever. The PR 8
// decay path shipped with exactly this bug.
//
// The analyzer works on the lockspan statement-order layer plus
// per-function facts, so the common project shape — an exported
// locking wrapper delegating to an unexported *Locked helper — is
// analyzed across the call:
//
//   - Each function gets a summary fact: does it mutate tracked state,
//     does it bump, and can it end with a mutation still unbumped
//     ("pending"). Facts flow across packages, so shard code calling
//     into xmldb is checked against xmldb's real summaries.
//   - Inside a function that bumps directly, any return reached while a
//     mutation is pending is flagged (the insertLocked/updateLocked
//     error-path shape).
//   - Inside a write-lock region, a return or region end reached while
//     a mutation is pending — directly or via a callee whose fact says
//     it ends pending — is flagged (the DB.Update-over-updateLocked
//     shape; reverting the decay fix reproduces this finding).
//   - Any tracked mutation under a read lock is flagged outright.
//
// The statement model is lexical (union over branches, in source
// order), matching lockspan; see that package for the approximations.
package versionbump

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/inspect"
	"repro/internal/analysis/passes/lockspan"
)

// checked are the packages whose state carries the version invariant.
// Golden testdata mirrors these import paths.
var checked = map[string]bool{
	"repro/internal/xmldb": true,
	"repro/internal/shard": true,
}

// trackedFields are the struct fields whose mutation must be covered by
// a version bump before unlock.
var trackedFields = map[string]bool{
	"collections": true,
	"records":     true,
	"order":       true,
	"spatial":     true,
}

// spatialMutators are the mutating methods of the spatial index field;
// its query methods are reads and legal under RLock.
var spatialMutators = map[string]bool{
	"Insert": true,
	"Delete": true,
}

// MutFact is the exported per-function summary.
type MutFact struct {
	// Mutates: the function (transitively) mutates tracked state.
	Mutates bool
	// Bumps: the function (transitively) bumps the version counter.
	Bumps bool
	// EndsPending: some path through the function ends with a mutation
	// not yet covered by a bump — the caller owns the bump.
	EndsPending bool
}

func (*MutFact) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name: "versionbump",
	Doc: "every locked xmldb/shard mutation path bumps the shard version before unlock\n\n" +
		"The version counter is the read path's only invalidation signal;\n" +
		"a mutation that escapes the write lock without bumping it makes\n" +
		"cached answers permanently stale.",
	Requires: []*analysis.Analyzer{inspect.Analyzer, lockspan.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	if !checked[pass.Path] {
		return nil, nil
	}
	ck := &checker{
		pass:  pass,
		local: make(map[*types.Func]*funcInfo),
	}
	var decls []*ast.FuncDecl
	inspect.Of(pass).Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		if d := n.(*ast.FuncDecl); d.Body != nil {
			decls = append(decls, d)
		}
	})

	// Fixpoint over the in-package call graph: summaries feed call
	// effects, which feed summaries. The graph is acyclic in practice;
	// the cap only guards against pathological recursion.
	for round := 0; round <= len(decls)+1; round++ {
		changed := false
		for _, d := range decls {
			fn, _ := pass.TypesInfo.Defs[d.Name].(*types.Func)
			if fn == nil {
				continue
			}
			next := ck.summarize(d)
			if prev, ok := ck.local[fn]; !ok || *prev != *next {
				ck.local[fn] = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for fn, info := range ck.local {
		if info.fact.Mutates || info.fact.Bumps {
			f := info.fact
			pass.ExportFact(fn, &f)
		}
	}

	// Reporting passes, with the final facts in hand.
	ck.report = true
	for _, d := range decls {
		ck.checkFunc(d)
	}
	for _, r := range lockspan.Of(pass).Regions {
		ck.checkRegion(r)
	}
	return nil, nil
}

// funcInfo is the per-function summary plus the intra-function detail
// the reporting passes need.
type funcInfo struct {
	fact       MutFact
	directBump bool
}

type checker struct {
	pass   *analysis.Pass
	local  map[*types.Func]*funcInfo
	report bool

	// cur accumulates during one summarize/check walk.
	cur *funcInfo
}

// summarize computes one function's summary without reporting.
func (ck *checker) summarize(d *ast.FuncDecl) *funcInfo {
	report := ck.report
	ck.report = false
	ck.cur = &funcInfo{}
	ck.cur.fact.EndsPending = ck.scan(d.Body.List, false)
	ck.report = report
	return ck.cur
}

// checkFunc flags returns-while-pending inside functions that own a
// direct bump (the *Locked helper shape).
func (ck *checker) checkFunc(d *ast.FuncDecl) {
	fn, _ := ck.pass.TypesInfo.Defs[d.Name].(*types.Func)
	info := ck.local[fn]
	if info == nil || !info.directBump {
		return
	}
	ck.cur = &funcInfo{directBump: true}
	ck.scan(d.Body.List, false)
}

// checkRegion flags pending mutations that escape a write-lock region,
// and any tracked mutation under a read lock.
func (ck *checker) checkRegion(r *lockspan.Region) {
	if r.Lock.Read {
		ck.cur = &funcInfo{}
		for _, st := range r.Stmts {
			ck.eachEvent(st, func(ev event, n ast.Node) {
				if ev == evMutate {
					ck.pass.Reportf(n.Pos(), "mutation of tracked store state under read lock %s", r.Lock.Expr)
				}
			})
		}
		return
	}
	ck.cur = &funcInfo{}
	pending := false
	flagged := false
	for _, st := range r.Stmts {
		pending = ck.leafEvents(st, pending)
		if ret, ok := st.(*ast.ReturnStmt); ok && pending {
			ck.pass.Reportf(ret.Pos(), "return leaves locked region %s with a mutation not covered by a version bump", r.Lock.Expr)
			flagged = true
			pending = false // one finding per escape path
		}
	}
	if pending && !flagged {
		ck.pass.Reportf(r.LockPos, "locked region %s mutates store state with no version bump before unlock", r.Lock.Expr)
	}
}

// scan walks a statement list in source order, threading the pending
// flag (an unbumped mutation) through; branches are scanned with a copy
// and may-merge back.
func (ck *checker) scan(stmts []ast.Stmt, pending bool) bool {
	for _, st := range stmts {
		pending = ck.stmt(st, pending)
	}
	return pending
}

func (ck *checker) branch(stmts []ast.Stmt, pending bool) bool {
	bp := ck.scan(stmts, pending) // always scan: events and reports inside matter
	return pending || bp
}

func (ck *checker) stmt(st ast.Stmt, pending bool) bool {
	switch st := st.(type) {
	case *ast.BlockStmt:
		return ck.scan(st.List, pending)
	case *ast.LabeledStmt:
		return ck.stmt(st.Stmt, pending)
	case *ast.IfStmt:
		if st.Init != nil {
			pending = ck.stmt(st.Init, pending)
		}
		pending = ck.leafEvents(&ast.ExprStmt{X: st.Cond}, pending)
		pending = ck.branch(st.Body.List, pending)
		if st.Else != nil {
			pending = ck.branch([]ast.Stmt{st.Else}, pending)
		}
		return pending
	case *ast.ForStmt:
		if st.Init != nil {
			pending = ck.stmt(st.Init, pending)
		}
		if st.Cond != nil {
			pending = ck.leafEvents(&ast.ExprStmt{X: st.Cond}, pending)
		}
		body := st.Body.List
		if st.Post != nil {
			body = append(append([]ast.Stmt{}, body...), st.Post)
		}
		return ck.branch(body, pending)
	case *ast.RangeStmt:
		pending = ck.leafEvents(&ast.ExprStmt{X: st.X}, pending)
		return ck.branch(st.Body.List, pending)
	case *ast.SwitchStmt:
		if st.Init != nil {
			pending = ck.stmt(st.Init, pending)
		}
		if st.Tag != nil {
			pending = ck.leafEvents(&ast.ExprStmt{X: st.Tag}, pending)
		}
		for _, c := range st.Body.List {
			pending = ck.branch(c.(*ast.CaseClause).Body, pending)
		}
		return pending
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			pending = ck.stmt(st.Init, pending)
		}
		pending = ck.leafEvents(st.Assign, pending)
		for _, c := range st.Body.List {
			pending = ck.branch(c.(*ast.CaseClause).Body, pending)
		}
		return pending
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				pending = ck.leafEvents(cc.Comm, pending)
			}
			pending = ck.branch(cc.Body, pending)
		}
		return pending
	case *ast.GoStmt, *ast.DeferStmt:
		return pending // runs off the current path
	case *ast.ReturnStmt:
		pending = ck.leafEvents(st, pending)
		if ck.report && pending && ck.cur.directBump {
			ck.pass.Reportf(st.Pos(), "return after a tracked mutation with no version bump on this path")
			pending = false // one finding per escape path
		}
		return pending
	default:
		return ck.leafEvents(st, pending)
	}
}

type event int

const (
	evMutate event = iota
	evBump
)

// leafEvents applies one leaf statement's mutation/bump/call events to
// the pending flag, in source order.
func (ck *checker) leafEvents(st ast.Stmt, pending bool) bool {
	ck.eachEvent(st, func(ev event, n ast.Node) {
		switch ev {
		case evMutate:
			pending = true
			ck.cur.fact.Mutates = true
		case evBump:
			pending = false
			ck.cur.fact.Bumps = true
		}
	})
	return pending
}

// eachEvent walks one leaf statement (func literals excluded — they do
// not run here) and emits its events.
func (ck *checker) eachEvent(st ast.Stmt, emit func(event, ast.Node)) {
	ast.Inspect(st, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ck.trackedField(lhs) != "" {
					emit(evMutate, lhs)
				}
			}
		case *ast.IncDecStmt:
			if ck.trackedField(n.X) != "" {
				emit(evMutate, n.X)
			}
		case *ast.CallExpr:
			ck.callEvents(n, emit)
		}
		return true
	})
}

// callEvents classifies one call: version bump, builtin delete of a
// tracked map, spatial-index mutator, or a call whose callee has a
// summary fact.
func (ck *checker) callEvents(call *ast.CallExpr, emit func(event, ast.Node)) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sel.Sel.Name == "Add" && ck.fieldNamed(sel.X, "version") {
			emit(evBump, call)
			ck.cur.directBump = true
			return
		}
		if spatialMutators[sel.Sel.Name] && ck.fieldNamed(sel.X, "spatial") {
			emit(evMutate, call)
			return
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" {
		if _, isBuiltin := ck.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
			if ck.trackedField(call.Args[0]) != "" {
				emit(evMutate, call)
			}
			return
		}
	}
	fn := analysis.CalleeFunc(ck.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	var f MutFact
	if info, ok := ck.local[fn]; ok {
		f = info.fact
	} else if !ck.pass.ImportFact(fn, &f) {
		return
	}
	if f.Mutates {
		ck.cur.fact.Mutates = true
	}
	if f.Bumps {
		ck.cur.fact.Bumps = true
	}
	if f.EndsPending {
		emit(evMutate, call)
	} else if f.Bumps {
		emit(evBump, call)
	}
}

// trackedField resolves expr (through index/star/parens) to a tracked
// struct field selection of a checked-package type, returning the field
// name or "".
func (ck *checker) trackedField(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			sel, ok := ck.pass.TypesInfo.Selections[e]
			if !ok || sel.Kind() != types.FieldVal || !trackedFields[sel.Obj().Name()] {
				return ""
			}
			if pkgPath, _, ok := analysis.NamedType(sel.Recv()); ok && checked[pkgPath] {
				return sel.Obj().Name()
			}
			return ""
		default:
			return ""
		}
	}
}

// fieldNamed reports whether expr selects the named struct field of a
// checked-package type.
func (ck *checker) fieldNamed(expr ast.Expr, name string) bool {
	e, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	sel, ok := ck.pass.TypesInfo.Selections[e]
	if !ok || sel.Kind() != types.FieldVal || sel.Obj().Name() != name {
		return false
	}
	pkgPath, _, ok := analysis.NamedType(sel.Recv())
	return ok && checked[pkgPath]
}
