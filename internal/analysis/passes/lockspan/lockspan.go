// Package lockspan is the intra-procedural locked-region layer the
// concurrency analyzers (versionbump, postcommit, lockdiscipline) are
// built on. For every function it tracks sync.Mutex / sync.RWMutex
// Lock/RLock acquisitions, the statements executed while the lock is
// held (in statement order, flattened through control flow), the
// matching unlocks — direct, deferred, or deferred inside a func
// literal — and the return paths that leave a non-deferred region open.
//
// The model is deliberately lexical, not a full CFG:
//
//   - Branch bodies are scanned with a snapshot of the held set, so an
//     unlock inside one arm does not end the region for the code after
//     the branch. Region.Stmts is the union over paths.
//   - A region opened inside a branch must close (or defer its unlock)
//     inside that branch; conditional locking is reported as
//     NeverReleased.
//   - Func literals are separate functions: a literal's body is never
//     part of the enclosing function's regions (goroutines and deferred
//     closures do not run at their lexical position), and each literal
//     gets its own region scan.
//   - `go` statements and non-unlock `defer` statements are excluded
//     from Stmts — they do not execute under the lock at that point.
//   - In a select with a default clause every comm case is
//     non-blocking, so the comm statements are excluded; without a
//     default the comm statements are recorded (the select blocks).
package lockspan

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/inspect"
)

// A LockRef identifies a mutex as the analyzers reason about it.
type LockRef struct {
	// Expr is the source form of the receiver, e.g. "db.mu". Unlocks
	// are matched to locks by this plus Read.
	Expr string
	// Key is the resolved identity "pkg/path.Type.field" (for struct
	// fields) or "pkg/path.var" (for package-level mutexes), empty when
	// the receiver does not resolve to either. The lock-order table in
	// lockdiscipline is keyed by this.
	Key string
	// Read marks an RLock region.
	Read bool
}

// A Region is one Lock()..Unlock() span within one function.
type Region struct {
	// Fn is the enclosing declared function, nil inside a func literal.
	Fn *types.Func
	// FnNode is the enclosing *ast.FuncDecl or *ast.FuncLit.
	FnNode ast.Node

	Lock    LockRef
	LockPos token.Pos

	// Within lists the locks already held when this one was acquired,
	// outermost first — the input to lock-order checking.
	Within []LockRef

	// Deferred means the unlock is a `defer` (directly or inside a
	// deferred func literal): the region extends to every return.
	Deferred bool

	// Stmts are the leaf statements executed while the lock is held, in
	// source order. Compound statements are flattened: conditions and
	// range/switch operands appear as synthesized ExprStmts at their
	// original positions. Scan them with InspectStmts, which skips
	// nested func literals.
	Stmts []ast.Stmt

	// UnlockPos is the position of the direct unlock (if any).
	UnlockPos token.Pos

	// UnreleasedReturns are returns reached while this non-deferred
	// region is still open.
	UnreleasedReturns []token.Pos

	// NeverReleased marks a non-deferred region with no unlock on the
	// fallthrough path and no recorded return (including the
	// conditional-locking shape the model rejects).
	NeverReleased bool
}

// Info is the analyzer result: every region in the package.
type Info struct {
	Regions []*Region
}

// InspectStmts walks each leaf statement of a region with ast.Inspect,
// skipping func-literal subtrees (their bodies do not run under the
// region's lock at that point).
func InspectStmts(stmts []ast.Stmt, f func(n ast.Node) bool) {
	for _, st := range stmts {
		ast.Inspect(st, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			return f(n)
		})
	}
}

// Analyzer computes lock regions for the package. It reports nothing;
// its value is the *Info result.
var Analyzer = &analysis.Analyzer{
	Name:     "lockspan",
	Doc:      "track mutex lock/unlock spans and the statements inside them",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// Of extracts the lockspan result from a dependent pass.
func Of(pass *analysis.Pass) *Info {
	info, _ := pass.ResultOf[Analyzer].(*Info)
	return info
}

func run(pass *analysis.Pass) (any, error) {
	info := &Info{}
	inspect.Of(pass).Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		var fn *types.Func
		switch n := n.(type) {
		case *ast.FuncDecl:
			body = n.Body
			fn, _ = pass.TypesInfo.Defs[n.Name].(*types.Func)
		case *ast.FuncLit:
			body = n.Body
		}
		if body == nil {
			return
		}
		s := &scanner{info: pass.TypesInfo, out: info, fn: fn, node: n}
		after := s.block(body.List, nil)
		s.finish(after, nil)
	})
	return info, nil
}

// scanner walks one function body.
type scanner struct {
	info *types.Info
	out  *Info
	fn   *types.Func
	node ast.Node
}

// block scans a statement list, threading the held-region stack
// through, and returns the stack at the end of the list.
func (s *scanner) block(stmts []ast.Stmt, held []*Region) []*Region {
	for _, st := range stmts {
		held = s.stmt(st, held)
	}
	return held
}

// branch scans a control-flow arm with a snapshot of the held stack:
// unlocks inside the arm do not close regions for the code after it,
// and regions opened inside the arm must resolve inside it.
func (s *scanner) branch(stmts []ast.Stmt, held []*Region) {
	snap := make([]*Region, len(held))
	copy(snap, held)
	after := s.block(stmts, snap)
	s.finish(after, held)
}

// finish marks regions opened during a scan (i.e. in after but not in
// before) that are still open with no deferred unlock and no recorded
// return as never released.
func (s *scanner) finish(after, before []*Region) {
	outer := make(map[*Region]bool, len(before))
	for _, r := range before {
		outer[r] = true
	}
	for _, r := range after {
		if !outer[r] && !r.Deferred && len(r.UnreleasedReturns) == 0 {
			r.NeverReleased = true
		}
	}
}

func (s *scanner) stmt(st ast.Stmt, held []*Region) []*Region {
	switch st := st.(type) {
	case *ast.BlockStmt:
		return s.block(st.List, held)
	case *ast.LabeledStmt:
		return s.stmt(st.Stmt, held)
	case *ast.IfStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		s.record(&ast.ExprStmt{X: st.Cond}, held)
		s.branch(st.Body.List, held)
		if st.Else != nil {
			s.branch([]ast.Stmt{st.Else}, held)
		}
		return held
	case *ast.ForStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		if st.Cond != nil {
			s.record(&ast.ExprStmt{X: st.Cond}, held)
		}
		body := st.Body.List
		if st.Post != nil {
			body = append(append([]ast.Stmt{}, body...), st.Post)
		}
		s.branch(body, held)
		return held
	case *ast.RangeStmt:
		s.record(&ast.ExprStmt{X: st.X}, held)
		s.branch(st.Body.List, held)
		return held
	case *ast.SwitchStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		if st.Tag != nil {
			s.record(&ast.ExprStmt{X: st.Tag}, held)
		}
		for _, c := range st.Body.List {
			s.branch(c.(*ast.CaseClause).Body, held)
		}
		return held
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		s.record(st.Assign, held)
		for _, c := range st.Body.List {
			s.branch(c.(*ast.CaseClause).Body, held)
		}
		return held
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range st.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil && !hasDefault {
				s.record(cc.Comm, held)
			}
			s.branch(cc.Body, held)
		}
		return held
	case *ast.GoStmt:
		return held // runs off-lock; the literal's body is scanned separately
	case *ast.DeferStmt:
		return s.deferStmt(st, held)
	case *ast.ReturnStmt:
		for _, r := range held {
			if !r.Deferred {
				r.UnreleasedReturns = append(r.UnreleasedReturns, st.Pos())
			}
		}
		s.record(st, held)
		return held
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if op, ref := s.lockOp(call); op != opNone {
				return s.apply(op, ref, call, held)
			}
		}
		s.record(st, held)
		return held
	default:
		s.record(st, held)
		return held
	}
}

// deferStmt handles `defer mu.Unlock()` (directly or anywhere inside a
// deferred func literal), marking the matching open region deferred.
// Other defers are dropped: they run at return time, not here.
func (s *scanner) deferStmt(st *ast.DeferStmt, held []*Region) []*Region {
	if op, ref := s.lockOp(st.Call); op == opUnlock {
		if r := match(held, ref); r != nil {
			r.Deferred = true
		}
		return held
	}
	if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if op, ref := s.lockOp(call); op == opUnlock {
					if r := match(held, ref); r != nil {
						r.Deferred = true
					}
				}
			}
			return true
		})
	}
	return held
}

// apply opens or closes a region for a classified lock/unlock call.
func (s *scanner) apply(op int, ref LockRef, call *ast.CallExpr, held []*Region) []*Region {
	if op == opLock {
		r := &Region{
			Fn:      s.fn,
			FnNode:  s.node,
			Lock:    ref,
			LockPos: call.Pos(),
		}
		for _, h := range held {
			r.Within = append(r.Within, h.Lock)
		}
		s.out.Regions = append(s.out.Regions, r)
		return append(held[:len(held):len(held)], r)
	}
	if r := match(held, ref); r != nil {
		r.UnlockPos = call.Pos()
		out := make([]*Region, 0, len(held)-1)
		for _, h := range held {
			if h != r {
				out = append(out, h)
			}
		}
		return out
	}
	return held
}

// match finds the innermost open region the unlock ref closes.
func match(held []*Region, ref LockRef) *Region {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].Lock.Expr == ref.Expr && held[i].Lock.Read == ref.Read {
			return held[i]
		}
	}
	return nil
}

// record appends a leaf statement to every open region.
func (s *scanner) record(st ast.Stmt, held []*Region) {
	for _, r := range held {
		r.Stmts = append(r.Stmts, st)
	}
}

const (
	opNone = iota
	opLock
	opUnlock
)

// lockOp classifies a call as a mutex lock/unlock and builds the ref.
func (s *scanner) lockOp(call *ast.CallExpr) (int, LockRef) {
	fn := analysis.CalleeFunc(s.info, call)
	if fn == nil {
		return opNone, LockRef{}
	}
	var op int
	var read bool
	switch fn.FullName() {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock":
		op = opLock
	case "(*sync.RWMutex).RLock":
		op, read = opLock, true
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock":
		op = opUnlock
	case "(*sync.RWMutex).RUnlock":
		op, read = opUnlock, true
	default:
		return opNone, LockRef{}
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, LockRef{}
	}
	recv := ast.Unparen(sel.X)
	return op, LockRef{Expr: types.ExprString(recv), Key: s.key(recv), Read: read}
}

// key resolves the receiver expression to a stable lock identity:
// "pkg/path.Type.field" for a struct-field mutex, "pkg/path.var" for a
// package-level one, "" otherwise (e.g. a local variable).
func (s *scanner) key(recv ast.Expr) string {
	switch e := recv.(type) {
	case *ast.SelectorExpr:
		if sel, ok := s.info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if pkgPath, name, ok := analysis.NamedType(sel.Recv()); ok {
				return pkgPath + "." + name + "." + sel.Obj().Name()
			}
			return ""
		}
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := s.info.Uses[id].(*types.PkgName); isPkg {
				if obj := s.info.Uses[e.Sel]; obj != nil && obj.Pkg() != nil {
					return obj.Pkg().Path() + "." + obj.Name()
				}
			}
		}
	case *ast.Ident:
		obj := s.info.Uses[e]
		if obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return ""
}
