// Package lockdiscipline pins the concurrency hygiene of the store's
// hot locks (xmldb, shard, feedback, readpath):
//
//   - No blocking operation while a lock is held: network and HTTP
//     calls, fsync, subprocess waits, WaitGroup/Cond waits, time.Sleep,
//     and bare channel sends/receives (a select with a default clause
//     is non-blocking and allowed — the broker's delivery shape).
//     Blocking-ness propagates through calls via per-function facts, so
//     hiding the sleep in a helper — or another package — still flags.
//   - Consistent acquisition order when one function nests locks:
//     feedback.applyMu → feedback.mu → readpath.Broker.mu →
//     readpath.Cache.mu → xmldb.DB.mu. Acquiring against the order (or
//     re-acquiring a held lock, or double-locking two instances of the
//     same lock class — the cross-shard-lock smell) is flagged.
//   - Unlock pairing: every return path releases what it locked, and no
//     region runs off the end of its function still holding the lock.
//   - No flight-recorder traffic under the read-path hot locks
//     (xmldb.DB.mu, readpath.Broker.mu, readpath.Cache.mu): starting or
//     ending a span takes the recorder's own lock and allocates, so a
//     span call inside one of these critical sections couples recorder
//     contention to every reader and writer queued on the store. Spans
//     bracket the locked call from outside instead.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/inspect"
	"repro/internal/analysis/passes/lockspan"
)

// modulePath scopes fact computation to the project's own packages:
// summarizing anything else is both slow and meaningless — direct
// stdlib blocking calls are named in blockingFuncs instead.
const modulePath = "repro"

// checked are the packages whose locks the analyzer reports on; facts
// are computed everywhere so blocking-ness crosses package boundaries.
var checked = map[string]bool{
	"repro/internal/xmldb":    true,
	"repro/internal/shard":    true,
	"repro/internal/feedback": true,
	"repro/internal/readpath": true,
}

// blockingFuncs are the directly blocking calls, by FullName.
var blockingFuncs = map[string]bool{
	"time.Sleep":                    true,
	"(*sync.WaitGroup).Wait":        true,
	"(*sync.Cond).Wait":             true,
	"(*os.File).Sync":               true,
	"net.Dial":                      true,
	"net.DialTimeout":               true,
	"(*net.Dialer).Dial":            true,
	"(*net.Dialer).DialContext":     true,
	"(*net/http.Client).Do":         true,
	"(*net/http.Client).Get":        true,
	"(*net/http.Client).Post":       true,
	"(*net/http.Client).PostForm":   true,
	"net/http.Get":                  true,
	"net/http.Post":                 true,
	"net/http.PostForm":             true,
	"net/http.Head":                 true,
	"(*os/exec.Cmd).Run":            true,
	"(*os/exec.Cmd).Output":         true,
	"(*os/exec.Cmd).CombinedOutput": true,
	"(*os/exec.Cmd).Wait":           true,
}

// tracerFuncs are the obs tracing entry points that touch the span
// flight recorder, by FullName.
var tracerFuncs = map[string]bool{
	"repro/internal/obs.StartSpan":           true,
	"repro/internal/obs.ForceSpan":           true,
	"repro/internal/obs.Stage":               true,
	"(*repro/internal/obs.Span).End":         true,
	"(*repro/internal/obs.StageSpan).End":    true,
	"(*repro/internal/obs.Recorder).Get":     true,
	"(*repro/internal/obs.Recorder).Recent":  true,
	"(*repro/internal/obs.Recorder).Slowest": true,
	"(*repro/internal/obs.Recorder).Active":  true,
}

// hotLocks are the lock classes on the store's serving paths where
// recorder traffic is forbidden outright.
var hotLocks = map[string]bool{
	"repro/internal/xmldb.DB.mu":        true,
	"repro/internal/readpath.Broker.mu": true,
	"repro/internal/readpath.Cache.mu":  true,
}

// lockRank is the project-wide acquisition order, outermost first.
// Nested acquisitions must move to strictly higher ranks.
var lockRank = map[string]int{
	"repro/internal/feedback.Engine.applyMu": 10,
	"repro/internal/feedback.Engine.mu":      20,
	"repro/internal/readpath.Broker.mu":      30,
	"repro/internal/readpath.Cache.mu":       40,
	"repro/internal/xmldb.DB.mu":             50,
}

const rankDoc = "applyMu -> feedback.mu -> broker.mu -> cache.mu -> db.mu"

// BlocksFact marks a function that (transitively) performs a blocking
// operation; What names the root cause.
type BlocksFact struct {
	Blocks bool
	What   string
}

func (*BlocksFact) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc: "no blocking ops under shard/db locks; ordered acquisition; unlock on every path\n\n" +
		"A blocked lock holder stalls every reader and writer behind it;\n" +
		"inconsistent nesting deadlocks; an unpaired return wedges the\n" +
		"store permanently.",
	Requires: []*analysis.Analyzer{inspect.Analyzer, lockspan.Analyzer},
	Run:      run,
}

type checker struct {
	pass  *analysis.Pass
	local map[*types.Func]BlocksFact
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Path != modulePath && !strings.HasPrefix(pass.Path, modulePath+"/") {
		return nil, nil
	}
	ck := &checker{pass: pass, local: make(map[*types.Func]BlocksFact)}

	var decls []*ast.FuncDecl
	inspect.Of(pass).Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		if d := n.(*ast.FuncDecl); d.Body != nil {
			decls = append(decls, d)
		}
	})
	// Fixpoint: blocking-ness flows through in-package calls.
	for round := 0; round <= len(decls)+1; round++ {
		changed := false
		for _, d := range decls {
			fn, _ := pass.TypesInfo.Defs[d.Name].(*types.Func)
			if fn == nil {
				continue
			}
			what := ck.findBlocking(d.Body)
			// Store only the root cause: chains stay two hops at the
			// report site and the fixpoint converges even through
			// mutual recursion.
			next := BlocksFact{Blocks: what != "", What: rootCause(what)}
			if prev := ck.local[fn]; prev != next {
				ck.local[fn] = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for fn, f := range ck.local {
		if f.Blocks {
			fact := f
			pass.ExportFact(fn, &fact)
		}
	}

	if !checked[pass.Path] {
		return nil, nil
	}
	for _, r := range lockspan.Of(pass).Regions {
		ck.checkRegion(r)
	}
	return nil, nil
}

func (ck *checker) checkRegion(r *lockspan.Region) {
	// Acquisition order against every lock already held (read and
	// write acquisitions alike).
	for _, held := range r.Within {
		if held.Expr == r.Lock.Expr {
			ck.pass.Reportf(r.LockPos, "re-acquires %s, which is already held — immediate deadlock", r.Lock.Expr)
			continue
		}
		hr, hok := lockRank[held.Key]
		nr, nok := lockRank[r.Lock.Key]
		if hok && nok && nr <= hr {
			ck.pass.Reportf(r.LockPos,
				"acquires %s while holding %s — violates the lock order %s", r.Lock.Expr, held.Expr, rankDoc)
		}
	}

	// Unlock pairing.
	for _, pos := range r.UnreleasedReturns {
		ck.pass.Reportf(pos, "return while %s is still locked — unlock on every path or defer the unlock", r.Lock.Expr)
	}
	if r.NeverReleased {
		ck.pass.Reportf(r.LockPos, "%s is locked here and never released in this function", r.Lock.Expr)
	}

	// Blocking operations inside the region.
	for _, st := range r.Stmts {
		if what := ck.findBlocking(st); what != "" {
			ck.pass.Reportf(st.Pos(), "blocking operation (%s) while holding %s", what, r.Lock.Expr)
		}
	}

	// Flight-recorder traffic inside a hot region.
	if hotLocks[r.Lock.Key] {
		for _, st := range r.Stmts {
			ck.findTracer(st, r.Lock.Expr)
		}
	}
}

// findTracer reports every tracer call lexically inside n. Like
// findBlocking, func literals, go statements and defers do not run
// inside the region and are skipped.
func (ck *checker) findTracer(n ast.Node, lockExpr string) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			fn := analysis.CalleeFunc(ck.pass.TypesInfo, n)
			if fn != nil && tracerFuncs[fn.FullName()] {
				ck.pass.Reportf(n.Pos(),
					"span recorder call (%s) while holding hot lock %s — start and end spans outside the critical section", fn.Name(), lockExpr)
			}
		}
		return true
	})
}

// findBlocking returns a description of the first blocking operation
// lexically inside n, or "". Func literals, go statements and defers do
// not run here and are skipped; a select with a default clause is
// non-blocking, so only its case bodies are scanned.
func (ck *checker) findBlocking(n ast.Node) string {
	var what string
	ast.Inspect(n, func(n ast.Node) bool {
		if what != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if c.(*ast.CommClause).Comm == nil {
					hasDefault = true
				}
			}
			for _, c := range n.Body.List {
				cc := c.(*ast.CommClause)
				if cc.Comm != nil && !hasDefault && what == "" {
					what = ck.findBlocking(cc.Comm)
				}
				for _, st := range cc.Body {
					if what == "" {
						what = ck.findBlocking(st)
					}
				}
			}
			return false
		case *ast.SendStmt:
			what = "channel send"
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				what = "channel receive"
				return false
			}
		case *ast.CallExpr:
			fn := analysis.CalleeFunc(ck.pass.TypesInfo, n)
			if fn == nil {
				return true
			}
			if blockingFuncs[fn.FullName()] {
				what = fn.FullName()
				return false
			}
			if f, ok := ck.local[fn]; ok && f.Blocks {
				what = fn.Name() + " -> " + f.What
				return false
			}
			var imported BlocksFact
			if ck.pass.ImportFact(fn, &imported) && imported.Blocks {
				what = fn.Name() + " -> " + imported.What
				return false
			}
		}
		return true
	})
	return what
}

// rootCause strips a rendered chain down to its final element.
func rootCause(what string) string {
	if i := strings.LastIndex(what, " -> "); i >= 0 {
		return what[i+len(" -> "):]
	}
	return what
}
