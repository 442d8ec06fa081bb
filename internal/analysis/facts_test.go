package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// markFact is the toy fact the driver tests trade in.
type markFact struct {
	Marked bool
	Note   string
}

func (*markFact) AFact() {}

// otherFact is a second fact type, to show facts about one function
// do not collide across types.
type otherFact struct{ N int }

func (*otherFact) AFact() {}

func TestFactsKeyedByFunctionAndType(t *testing.T) {
	pkg := types.NewPackage("example.com/x", "x")
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	fa := types.NewFunc(token.NoPos, pkg, "A", sig)
	fb := types.NewFunc(token.NoPos, pkg, "B", sig)

	fs := make(factSet)
	fs.export(fa, &markFact{Marked: true, Note: "a"})
	fs.export(fa, &otherFact{N: 7})

	var m markFact
	var o otherFact
	if !fs.imp(fa, &m) || !m.Marked || m.Note != "a" {
		t.Fatalf("markFact on A: got %+v", m)
	}
	if !fs.imp(fa, &o) || o.N != 7 {
		t.Fatalf("otherFact on A: got %+v", o)
	}
	if fs.imp(fb, &m) {
		t.Fatal("B has no facts")
	}
	// The import is a copy: mutating it leaves the stored fact alone.
	m.Note = "changed"
	var again markFact
	if fs.imp(fa, &again); again.Note != "a" {
		t.Fatalf("stored fact was aliased: %+v", again)
	}
}

func TestRequiresCycleIsAnError(t *testing.T) {
	a := &Analyzer{Name: "a", Run: func(*Pass) (any, error) { return nil, nil }}
	b := &Analyzer{Name: "b", Run: func(*Pass) (any, error) { return nil, nil }}
	a.Requires = []*Analyzer{b}
	b.Requires = []*Analyzer{a}

	_, err := RunPackages(nil, []*Analyzer{a})
	if err == nil {
		t.Fatal("want a cycle error, got nil")
	}
	if !strings.Contains(err.Error(), "requires cycle") {
		t.Fatalf("want a clear cycle error, got: %v", err)
	}
}

// noopPkg loads a one-file package for driver-order tests.
func noopPkg(t *testing.T) []*Package {
	t.Helper()
	root := writeTree(t, map[string]string{"p/p.go": "package p\nfunc f() {}\n"})
	pkgs, err := LoadTree(root, "p")
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func TestRequiresRunOrderAndResults(t *testing.T) {
	var order []string
	mk := func(name string, reqs ...*Analyzer) *Analyzer {
		a := &Analyzer{Name: name, Requires: reqs}
		a.Run = func(pass *Pass) (any, error) {
			order = append(order, name)
			for _, r := range reqs {
				if pass.ResultOf[r] != "result:"+r.Name {
					return nil, nil
				}
			}
			return "result:" + name, nil
		}
		return a
	}
	c := mk("c")
	b := mk("b", c)
	a := mk("a", b)
	shared := mk("shared")
	d := mk("d", shared)
	e := mk("e", shared)

	pkgs := noopPkg(t)
	for i := 0; i < 3; i++ {
		order = nil
		if _, err := RunPackages(pkgs, []*Analyzer{a, d, e}); err != nil {
			t.Fatal(err)
		}
		want := "c b a shared d e"
		if got := strings.Join(order, " "); got != want {
			t.Fatalf("run %d: want deterministic order %q, got %q", i, want, got)
		}
	}
}

func TestRequiredAnalyzerDiagnosticsNotReported(t *testing.T) {
	noisy := &Analyzer{
		Name: "noisy",
		Run: func(pass *Pass) (any, error) {
			pass.Reportf(pass.Files[0].Pos(), "requirement noise")
			return nil, nil
		},
	}
	quiet := &Analyzer{
		Name:     "quiet",
		Requires: []*Analyzer{noisy},
		Run: func(pass *Pass) (any, error) {
			pass.Reportf(pass.Files[0].Pos(), "requested finding")
			return nil, nil
		},
	}
	diags, err := RunPackages(noopPkg(t), []*Analyzer{quiet})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Analyzer != "quiet" {
		t.Fatalf("want only the requested analyzer's diagnostic, got %v", diags)
	}
}

func TestFactsFlowAcrossPackagesInImportOrder(t *testing.T) {
	root := writeTree(t, map[string]string{
		"a/a.go": "package a\nfunc Mut() {}\nfunc Pure() {}\n",
		"b/b.go": "package b\nimport \"a\"\nfunc Use() { a.Mut(); a.Pure() }\n",
	})
	// Load b before a: the driver must reorder so a's facts exist when
	// b is analyzed.
	pkgs, err := LoadTree(root, "b", "a")
	if err != nil {
		t.Fatal(err)
	}

	facter := &Analyzer{
		Name: "facter",
		Run: func(pass *Pass) (any, error) {
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncDecl:
						if n.Name.Name == "Mut" {
							if fn, ok := pass.TypesInfo.Defs[n.Name].(*types.Func); ok {
								pass.ExportFact(fn, &markFact{Marked: true})
							}
						}
					case *ast.CallExpr:
						if fn := CalleeFunc(pass.TypesInfo, n); fn != nil {
							var m markFact
							if pass.ImportFact(fn, &m) && m.Marked {
								pass.Reportf(n.Pos(), "call to marked function %s", fn.Name())
							}
						}
					}
					return true
				})
			}
			return nil, nil
		},
	}

	diags, err := RunPackages(pkgs, []*Analyzer{facter})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly the a.Mut call flagged in b, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "Mut") {
		t.Fatalf("want the Mut call, got %v", diags[0])
	}
}
