package analysis

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// calls returns a toy analyzer flagging every call to a function whose
// name is "bad" — enough surface to drive the driver's filtering.
func calls() *Analyzer {
	return &Analyzer{
		Name: "toy",
		Doc:  "flags calls to bad()",
		Run: func(pass *Pass) (any, error) {
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "bad" {
						pass.Reportf(call.Pos(), "call to bad")
					}
					return true
				})
			}
			return nil, nil
		},
	}
}

// writeTree materializes a GOPATH-style src tree under a temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, "src", filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func runToy(t *testing.T, src string) []Diagnostic {
	t.Helper()
	root := writeTree(t, map[string]string{"p/p.go": src})
	pkgs, err := LoadTree(root, "p")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunPackages(pkgs, []*Analyzer{calls()})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func TestDirectiveSuppressesSameLine(t *testing.T) {
	diags := runToy(t, `package p
func bad() {}
func f() {
	bad() //lint:ignore toy justified here
}
`)
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", diags)
	}
}

func TestDirectiveSuppressesLineBelow(t *testing.T) {
	diags := runToy(t, `package p
func bad() {}
func f() {
	//lint:ignore toy justified on the line above
	bad()
}
`)
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", diags)
	}
}

func TestDirectiveWrongAnalyzerDoesNotSuppress(t *testing.T) {
	diags := runToy(t, `package p
func bad() {}
func f() {
	bad() //lint:ignore other different analyzer
}
`)
	if len(diags) != 1 || diags[0].Analyzer != "toy" {
		t.Fatalf("want the toy diagnostic to survive, got %v", diags)
	}
}

func TestDirectiveStarSuppressesAll(t *testing.T) {
	diags := runToy(t, `package p
func bad() {}
func f() {
	bad() //lint:ignore * everything hushed with a reason
}
`)
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", diags)
	}
}

func TestDirectiveWithoutReasonReportsAndDoesNotSuppress(t *testing.T) {
	diags := runToy(t, `package p
func bad() {}
func f() {
	bad() //lint:ignore toy
}
`)
	if len(diags) != 2 {
		t.Fatalf("want the finding plus the lint complaint, got %v", diags)
	}
	byAnalyzer := map[string]bool{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer] = true
	}
	if !byAnalyzer["toy"] || !byAnalyzer["lint"] {
		t.Fatalf("want one toy and one lint diagnostic, got %v", diags)
	}
}

func TestRangeDirectiveDoesNotLeak(t *testing.T) {
	// A directive two lines up must not suppress — and since it then
	// suppresses nothing, it is itself reported as unused.
	diags := runToy(t, `package p
func bad() {}
func f() {
	//lint:ignore toy too far away
	_ = 1
	bad()
}
`)
	if len(diags) != 2 {
		t.Fatalf("want the surviving finding plus the unused-directive report, got %v", diags)
	}
	byAnalyzer := map[string]bool{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer] = true
	}
	if !byAnalyzer["toy"] || !byAnalyzer["lint"] {
		t.Fatalf("want one toy and one lint diagnostic, got %v", diags)
	}
}

func TestUnusedDirectiveReported(t *testing.T) {
	// A justified directive with no matching diagnostic is stale and
	// must itself be reported.
	diags := runToy(t, `package p
func fine() {}
func f() {
	fine() //lint:ignore toy nothing here to hush anymore
}
`)
	if len(diags) != 1 || diags[0].Analyzer != "lint" {
		t.Fatalf("want exactly the unused-directive report, got %v", diags)
	}
}

func TestUnusedDirectiveForForeignAnalyzerNotReported(t *testing.T) {
	// A directive naming an analyzer outside this run may be
	// load-bearing for a different invocation — its usage is unknowable
	// here, so it must not be reported.
	diags := runToy(t, `package p
func fine() {}
func f() {
	fine() //lint:ignore other someone else's rule
}
`)
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", diags)
	}
}

func TestUnusedStarDirectiveReported(t *testing.T) {
	// "*" matches any analyzer, so any run can decide it is unused.
	diags := runToy(t, `package p
func fine() {}
func f() {
	fine() //lint:ignore * hushing nothing
}
`)
	if len(diags) != 1 || diags[0].Analyzer != "lint" {
		t.Fatalf("want exactly the unused-directive report, got %v", diags)
	}
}

func TestTestFileDiagnosticsDroppedInVetShape(t *testing.T) {
	// Simulate a load where _test.go files are part of the package (a
	// test variant): diagnostics inside them must be dropped by the
	// driver.
	root := writeTree(t, map[string]string{
		"q/q.go":      "package q\nfunc bad() {}\nfunc f() { bad() }\n",
		"q/q_test.go": "package q\nfunc g() { bad() }\n",
	})
	pkg, err := loadWithTests(root, "q")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunPackages([]*Package{pkg}, []*Analyzer{calls()})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want only the non-test finding, got %v", diags)
	}
}

// loadWithTests type-checks every file in the directory, _test.go
// included — the file list of a test variant.
func loadWithTests(root, path string) (*Package, error) {
	dir := filepath.Join(root, "src", path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	return typecheck(token.NewFileSet(), path, dir, files, nil)
}
