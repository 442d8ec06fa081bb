package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the slice of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// LoadPackages loads and type-checks the packages matching patterns in
// the module rooted at (or containing) dir. Type information for
// dependencies — standard library and intra-module alike — comes from
// compiler export data produced by `go list -export`, so the loader
// never re-type-checks the world from source. Test files are not
// loaded (matching `go list`'s GoFiles).
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %w\n%s", err, stderr.String())
	}

	exports := make(map[string]string)
	var roots []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			pkg := p
			roots = append(roots, &pkg)
		}
	}

	fset := token.NewFileSet()
	imp := exportDataImporter(fset, func(path string) (string, bool) {
		f, ok := exports[path]
		return f, ok
	})

	var pkgs []*Package
	for _, lp := range roots {
		if len(lp.CgoFiles) > 0 {
			return nil, fmt.Errorf("analysis: %s uses cgo, unsupported", lp.ImportPath)
		}
		pkg, err := typecheck(fset, lp.ImportPath, lp.Dir, lp.GoFiles, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadTree loads import paths from a GOPATH-style source tree (root/src
// holds one directory per import path); the analysistest harness feeds
// it testdata trees. Imports resolve first inside the tree (recursively
// type-checked from source) and then against the standard library via
// export data.
func LoadTree(root string, paths ...string) ([]*Package, error) {
	fset := token.NewFileSet()
	tl := &treeLoader{
		root: root,
		fset: fset,
		pkgs: make(map[string]*Package),
	}
	tl.std = exportDataImporter(fset, func(path string) (string, bool) {
		f, err := tl.stdExport(path)
		if err != nil {
			return "", false
		}
		return f, true
	})
	var out []*Package
	for _, p := range paths {
		pkg, err := tl.load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

type treeLoader struct {
	root string
	fset *token.FileSet
	pkgs map[string]*Package
	std  types.Importer

	stdMu      sync.Mutex
	stdExports map[string]string
}

func (tl *treeLoader) load(path string) (*Package, error) {
	if pkg, ok := tl.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(tl.root, "src", filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: loading %s: %w", path, err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, name)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	sort.Strings(files)
	pkg, err := typecheck(tl.fset, path, dir, files, importerFunc(func(ipath string) (*types.Package, error) {
		if _, err := os.Stat(filepath.Join(tl.root, "src", filepath.FromSlash(ipath))); err == nil {
			dep, err := tl.load(ipath)
			if err != nil {
				return nil, err
			}
			return dep.Types, nil
		}
		return tl.std.Import(ipath)
	}))
	if err != nil {
		return nil, err
	}
	tl.pkgs[path] = pkg
	return pkg, nil
}

// stdExport resolves one standard-library import path to its export
// data file, shelling out to `go list -export` once per new path set.
func (tl *treeLoader) stdExport(path string) (string, error) {
	tl.stdMu.Lock()
	defer tl.stdMu.Unlock()
	if f, ok := tl.stdExports[path]; ok {
		return f, nil
	}
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-json", path)
	cmd.Dir = tl.root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("analysis: go list -export %s: %w\n%s", path, err, stderr.String())
	}
	if tl.stdExports == nil {
		tl.stdExports = make(map[string]string)
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return "", err
		}
		if p.Export != "" {
			tl.stdExports[p.ImportPath] = p.Export
		}
	}
	f, ok := tl.stdExports[path]
	if !ok {
		return "", fmt.Errorf("analysis: no export data for %s", path)
	}
	return f, nil
}

// typecheck parses files (named relative to dir) and type-checks them
// as the package at importPath, resolving imports through imp.
func typecheck(fset *token.FileSet, importPath, dir string, files []string, imp types.Importer) (*Package, error) {
	var syntax []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", name, err)
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	return &Package{
		Path:  importPath,
		Fset:  fset,
		Files: syntax,
		Types: tpkg,
		Info:  info,
	}, nil
}

// exportDataImporter wraps the compiler (gc) importer with a lookup
// that maps import paths to export data files.
func exportDataImporter(fset *token.FileSet, find func(string) (string, bool)) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := find(path)
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	})
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
