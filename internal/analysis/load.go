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
	"strconv"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *listPkgError
}

type listPkgError struct {
	Err string
}

// goList runs `go list -export -deps -json` over the given patterns and
// decodes its output. -export makes the go tool emit compiled export
// data for every listed package, which is what lets the suite type-check
// source packages with the stdlib gc importer and no third-party loader.
func goList(dir string, patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %w\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var out []*listPkg
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %w", patterns, err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %v: %s: %s", patterns, p.ImportPath, p.Error.Err)
		}
		out = append(out, &p)
	}
	return out, nil
}

// exportLookup adapts the Export paths reported by `go list` to the
// lookup function the gc importer expects.
func exportLookup(exports map[string]string) func(path string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// Load discovers the packages matching the patterns (relative to dir;
// empty dir means the current directory), parses their non-test sources
// and type-checks them against the export data of their dependencies.
// Test files are deliberately out of scope: the invariants the suite
// encodes protect production code paths.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var targets []*listPkg
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))
	var pkgs []*Package
	for _, t := range targets {
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", t.ImportPath, err)
			}
			files = append(files, f)
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			Path:  t.ImportPath,
			Name:  t.Name,
			Fset:  fset,
			Files: files,
			Pkg:   tpkg,
			Info:  info,
		})
	}
	return pkgs, nil
}

// LoadDir parses and type-checks a single directory of Go files as one
// package, resolving any imports through `go list -export`. This is how
// the golden-file tests load fixtures from testdata, which the go tool
// itself refuses to traverse.
func LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	importSet := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			if path, err := strconv.Unquote(spec.Path.Value); err == nil && path != "unsafe" {
				importSet[path] = true
			}
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	exports := map[string]string{}
	if len(importSet) > 0 {
		var imports []string
		for path := range importSet {
			imports = append(imports, path)
		}
		sort.Strings(imports)
		listed, err := goList(dir, imports)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	info := newInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", exportLookup(exports))}
	path := "fixture/" + filepath.Base(dir)
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", dir, err)
	}
	return &Package{
		Path:  path,
		Name:  tpkg.Name(),
		Fset:  fset,
		Files: files,
		Pkg:   tpkg,
		Info:  info,
	}, nil
}
