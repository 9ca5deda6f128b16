package lint

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
	"time"
)

// listedPackage is the subset of `go list -deps -export -json` output the
// loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string // compiler export data, for packages outside the module
	DepOnly    bool   // a dependency only, not matched by the patterns
	Module     *struct{ Main bool }
}

// LoadTiming splits Load's wall time into its two phases: `go list` (which
// also compiles export data for anything stale) and parsing plus
// type-checking the module's packages.
type LoadTiming struct {
	List, Check time.Duration
}

// Load resolves package patterns (e.g. "./...") relative to dir with the go
// tool, then parses and type-checks each package's non-test Go files. Test
// files are deliberately excluded: tests drive scenarios with the wall clock
// and raw goroutines by design, and the invariants leasevet enforces are
// about the production lease stack.
func Load(dir string, patterns []string) ([]*Package, error) {
	pkgs, _, err := LoadTimed(dir, patterns)
	return pkgs, err
}

// LoadTimed is Load that also reports where the time went.
//
// Every main-module package among the patterns and their dependencies is
// checked from source, in the dependency order `go list -deps` emits, so a
// type reached from two module packages is one *types.Named and
// types.Implements holds across package boundaries. Everything outside the
// module is imported from the export data `go list -export` names. Only the
// packages the patterns match are returned.
func LoadTimed(dir string, patterns []string) ([]*Package, LoadTiming, error) {
	var timing LoadTiming
	start := time.Now()
	args := append([]string{"list", "-deps", "-export", "-json", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, timing, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var listed []listedPackage
	exports := make(map[string]string)
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, timing, fmt.Errorf("lint: decode go list output: %v", err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		listed = append(listed, lp)
	}
	timing.List = time.Since(start)

	start = time.Now()
	fset := token.NewFileSet()
	c := newChecker(fset, func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	var pkgs []*Package
	for _, lp := range listed {
		if lp.Module == nil || !lp.Module.Main {
			continue
		}
		pkg, err := parseFiles(fset, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, timing, err
		}
		if err := c.check(pkg); err != nil {
			return nil, timing, err
		}
		if !lp.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	timing.Check = time.Since(start)
	return pkgs, timing, nil
}

// parseFiles parses the named files of one package, with comments (needed
// for //lint:allow).
func parseFiles(fset *token.FileSet, importPath, dir string, files []string) (*Package, error) {
	pkg := &Package{Path: importPath, Fset: fset}
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %v", name, err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	return pkg, nil
}

// checker type-checks packages from source and is the importer they see:
// packages it has already checked come back as they are, everything else is
// read from compiler export data. Without the first half, a module type
// imported through export data would not be types.Identical to the same type
// checked from source.
type checker struct {
	fset   *token.FileSet
	source map[string]*types.Package
	export types.Importer
}

// newChecker builds a checker whose export-data importer opens files through
// lookup; a nil lookup lets the importer find standard-library export data
// itself.
func newChecker(fset *token.FileSet, lookup importer.Lookup) *checker {
	return &checker{
		fset:   fset,
		source: make(map[string]*types.Package),
		export: importer.ForCompiler(fset, "gc", lookup),
	}
}

func (c *checker) Import(path string) (*types.Package, error) {
	if p, ok := c.source[path]; ok {
		return p, nil
	}
	return c.export.Import(path)
}

// check type-checks pkg, filling pkg.Types and pkg.Info, and makes it
// importable by the packages checked after it. It returns the first type
// error.
func (c *checker) check(pkg *Package) error {
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var first error
	conf := types.Config{
		Importer: c,
		Error: func(err error) {
			if first == nil {
				first = err
			}
		},
	}
	pkg.Types, _ = conf.Check(pkg.Path, c.fset, pkg.Files, pkg.Info)
	c.source[pkg.Path] = pkg.Types
	if first != nil {
		return fmt.Errorf("lint: type-check %s: %v", pkg.Path, first)
	}
	return nil
}
