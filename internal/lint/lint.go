// Package lint implements leasevet: a suite of project-specific static
// analyzers that mechanically enforce the lease stack's hand-written
// disciplines — clock injection, shard lock order, blocking under shard
// locks, wire encode/decode symmetry, metric registration hygiene,
// goroutine shutdown wiring, the zero-alloc wire path, and share-no-memory
// snapshots. The invariants themselves are argued in DESIGN.md; each
// analyzer turns one of those arguments into a build-time check (`make
// lint`).
//
// The suite is deliberately self-contained: it is built on the standard
// library's go/ast, go/parser and go/types (no golang.org/x/tools
// dependency), mirroring the shape of a go/analysis pass — an Analyzer with
// a Run func over a Pass — so it can run in hermetic build environments.
// Packages are type-checked from source; the analyzers also encode project
// idioms (field names like `mu`, helpers like `allShards`), which is exactly
// what makes them precise here and useless anywhere else.
//
// A finding can be suppressed by annotating the offending line (or the
// line above it) with
//
//	//lint:allow <analyzer>[,<analyzer>...] — reason
//
// The reason is not parsed but is mandatory by convention: an allow
// without an argument for why the invariant does not apply is a review
// smell.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding, with its position already resolved so callers
// can print it without the originating FileSet.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	PkgPath  string
	Files    []*ast.File
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named invariant check. Single-function analyzers set Run
// and see one package at a time; interprocedural analyzers set RunGraph and
// see the whole-module call graph (their findings are scope- and
// allow-filtered per originating package afterwards). Exactly one of the two
// must be set.
type Analyzer struct {
	Name     string
	Doc      string
	Run      func(*Pass)
	RunGraph func(*GraphPass)
}

// GraphPass carries the whole-module call graph through one interprocedural
// analyzer.
type GraphPass struct {
	Analyzer *Analyzer
	Graph    *Graph

	diags []Diagnostic
}

// ReportNodef records a finding at pos, resolved against the file set of the
// package owning n (graph nodes span packages with distinct FileSets).
func (p *GraphPass) ReportNodef(n *FuncNode, pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      n.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full leasevet suite: four single-function analyzers
// plus the four interprocedural ones.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ClockCheck,
		LockOrder,
		WireSym,
		MetricReg,
		HotAlloc,
		LockFlow,
		SpawnJoin,
		SnapshotCopy,
	}
}

// Package is one loaded package: its parsed files and their type
// information. Packages loaded together share one FileSet.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// RunAnalyzer applies one analyzer to one package and returns its findings
// with //lint:allow suppressions already filtered out. Interprocedural
// analyzers see a graph built from just this package — the form fixture
// tests use; cmd/leasevet runs them via RunSuite over the whole module.
func RunAnalyzer(a *Analyzer, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	if a.RunGraph != nil {
		gp := &GraphPass{Analyzer: a, Graph: BuildGraph([]*Package{pkg})}
		a.RunGraph(gp)
		diags = gp.diags
	} else {
		pass := &Pass{Analyzer: a, Fset: pkg.Fset, PkgPath: pkg.Path, Files: pkg.Files, Info: pkg.Info}
		a.Run(pass)
		diags = pass.diags
	}
	allowed := allowLines(pkg, a.Name)
	out := diags[:0]
	for _, d := range diags {
		if !allowed[fileLine{d.Pos.Filename, d.Pos.Line}] {
			out = append(out, d)
		}
	}
	return out
}

// Run applies every analyzer to every package. With scoped set, each
// analyzer only sees the packages named by Scoped — the policy used by
// cmd/leasevet; tests run analyzers unscoped over fixture packages.
func Run(pkgs []*Package, analyzers []*Analyzer, scoped bool) []Diagnostic {
	return RunSuite(pkgs, analyzers, SuiteOptions{Scoped: scoped}).Diagnostics
}

func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

type fileLine struct {
	file string
	line int
}

var allowRe = regexp.MustCompile(`^//lint:allow\s+([A-Za-z0-9_,-]+)`)

// allowLines collects the lines on which findings of the named analyzer are
// suppressed: the line of each matching //lint:allow comment and the line
// after it (covering both trailing and standalone comment placement).
func allowLines(pkg *Package, analyzer string) map[fileLine]bool {
	out := make(map[fileLine]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				names := strings.Split(m[1], ",")
				match := false
				for _, n := range names {
					if strings.TrimSpace(n) == analyzer {
						match = true
					}
				}
				if !match {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				out[fileLine{pos.Filename, pos.Line}] = true
				out[fileLine{pos.Filename, pos.Line + 1}] = true
			}
		}
	}
	return out
}

// --- shared syntactic helpers ---

// exprString renders a selector/ident chain compactly ("s.cfg.Recorder").
// Non-chain expressions render their last component best-effort.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.ParenExpr:
		return exprString(v.X)
	case *ast.StarExpr:
		return exprString(v.X)
	case *ast.CallExpr:
		return exprString(v.Fun) + "()"
	case *ast.IndexExpr:
		return exprString(v.X) + "[...]"
	case *ast.SliceExpr:
		// A reslice aliases its operand: for the self-append checks,
		// `buf.B[:0]` is the same storage as `buf.B`.
		return exprString(v.X)
	default:
		return "?"
	}
}

// lastSelector reports the final component of a selector chain ("mu" for
// sh.mu), or the identifier name itself.
func lastSelector(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	case *ast.ParenExpr:
		return lastSelector(v.X)
	default:
		return ""
	}
}

// funcBodies yields every function-shaped body in the file: declarations
// and function literals, each paired with a display name.
func funcBodies(f *ast.File) []namedBody {
	var out []namedBody
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		out = append(out, namedBody{fd.Name.Name, fd.Body})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, namedBody{fd.Name.Name + ".func", lit.Body})
			}
			return true
		})
	}
	return out
}

type namedBody struct {
	name string
	body *ast.BlockStmt
}
