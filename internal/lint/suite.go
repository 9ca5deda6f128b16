package lint

import (
	"strings"
	"time"
)

// SuiteOptions configures a RunSuite invocation.
type SuiteOptions struct {
	// Scoped applies the Scoped policy per analyzer/package — the
	// cmd/leasevet default; fixture tests run unscoped.
	Scoped bool
	// StaleAllows reports //lint:allow comments that suppressed nothing.
	// Only meaningful when the full suite runs: under `-only` a legitimate
	// allow for a deselected analyzer would look stale.
	StaleAllows bool
}

// AnalyzerTiming is one analyzer's wall time and finding count (findings
// counted before allow filtering — the work it did, not what survived).
type AnalyzerTiming struct {
	Name     string
	Duration time.Duration
	Findings int
}

// SuiteResult is the outcome of one suite run.
type SuiteResult struct {
	Diagnostics []Diagnostic
	Timings     []AnalyzerTiming
	// Graph is the whole-module call graph, built when any interprocedural
	// analyzer ran (for cmd/leasevet -graph); nil otherwise. GraphTime is
	// what building it took.
	Graph     *Graph
	GraphTime time.Duration
}

// RunSuite applies the analyzers to the packages: single-function analyzers
// package by package, interprocedural analyzers once over a shared
// whole-module call graph. Allow suppression is tracked across the whole
// run so stale //lint:allow comments can be reported (as analyzer
// "staleallow") when requested.
func RunSuite(pkgs []*Package, analyzers []*Analyzer, opts SuiteOptions) *SuiteResult {
	res := &SuiteResult{}
	allows := buildAllowIndex(pkgs)
	byPath := make(map[string]*Package, len(pkgs))
	for _, pkg := range pkgs {
		byPath[pkg.Path] = pkg
	}

	needGraph := false
	for _, a := range analyzers {
		if a.RunGraph != nil {
			needGraph = true
		}
	}
	if needGraph {
		start := time.Now()
		res.Graph = BuildGraph(pkgs)
		res.GraphTime = time.Since(start)
	}

	for _, a := range analyzers {
		start := time.Now()
		var diags []Diagnostic
		if a.RunGraph != nil {
			gp := &GraphPass{Analyzer: a, Graph: res.Graph}
			a.RunGraph(gp)
			// Graph findings carry resolved positions; map each back to its
			// package for scope filtering.
			for _, d := range gp.diags {
				if opts.Scoped {
					pkg := res.Graph.PackageOf(d.Pos.Filename)
					if pkg == nil || !Scoped(a.Name, pkg.Path) {
						continue
					}
				}
				diags = append(diags, d)
			}
		} else {
			for _, pkg := range pkgs {
				if opts.Scoped && !Scoped(a.Name, pkg.Path) {
					continue
				}
				pass := &Pass{Analyzer: a, Fset: pkg.Fset, PkgPath: pkg.Path, Files: pkg.Files, Info: pkg.Info}
				a.Run(pass)
				diags = append(diags, pass.diags...)
			}
		}
		kept := allows.filter(diags)
		res.Diagnostics = append(res.Diagnostics, kept...)
		res.Timings = append(res.Timings, AnalyzerTiming{
			Name:     a.Name,
			Duration: time.Since(start),
			Findings: len(diags),
		})
	}

	if opts.StaleAllows {
		res.Diagnostics = append(res.Diagnostics, allows.stale(analyzers)...)
	}
	sortDiagnostics(res.Diagnostics)
	return res
}

// --- allow index with usage tracking ---

type allowEntry struct {
	pos   Diagnostic // position only (Analyzer/Message unused)
	names []string
	used  map[string]bool
}

type allowIndex struct {
	entries []*allowEntry
	// byLine maps both the comment's line and the line after it to the
	// entry, matching the PR 5 suppression contract.
	byLine map[fileLine][]*allowEntry
}

func buildAllowIndex(pkgs []*Package) *allowIndex {
	idx := &allowIndex{byLine: make(map[fileLine][]*allowEntry)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := allowRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					var names []string
					for _, n := range strings.Split(m[1], ",") {
						if n = strings.TrimSpace(n); n != "" {
							names = append(names, n)
						}
					}
					pos := pkg.Fset.Position(c.Pos())
					e := &allowEntry{
						pos:   Diagnostic{Pos: pos},
						names: names,
						used:  make(map[string]bool),
					}
					idx.entries = append(idx.entries, e)
					idx.byLine[fileLine{pos.Filename, pos.Line}] = append(idx.byLine[fileLine{pos.Filename, pos.Line}], e)
					idx.byLine[fileLine{pos.Filename, pos.Line + 1}] = append(idx.byLine[fileLine{pos.Filename, pos.Line + 1}], e)
				}
			}
		}
	}
	return idx
}

// filter drops suppressed diagnostics, marking the suppressing entries used.
func (idx *allowIndex) filter(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		suppressed := false
		for _, e := range idx.byLine[fileLine{d.Pos.Filename, d.Pos.Line}] {
			for _, n := range e.names {
				if n == d.Analyzer {
					e.used[n] = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	return out
}

// stale reports, under analyzer name "staleallow", every allow name that
// suppressed nothing in this run, and every allow naming an analyzer the
// suite does not have.
func (idx *allowIndex) stale(analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, e := range idx.entries {
		for _, n := range e.names {
			switch {
			case !known[n]:
				out = append(out, Diagnostic{
					Analyzer: "staleallow",
					Pos:      e.pos.Pos,
					Message:  "//lint:allow names unknown analyzer " + n,
				})
			case !e.used[n]:
				out = append(out, Diagnostic{
					Analyzer: "staleallow",
					Pos:      e.pos.Pos,
					Message:  "//lint:allow " + n + " suppresses nothing; remove it",
				})
			}
		}
	}
	return out
}
