package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"testing"
)

// runFixture loads testdata/<name> as one package through Load (so it is
// type-checked the way the repository is), runs the analyzer over it (with
// //lint:allow filtering, so fixtures can exercise the escape hatch), and
// matches the findings against `// want "regexp"` comments: every
// diagnostic must match a want on its line, and every want must be matched.
// Multiple expectations on one line are written as `// want "re1" "re2"`.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	pkgs, err := Load(".", []string{"./" + filepath.Join("testdata", name)})
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) == 0 {
		t.Fatalf("fixture %s: loaded %d packages, want one with Go files", name, len(pkgs))
	}
	pkg := pkgs[0]

	wants := collectWants(t, pkg)
	for _, d := range RunAnalyzer(a, pkg) {
		key := fileLine{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s", d.Pos, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, w.re)
			}
		}
	}
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

// Want expectations quote their regexp in backticks or double quotes:
// `// want `+"`re`"+` or // want "re1" "re2".
var (
	wantRe    = regexp.MustCompile("//\\s*want((?:\\s+(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`))+)")
	wantArgRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")
)

func collectWants(t *testing.T, pkg *Package) map[fileLine][]*want {
	t.Helper()
	out := make(map[fileLine][]*want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fileLine{pos.Filename, pos.Line}
				for _, arg := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
					pattern := arg[1]
					if pattern == "" {
						pattern = arg[2]
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pattern, err)
					}
					out[key] = append(out[key], &want{re: re})
				}
			}
		}
	}
	return out
}

// mustParsePackage builds an in-memory package from source snippets and
// type-checks it, for tests that don't warrant a testdata file. Standard
// library imports resolve through their export data.
func mustParsePackage(t *testing.T, path string, sources ...string) *Package {
	t.Helper()
	return mustCheckPackage(t, newChecker(token.NewFileSet(), nil), path, sources...)
}

// mustCheckPackage is mustParsePackage on a shared checker, so packages
// checked earlier on c can be imported.
func mustCheckPackage(t *testing.T, c *checker, path string, sources ...string) *Package {
	t.Helper()
	pkg := &Package{Path: path, Fset: c.fset}
	for i, src := range sources {
		f, err := parser.ParseFile(c.fset, fmt.Sprintf("%s/src%d.go", path, i), src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	if err := c.check(pkg); err != nil {
		t.Fatal(err)
	}
	return pkg
}
