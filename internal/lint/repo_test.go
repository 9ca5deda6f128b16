package lint

import (
	"testing"
)

// TestRepoIsClean runs the full scoped suite over the real repository — the
// same check `make lint` performs. The repo must stay clean: a finding here
// either reveals a real violation (fix it) or an analyzer false positive
// (fix the analyzer, or annotate the site with //lint:allow and a reason).
func TestRepoIsClean(t *testing.T) {
	pkgs, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; pattern resolution looks broken", len(pkgs))
	}
	// Full-suite options, exactly as cmd/leasevet runs it: scoped, with
	// stale-//lint:allow detection — so a rotted allow fails this test too.
	res := RunSuite(pkgs, Analyzers(), SuiteOptions{Scoped: true, StaleAllows: true})
	for _, d := range res.Diagnostics {
		t.Errorf("%s", d)
	}
}

// TestHotAllocCoversWirePath proves the acceptance property behind hotalloc:
// the static closure rooted at the //lint:hotpath annotations contains every
// function on the BenchmarkWirePath/append call path (AppendEncode and all
// encoder methods) and the batched transport path it feeds
// (SendFrameBuf → writeFrame, RecvFrameBuf → ReadFrameBuf). `make
// bench-wirepath` samples these paths dynamically; this test pins that the
// analyzer watches all of them, including ones a benchmark input set might
// not drive.
func TestHotAllocCoversWirePath(t *testing.T) {
	pkgs, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	g := BuildGraph(pkgs)
	hot := HotSet(g)
	if len(hot) == 0 {
		t.Fatal("hot closure is empty; //lint:hotpath roots lost")
	}
	for _, name := range []string{
		"repro/internal/wire.AppendEncode",
		"repro/internal/transport.(*tcpConn).SendFrameBuf",
		"repro/internal/transport.(*tcpConn).writeFrame",
		"repro/internal/transport.(*tcpConn).flushLoop",
		"repro/internal/transport.(*tcpConn).RecvFrameBuf",
		"repro/internal/transport.(*tcpConn).received",
		"repro/internal/wire.ReadFrameBuf",
	} {
		if !hot[name] {
			t.Errorf("%s not in the hot closure", name)
		}
	}
	// A reply is drained inline on the sending goroutine, so the drain must
	// be reachable from SendFrameBuf itself, not only through flushLoop.
	const send, drain = "repro/internal/transport.(*tcpConn).SendFrameBuf", "repro/internal/transport.(*tcpConn).drain"
	var roots []*FuncNode
	for _, n := range g.Nodes {
		if n.String() == send {
			roots = append(roots, n)
		}
	}
	reached := false
	for n := range g.Reachable(roots, ReachOpts{Call: true, Defer: true, Ref: true, OverApprox: true}) {
		reached = reached || n.String() == drain
	}
	if len(roots) != 1 || !reached {
		t.Errorf("%s not reachable from %s (%d roots found)", drain, send, len(roots))
	}
	// Every encoder method is on the append path; enumerate them from the
	// graph so a newly added method can't silently escape coverage.
	checked := 0
	for _, n := range g.Nodes {
		if n.Pkg.Path == "repro/internal/wire" && n.RecvType == "encoder" {
			checked++
			if !hot[n.String()] {
				t.Errorf("encoder method %s not in the hot closure", n)
			}
		}
	}
	if checked < 8 {
		t.Errorf("only %d encoder methods found; graph indexing looks broken", checked)
	}
}

// TestLoadExcludesTests verifies the loader's deliberate exclusion of
// _test.go files: tests drive scenarios with wall clocks and raw goroutines
// by design.
func TestLoadExcludesTests(t *testing.T) {
	pkgs, err := Load("../..", []string{"repro/internal/client"})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("packages = %d, want 1", len(pkgs))
	}
	for _, f := range pkgs[0].Files {
		name := pkgs[0].Fset.Position(f.Pos()).Filename
		if len(name) > 8 && name[len(name)-8:] == "_test.go" {
			t.Errorf("loader included test file %s", name)
		}
	}
}
