package lint

import (
	"fmt"
	"go/token"
	"strings"
	"testing"
)

func TestClockCheckFixture(t *testing.T) { runFixture(t, ClockCheck, "clockcheck") }

func TestLockOrderFixture(t *testing.T) { runFixture(t, LockOrder, "lockorder") }

func TestWireSymFixture(t *testing.T) { runFixture(t, WireSym, "wiresym") }

func TestMetricRegFixture(t *testing.T) { runFixture(t, MetricReg, "metricreg") }

func TestHotAllocFixture(t *testing.T) { runFixture(t, HotAlloc, "hotalloc") }

func TestLockFlowFixture(t *testing.T) { runFixture(t, LockFlow, "lockflow") }

func TestSpawnJoinFixture(t *testing.T) { runFixture(t, SpawnJoin, "spawnjoin") }

// TestCtxCleanFixture runs spawnjoin over the cases of the ctxclean analyzer
// it replaced: loops in the spawned body itself.
func TestCtxCleanFixture(t *testing.T) { runFixture(t, SpawnJoin, "ctxclean") }

func TestSnapshotCopyFixture(t *testing.T) { runFixture(t, SnapshotCopy, "snapshotcopy") }

// TestClockCheckRenamedImport verifies the analyzer follows a renamed time
// import and ignores unrelated packages that happen to be called "time".
func TestClockCheckRenamedImport(t *testing.T) {
	pkg := mustParsePackage(t, "fixture/renamed", `package p

import stdtime "time"

func f() { _ = stdtime.Now() }
`)
	diags := RunAnalyzer(ClockCheck, pkg)
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %d, want 1: %v", len(diags), diags)
	}

	c := newChecker(token.NewFileSet(), nil)
	mustCheckPackage(t, c, "example.com/other/time", `package time

func Now() int { return 0 }
`)
	clean := mustCheckPackage(t, c, "fixture/other", `package p

import "example.com/other/time"

func f() { _ = time.Now() }
`)
	if diags := RunAnalyzer(ClockCheck, clean); len(diags) != 0 {
		t.Fatalf("flagged a non-stdlib time package: %v", diags)
	}
}

// TestClockCheckFuncValue verifies a wall-clock function handed out as a
// value is flagged where it is named, as is a dot-imported call; a method
// of time.Time that shares a name (After) is not.
func TestClockCheckFuncValue(t *testing.T) {
	pkg := mustParsePackage(t, "fixture/funcvalue", `package p

import (
	"time"
	. "time"
)

func stamp(now func() time.Time) time.Time { return now() }

func f(t time.Time) bool {
	_ = stamp(time.Now)
	clock := time.Since
	_ = clock
	Sleep(0)
	return t.After(t)
}
`)
	diags := RunAnalyzer(ClockCheck, pkg)
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d:%s", d.Pos.Line, d.Message[:strings.Index(d.Message, " ")]))
	}
	want := []string{"11:time.Now", "12:time.Since", "14:time.Sleep"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("findings = %v, want %v", got, want)
	}
}

// TestAllowRequiresMatchingAnalyzer verifies //lint:allow only suppresses
// the named analyzer.
func TestAllowRequiresMatchingAnalyzer(t *testing.T) {
	pkg := mustParsePackage(t, "fixture/allow", `package p

import "time"

func f() {
	//lint:allow lockorder — wrong analyzer, must not suppress
	time.Sleep(time.Second)
}
`)
	if diags := RunAnalyzer(ClockCheck, pkg); len(diags) != 1 {
		t.Fatalf("diagnostics = %d, want 1 (allow for another analyzer must not apply): %v", len(diags), diags)
	}
}

// TestScoped pins the analyzer-to-package policy: where each discipline is
// enforced and, as importantly, where it is not.
func TestScoped(t *testing.T) {
	cases := []struct {
		analyzer, pkg string
		want          bool
	}{
		{"clockcheck", "repro/internal/server", true},
		{"clockcheck", "repro/internal/core", true},
		{"clockcheck", "repro/internal/clock", false},    // the one legitimate wall-clock layer
		{"clockcheck", "repro/internal/transport", true}, // batcher code is checked; raw-socket sites use //lint:allow
		{"clockcheck", "repro/cmd/leased", false},        // daemons stamp process lifetimes
		{"clockcheck", "repro/internal/health", true},    // flight timestamps must replay under sim clocks
		{"clockcheck", "repro/internal/cost", true},      // the profiler samples on the injected clock
		{"lockorder", "repro/internal/server", true},
		{"lockorder", "repro/internal/proxy", true},
		{"lockorder", "repro/internal/client", false},
		{"wiresym", "repro/internal/wire", true},
		{"wiresym", "repro/internal/server", false},
		{"metricreg", "repro/internal/obs", true},
		{"metricreg", "repro/cmd/leased", true},
		{"metricreg", "other/module", false},
		{"hotalloc", "repro/internal/wire", true},      // the //lint:hotpath roots live here
		{"hotalloc", "repro/internal/transport", true}, // ... and in the batcher
		{"hotalloc", "repro/internal/server", false},   // grant logic is allowed to allocate
		{"lockflow", "repro/internal/server", true},
		{"lockflow", "repro/internal/proxy", true},
		{"lockflow", "repro/internal/wire", false}, // no shard mutexes in the codec
		{"spawnjoin", "repro/internal/server", true},
		{"spawnjoin", "repro/internal/sim", false},      // simulation steps synchronously
		{"spawnjoin", "repro/internal/health", true},    // the engine's tick goroutine must stop cleanly
		{"spawnjoin", "repro/internal/cost", true},      // the profiler loop must drain on Close
		{"spawnjoin", "repro/internal/transport", true}, // flusher/delivery goroutines must drain on Close
		{"ctxclean", "repro/internal/server", false},    // folded into spawnjoin
		{"snapshotcopy", "repro/internal/core", true},
		{"snapshotcopy", "repro/internal/state", true}, // the snapshot types live here
		{"snapshotcopy", "repro/internal/wire", false},
		{"nosuch", "repro/internal/server", false},
	}
	for _, c := range cases {
		if got := Scoped(c.analyzer, c.pkg); got != c.want {
			t.Errorf("Scoped(%q, %q) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
}
