package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchfmt"
)

func snap(recs ...benchfmt.Record) benchfmt.Snapshot {
	return benchfmt.Snapshot{GeneratedAt: "t", Benchmarks: recs}
}

func rec(name string, ns float64, bytes, allocs int64) benchfmt.Record {
	return benchfmt.Record{Package: "p", Name: name, Iterations: 1,
		NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs}
}

var defTh = thresholds{nsPct: 25, allocPct: 0, bytesPct: 10}

func TestCompareClean(t *testing.T) {
	var out strings.Builder
	regs, n := compare(
		snap(rec("BenchmarkA", 100, 64, 2)),
		snap(rec("BenchmarkA", 110, 64, 2)), // +10% ns, under the 25% limit
		defTh, nil, 10, &out)
	if len(regs) != 0 || n != 1 {
		t.Errorf("regs=%v compared=%d\n%s", regs, n, out.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Errorf("output: %s", out.String())
	}
}

func TestCompareNsRegression(t *testing.T) {
	var out strings.Builder
	regs, _ := compare(
		snap(rec("BenchmarkA", 100, 0, 0)),
		snap(rec("BenchmarkA", 200, 0, 0)),
		defTh, nil, 10, &out)
	if len(regs) != 1 || regs[0].dim != "ns/op" {
		t.Fatalf("regs = %v", regs)
	}
	if !strings.Contains(out.String(), "REGRESSION p BenchmarkA ns/op: 100 -> 200 (+100.0%, limit +25.0%)") {
		t.Errorf("output: %s", out.String())
	}
}

func TestCompareZeroAllocBaselineIsStrict(t *testing.T) {
	// 0 -> 1 allocs/op must fail regardless of percentage thresholds.
	var out strings.Builder
	regs, _ := compare(
		snap(rec("BenchmarkDisabled", 0.5, 0, 0)),
		snap(rec("BenchmarkDisabled", 0.5, 0, 1)),
		defTh, nil, 10, &out)
	if len(regs) != 1 || regs[0].dim != "allocs/op" {
		t.Fatalf("regs = %v", regs)
	}
}

func TestCompareMinNsNoiseFloor(t *testing.T) {
	// A 0.1ns -> 0.4ns swing is scheduler noise, not a regression.
	var out strings.Builder
	regs, _ := compare(
		snap(rec("BenchmarkTiny", 0.1, 0, 0)),
		snap(rec("BenchmarkTiny", 0.4, 0, 0)),
		defTh, nil, 10, &out)
	if len(regs) != 0 {
		t.Errorf("noise-floor benchmark flagged: %v", regs)
	}
}

func TestCompareOnlyOverlap(t *testing.T) {
	// Benchmarks present on only one side are reported but never fail —
	// this is what lets a new BenchmarkWirePath land against a baseline
	// file that predates it.
	var out strings.Builder
	regs, n := compare(
		snap(rec("BenchmarkOld", 100, 0, 0), rec("BenchmarkShared", 100, 0, 0)),
		snap(rec("BenchmarkShared", 100, 0, 0), rec("BenchmarkNew", 1e9, 1<<30, 1<<20)),
		defTh, nil, 10, &out)
	if len(regs) != 0 || n != 1 {
		t.Errorf("regs=%v compared=%d", regs, n)
	}
	if !strings.Contains(out.String(), "only in baseline (ignored): p BenchmarkOld") ||
		!strings.Contains(out.String(), "only in candidate (ignored): p BenchmarkNew") {
		t.Errorf("output: %s", out.String())
	}
}

func TestRuleOverride(t *testing.T) {
	def := defTh
	rf := &ruleFlag{def: &def}
	if err := rf.Set("BenchmarkHot=ns:5,alloc:0"); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	// +10% ns passes globally but violates the 5% rule for BenchmarkHot.
	regs, _ := compare(
		snap(rec("BenchmarkHot/encode", 100, 0, 0), rec("BenchmarkCold", 100, 0, 0)),
		snap(rec("BenchmarkHot/encode", 110, 0, 0), rec("BenchmarkCold", 110, 0, 0)),
		def, rf.rules, 10, &out)
	if len(regs) != 1 || regs[0].key != "p BenchmarkHot/encode" {
		t.Errorf("regs = %v", regs)
	}
}

func TestRuleMatchesPackageQualifiedKey(t *testing.T) {
	// Rules match "package BenchmarkName", so "p Benchmark" scopes a rule to
	// every benchmark of package p without touching other packages.
	def := defTh
	rf := &ruleFlag{def: &def}
	if err := rf.Set("p Benchmark=ns:5"); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	regs, _ := compare(
		snap(rec("BenchmarkSim", 100, 0, 0)),
		snap(rec("BenchmarkSim", 110, 0, 0)),
		def, rf.rules, 10, &out)
	if len(regs) != 1 {
		t.Errorf("package-scoped rule did not apply: regs = %v", regs)
	}
}

func TestRuleParsing(t *testing.T) {
	def := defTh
	rf := &ruleFlag{def: &def}
	for _, bad := range []string{"", "noequals", "=ns:5", "X=ns", "X=ns:abc", "X=frobs:5"} {
		if err := rf.Set(bad); err == nil {
			t.Errorf("rule %q accepted", bad)
		}
	}
	if err := rf.Set("X=bytes:50"); err != nil {
		t.Fatal(err)
	}
	r := rf.rules[len(rf.rules)-1]
	// Unset dimensions keep the global threshold.
	if r.th.bytesPct != 50 || r.th.nsPct != 25 || r.th.allocPct != 0 {
		t.Errorf("rule thresholds = %+v", r.th)
	}
}

func TestCompareAgainstSeedBaseline(t *testing.T) {
	// The acceptance gate: the committed PR4 baseline and the current
	// snapshot must compare clean (the new BenchmarkWirePath entries are
	// candidate-only and therefore ignored). Skips when either file is
	// missing, e.g. in a bare checkout before the snapshot is regenerated.
	base, err := benchfmt.ReadFile("../../BENCH_PR4.json")
	if err != nil {
		t.Skipf("no baseline: %v", err)
	}
	if len(base.Benchmarks) == 0 {
		t.Fatal("seed baseline has no benchmarks")
	}
	var out strings.Builder
	regs, n := compare(base, base, defTh, nil, 10, &out)
	if len(regs) != 0 {
		t.Errorf("self-comparison found regressions: %v", regs)
	}
	if n != len(base.Benchmarks) {
		t.Errorf("compared %d of %d", n, len(base.Benchmarks))
	}
}

// writeSnap writes s as a snapshot file under dir and returns its path.
func writeSnap(t *testing.T, dir, name string, s benchfmt.Snapshot) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := benchfmt.Write(f, s); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunExitStatus: clean exits 0, a regression exits 2, and so does a
// comparison with no benchmark common to both snapshots — a gate that
// compared nothing must not pass.
func TestRunExitStatus(t *testing.T) {
	dir := t.TempDir()
	base := writeSnap(t, dir, "base.json", snap(rec("BenchmarkA", 100, 0, 0)))
	for _, tc := range []struct {
		name string
		cand benchfmt.Snapshot
		code int
		out  string
	}{
		{"clean", snap(rec("BenchmarkA", 100, 0, 0)), 0, "no regressions"},
		{"regression", snap(rec("BenchmarkA", 100, 0, 1)), 2, "REGRESSION p BenchmarkA allocs/op"},
		{"no overlap", snap(rec("BenchmarkB", 100, 0, 0)), 2, "NO OVERLAP"},
		{"empty candidate", snap(), 2, "NO OVERLAP"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cand := writeSnap(t, dir, strings.ReplaceAll(tc.name, " ", "-")+".json", tc.cand)
			var stdout, stderr strings.Builder
			if code := run([]string{base, cand}, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d\n%s%s", code, tc.code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.out) {
				t.Errorf("output lacks %q:\n%s", tc.out, stdout.String())
			}
		})
	}
	var stdout, stderr strings.Builder
	if code := run([]string{base}, &stdout, &stderr); code != 1 {
		t.Errorf("one argument: exit %d, want 1", code)
	}
}
