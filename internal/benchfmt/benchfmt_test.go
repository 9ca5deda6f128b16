package benchfmt

import (
	"strings"
	"testing"
	"time"
)

func TestParseLineStandard(t *testing.T) {
	r, ok := ParseLine("repro/internal/audit",
		"BenchmarkAuditObserve  \t13769095\t        86.60 ns/op\t       0 B/op\t       0 allocs/op")
	if !ok {
		t.Fatal("line not recognized")
	}
	if r.Name != "BenchmarkAuditObserve" || r.Iterations != 13769095 ||
		r.NsPerOp != 86.60 || r.BytesPerOp != 0 || r.AllocsPerOp != 0 {
		t.Errorf("parsed %+v", r)
	}
	if r.Extra != nil {
		t.Errorf("unexpected extra metrics: %v", r.Extra)
	}
}

func TestParseLineCustomMetrics(t *testing.T) {
	r, ok := ParseLine("repro",
		"BenchmarkTable1/PollEachRead \t     198\t   6264065 ns/op\t  82583528 bytes\t     40474 msgs\t         0 stale-rate\t 1806905 B/op\t    1173 allocs/op")
	if !ok {
		t.Fatal("line not recognized")
	}
	if r.NsPerOp != 6264065 || r.BytesPerOp != 1806905 || r.AllocsPerOp != 1173 {
		t.Errorf("parsed %+v", r)
	}
	if r.Extra["msgs"] != 40474 || r.Extra["bytes"] != 82583528 {
		t.Errorf("extra = %v", r.Extra)
	}
}

func TestParseLineStripsProcsSuffix(t *testing.T) {
	for _, tc := range []struct{ line, name string }{
		{"BenchmarkBatchedSend/grant-4 \t 1000\t 230 ns/op", "BenchmarkBatchedSend/grant"},
		{"BenchmarkCostDisabled-2 \t 1000\t 0.13 ns/op", "BenchmarkCostDisabled"},
		{"BenchmarkCostDisabled-16 \t 1000\t 0.13 ns/op", "BenchmarkCostDisabled"},
		{"BenchmarkCostDisabled \t 1000\t 0.13 ns/op", "BenchmarkCostDisabled"},
		{"BenchmarkWirePath/encode/Hello \t 1000\t 120 ns/op", "BenchmarkWirePath/encode/Hello"},
		{"BenchmarkE2E/read-miss \t 1000\t 120 ns/op", "BenchmarkE2E/read-miss"},
		{"BenchmarkE2E/read-miss-2 \t 1000\t 120 ns/op", "BenchmarkE2E/read-miss"},
	} {
		r, ok := ParseLine("p", tc.line)
		if !ok {
			t.Fatalf("line %q not recognized", tc.line)
		}
		if r.Name != tc.name {
			t.Errorf("%q: name %q, want %q", tc.line, r.Name, tc.name)
		}
	}
}

func TestParseLineRejectsNonBenchLines(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \trepro\t2.777s",
		"BenchmarkBroken notanumber 5 ns/op",
		"",
	} {
		if _, ok := ParseLine("p", line); ok {
			t.Errorf("line %q wrongly parsed as a benchmark", line)
		}
	}
}

func TestParseTestOutputTracksPackages(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"pkg: repro/internal/wire",
		"BenchmarkWirePath/encode/Hello \t 1000000\t 120 ns/op\t 8 B/op\t 1 allocs/op",
		"PASS",
		"pkg: repro/internal/cost",
		"BenchmarkCostDisabled \t 1000000000\t 0.13 ns/op\t 0 B/op\t 0 allocs/op",
	}, "\n")
	recs, err := ParseTestOutput(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("parsed %d records", len(recs))
	}
	if recs[0].Package != "repro/internal/wire" || recs[1].Package != "repro/internal/cost" {
		t.Errorf("packages = %q, %q", recs[0].Package, recs[1].Package)
	}
	if recs[0].Key() != "repro/internal/wire BenchmarkWirePath/encode/Hello" {
		t.Errorf("key = %q", recs[0].Key())
	}
}

func TestCaptureMeta(t *testing.T) {
	m := CaptureMeta()
	if m.GoVersion == "" || m.GOOS == "" || m.GOARCH == "" || m.GOMAXPROCS < 1 {
		t.Errorf("incomplete meta: %+v", m)
	}
	// Running inside the repo, the commit should resolve to a hex hash.
	if m.GitCommit != "" && len(m.GitCommit) != 40 {
		t.Errorf("odd git commit %q", m.GitCommit)
	}
}

func TestSnapshotRoundTripAndLabel(t *testing.T) {
	s := Snapshot{
		GeneratedAt: Stamp(time.Unix(1754500000, 0)),
		Meta: &Meta{
			GitCommit: "0123456789abcdef0123456789abcdef01234567", GitDirty: true,
			GoVersion: "go1.23.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 8,
		},
		Benchmarks: []Record{{Package: "p", Name: "BenchmarkX", Iterations: 10, NsPerOp: 5}},
	}
	var buf strings.Builder
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"git_commit"`, `"git_dirty": true`, `"gomaxprocs": 8`, `"go_version": "go1.23.0"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("snapshot JSON missing %s", want)
		}
	}
	label := s.Label()
	if !strings.Contains(label, "0123456789ab+dirty") || !strings.Contains(label, "go1.23.0") {
		t.Errorf("label = %q", label)
	}
}

func TestReadFileLegacySnapshot(t *testing.T) {
	// Snapshots written before run metadata existed (e.g. BENCH_PR4.json)
	// still load: Meta is simply nil.
	s, err := ReadFile("../../BENCH_PR4.json")
	if err != nil {
		t.Skipf("no seed snapshot: %v", err)
	}
	if s.Meta != nil {
		t.Log("seed snapshot unexpectedly carries meta (fine after regeneration)")
	}
	if len(s.Benchmarks) == 0 {
		t.Error("seed snapshot has no benchmarks")
	}
}
