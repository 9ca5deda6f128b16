// Package benchfmt is the shared model for benchmark snapshots: the
// BENCH_*.json files that `benchjson` writes and `benchdiff` compares. It
// parses `go test -bench` text output into Records and attaches run
// metadata (git commit, Go version, GOMAXPROCS) so a snapshot is
// self-describing — a regression report can say WHAT regressed and also
// which toolchain and commit produced each side.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Record is one benchmark result line. Custom per-op metrics reported via
// testing.B.ReportMetric (e.g. the simulator's "msgs" and "bytes") land in
// Extra keyed by their unit.
type Record struct {
	Package     string             `json:"package"`
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Key identifies a benchmark across snapshots: same package, same name.
func (r Record) Key() string { return r.Package + " " + r.Name }

// Meta describes the run that produced a snapshot. All fields are
// best-effort: a missing git binary or a non-repo working directory leaves
// Commit empty rather than failing the capture.
type Meta struct {
	GitCommit  string `json:"git_commit,omitempty"`
	GitDirty   bool   `json:"git_dirty,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
}

// Snapshot is the BENCH_*.json document.
type Snapshot struct {
	GeneratedAt string   `json:"generated_at"`
	Meta        *Meta    `json:"meta,omitempty"`
	Benchmarks  []Record `json:"benchmarks"`
}

// CaptureMeta collects run metadata from the current process and, when git
// is available, the working tree.
func CaptureMeta() *Meta {
	m := &Meta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.GitCommit = strings.TrimSpace(string(out))
	}
	if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
		m.GitDirty = len(strings.TrimSpace(string(out))) > 0
	}
	return m
}

// ParseLine parses one benchmark result line: the name, the iteration
// count, then (value, unit) pairs such as "6264065 ns/op" or "40474 msgs".
// The "-<procs>" suffix that `go test` appends to the name when GOMAXPROCS
// is above 1 is stripped (Meta records GOMAXPROCS), so snapshots taken at
// different GOMAXPROCS share their keys. A sub-benchmark name must
// therefore not itself end in "-<digits>".
func ParseLine(pkg, line string) (Record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Record{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	r := Record{Package: pkg, Name: stripProcs(fields[0]), Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Record{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = val
		case "B/op":
			r.BytesPerOp = int64(val)
		case "allocs/op":
			r.AllocsPerOp = int64(val)
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = val
		}
	}
	return r, true
}

// stripProcs drops a trailing "-<digits>" from a benchmark name.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// ParseTestOutput reads `go test -bench` text output, tracking the
// interleaved "pkg:" lines so each Record carries its package.
func ParseTestOutput(r io.Reader) ([]Record, error) {
	recs := []Record{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "pkg: ") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
			continue
		}
		if rec, ok := ParseLine(pkg, line); ok {
			recs = append(recs, rec)
		}
	}
	return recs, sc.Err()
}

// Write encodes a snapshot as indented JSON.
func Write(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadFile loads a BENCH_*.json snapshot.
func ReadFile(path string) (Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return Snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Stamp returns t formatted the way snapshots record their generation time.
func Stamp(t time.Time) string { return t.UTC().Format(time.RFC3339) }

// Label describes a snapshot for diff output: its timestamp plus whatever
// metadata it carries.
func (s Snapshot) Label() string {
	parts := []string{s.GeneratedAt}
	if m := s.Meta; m != nil {
		if m.GitCommit != "" {
			c := m.GitCommit
			if len(c) > 12 {
				c = c[:12]
			}
			if m.GitDirty {
				c += "+dirty"
			}
			parts = append(parts, c)
		}
		if m.GoVersion != "" {
			parts = append(parts, m.GoVersion)
		}
	}
	return strings.Join(parts, " ")
}
