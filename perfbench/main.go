// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed number of seconds, checks the program's outputs,
// and prints one JSON result object as the last line of standard output.
//
// The live workloads (cached-read, read-miss, write-fanout) start the real
// leased daemon as a child process and drive it over loopback TCP through
// internal/client; sim-fig5 runs the audited Figure 5 simulator sweep
// in-process. With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 a separate traced pass carries the per-layer metrics. README.md in
// this directory defines every metric.
//
// Run it through run.sh, which builds leased and this program first:
//
//	bash perfbench/run.sh --workload read-miss --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric. The tables below must list exactly the
// metrics BENCHMARK.json declares; checkDeclared enforces that.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"cpu_us_per_op", "us"},
	{"rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	// client (internal/client)
	{"client.hit_ratio", "ratio"},
	{"client.read_p50_us", "us"},
	{"client.read_p90_us", "us"},
	{"client.read_p99_us", "us"},
	{"client.write_p50_us", "us"},
	{"client.write_p90_us", "us"},
	{"client.write_p99_us", "us"},
	{"client.write_overhead_us", "us"},
	{"client.invalidations_per_write", "count"},
	{"client.cpu_us_per_op", "us"},
	{"client.error_ratio", "ratio"},
	// wire (internal/wire), measured by leased's cost accounting
	{"wire.decode_ns.ReqObjLease", "ns"},
	{"wire.encode_ns.ObjLease", "ns"},
	{"wire.decode_ns.WriteReq", "ns"},
	{"wire.encode_ns.Invalidate", "ns"},
	{"wire.decode_ns.AckInvalidate", "ns"},
	{"wire.encode_ns.WriteReply", "ns"},
	{"wire.server_sent_bytes_per_op", "bytes"},
	{"wire.server_recv_bytes_per_op", "bytes"},
	// transport (internal/transport)
	{"transport.frames_per_op", "count"},
	{"transport.server_flushes_per_op", "count"},
	{"transport.server_frames_per_flush", "count"},
	{"transport.client_flushes_per_op", "count"},
	{"transport.client_frames_per_flush", "count"},
	// server (internal/server)
	{"server.cpu_us_per_op", "us"},
	{"server.obj_grants_per_op", "count"},
	{"server.invalidations_per_write", "count"},
	{"server.ack_wait_p50_us", "us"},
	{"server.ack_wait_p90_us", "us"},
	{"server.ack_wait_mean_us", "us"},
	{"server.write_us", "us"},
	{"server.serialize_wait_us", "us"},
	{"server.fanout_us", "us"},
	{"server.ack_wait_span_us", "us"},
	{"server.write_self_us", "us"},
	// core (internal/core)
	{"core.state_bytes", "bytes"},
	{"core.object_leases", "count"},
	// obs / cost / health / loadtl, and the benchmark's own tracing
	{"obs.tax_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
	// sim (internal/sim, internal/sim/algo)
	{"sim.events_per_s", "1/s"},
	{"sim.allocs_per_event", "count"},
	{"sim.events", "count"},
	{"sim.messages", "count"},
	{"sim.run_s.poll", "s"},
	{"sim.run_s.callback", "s"},
	{"sim.run_s.lease", "s"},
	{"sim.run_s.volume10", "s"},
	{"sim.run_s.volume100", "s"},
	{"sim.run_s.delay10", "s"},
	{"sim.run_s.delay100", "s"},
	// workload / trace
	{"workload.generate_s", "s"},
	{"workload.synthesize_s", "s"},
	{"trace.merge_s", "s"},
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	leased   string // path of the leased binary
	work     string // directory for generated inputs and span dumps
}

// outcome collects what a run measured and which checks failed.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// set records a metric value.
func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// ratio records num/den as a metric and prints it with its base, so every
// per-op figure shows the counts it came from.
func (o *outcome) ratio(name string, num float64, numUnit string, den float64, denUnit string) {
	v := 0.0
	if den > 0 {
		v = num / den
	}
	o.metrics[name] = v
	fmt.Printf("  %s = %.6g %s / %.6g %s = %.6g\n", name, num, numUnit, den, denUnit, v)
}

// absorb adds another window's operation counts and failed checks.
func (o *outcome) absorb(other *outcome) {
	o.attempted += other.attempted
	o.failed += other.failed
	o.problems = append(o.problems, other.problems...)
}

// fail records a failed correctness or workload-shape check.
func (o *outcome) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	o.problems = append(o.problems, msg)
	fmt.Println("CHECK FAILED:", msg)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: cached-read, read-miss, write-fanout or sim-fig5")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced pass printing the per-layer metrics")
	flag.StringVar(&cfg.leased, "leased", "", "path of the leased binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "directory for generated inputs and span dumps")
	flag.Parse()
	cfg.trace = *trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", cfg.seconds)
	}
	if err := checkDeclared("BENCHMARK.json"); err != nil {
		return err
	}
	printEnv(cfg)

	var (
		out *outcome
		err error
	)
	switch cfg.workload {
	case "cached-read", "read-miss", "write-fanout":
		if cfg.leased == "" {
			return fmt.Errorf("-leased is required for %s", cfg.workload)
		}
		// leased runs in a work directory, so a relative path would miss.
		if cfg.leased, err = filepath.Abs(cfg.leased); err != nil {
			return err
		}
		out, err = runLive(cfg)
	case "sim-fig5":
		out, err = runSim(cfg)
	default:
		return fmt.Errorf("unknown -workload %q", cfg.workload)
	}
	if err != nil {
		return err
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := resultJSON{
		Correct:   len(out.problems) == 0 && out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v := out.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkDeclared verifies that BENCHMARK.json declares exactly the metrics
// (names and units) this program reports.
func checkDeclared(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s declares %d %s metrics, perfbench reports %d", path, len(got), kind, len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				return fmt.Errorf("%s %s metric %d is %s [%s], perfbench reports %s [%s]",
					path, kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
		return nil
	}
	if err := same("end_to_end", decl.EndToEnd, endToEnd); err != nil {
		return err
	}
	return same("per_layer", decl.PerLayer, perLayer)
}

// printEnv records the conditions a result was measured under.
func printEnv(cfg config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("env: workload=%s seed=%d seconds=%d trace=%v GOMAXPROCS=%d nproc=%d go=%s commit=%s source_sha256=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		runtime.Version(), commit, sourceHash("."))
}

// sourceHash identifies the measured source tree when the checkout carries
// no version-control metadata: a SHA-256 over every .go file and go.mod,
// in path order. The benchmark's build directory is skipped.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the identifier
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// median returns the middle value of xs (mean of the two middle ones for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// since returns seconds elapsed from t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
