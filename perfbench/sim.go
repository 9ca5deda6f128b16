package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/trace"
	"repro/internal/workload"
)

// simReadConfig is internal/bench's small-scale synthetic trace shape with
// the benchmark's seed.
func simReadConfig(seed int64) workload.ReadConfig {
	c := workload.DefaultReadConfig()
	c.Seed = seed
	c.Clients = 12
	c.Servers = 40
	c.Objects = 1200
	c.Duration = 7 * 24 * time.Hour
	return c
}

// simTrace generates the sim-fig5 input, timing each stage.
func simTrace(seed int64, sb *spanBuf) (bench.Workload, [3]float64, error) {
	var stage [3]float64
	t0 := time.Now()
	reads, u, err := workload.GenerateReads(simReadConfig(seed))
	t1 := time.Now()
	sb.record("workload.GenerateReads", t0, t1)
	if err != nil {
		return bench.Workload{}, stage, err
	}
	wc := workload.DefaultWriteConfig()
	wc.Seed = seed + 1
	writes, err := workload.SynthesizeWrites(reads, wc)
	t2 := time.Now()
	sb.record("workload.SynthesizeWrites", t1, t2)
	if err != nil {
		return bench.Workload{}, stage, err
	}
	merged := trace.Merge(reads, writes)
	t3 := time.Now()
	sb.record("trace.Merge", t2, t3)
	stage = [3]float64{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()}
	return bench.Workload{Name: "small", Trace: merged, Universe: u}, stage, nil
}

// traceHash fingerprints a trace so repeated generations can be compared.
func traceHash(tr trace.Trace) uint64 {
	h := fnv.New64a()
	for _, e := range tr {
		fmt.Fprintf(h, "%d %d %s %s %s %d\n", e.Time.UnixNano(), e.Op, e.Client, e.Server, e.Object, e.Size)
	}
	return h.Sum64()
}

// cell is one bench.Run of the Figure 5 sweep.
type cell struct {
	family string // metric suffix, e.g. "volume10"
	spec   bench.Spec
}

func fig5Cells() []cell {
	var cells []cell
	for _, fam := range bench.Fig5Families() {
		name := strings.ToLower(fam.Family())
		name = name[:strings.IndexAny(name+"(", "(")]
		if fam.TV > 0 {
			name += fmt.Sprint(int(fam.TV.Seconds()))
		}
		for _, t := range bench.DefaultTimeouts {
			spec := fam
			if fam.Kind != bench.KindCallback {
				spec = fam.WithT(t)
			}
			cells = append(cells, cell{family: name, spec: spec})
		}
	}
	return cells
}

// sweepResult is what one full sweep measured, cell by cell.
type sweepResult struct {
	wall     []float64  // seconds per cell
	cpu      []float64  // process CPU seconds per cell
	perCell  [][2]int64 // events, messages per cell
	mallocs  uint64
	failed   int
	problems []string
}

// sweep runs every Figure 5 cell once. Each bench.Run audits the
// strongly consistent algorithms and panics on a violation; that panic is
// caught and reported as a failed operation.
func sweep(w bench.Workload, cells []cell, sb *spanBuf) *sweepResult {
	r := &sweepResult{}
	var ms0 runtime.MemStats
	if sb != nil {
		runtime.ReadMemStats(&ms0)
	}
	for _, c := range cells {
		cpu0 := processCPU()
		t0 := time.Now()
		events, messages, stale, err := runCell(w, c.spec)
		t1 := time.Now()
		r.wall = append(r.wall, t1.Sub(t0).Seconds())
		r.cpu = append(r.cpu, processCPU()-cpu0)
		r.perCell = append(r.perCell, [2]int64{events, messages})
		sb.record("bench.Run", t0, t1)
		if err != nil {
			r.failed++
			r.problems = append(r.problems, err.Error())
			continue
		}
		if stale > 0 && c.spec.Kind != bench.KindPoll {
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf("%s: stale read rate %g on a strongly consistent algorithm", c.spec.Name(), stale))
		}
	}
	if sb != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.mallocs = ms1.Mallocs - ms0.Mallocs
	}
	return r
}

// cellMedians returns, per cell, the median over sweeps of the wall time and
// of the CPU time. A cell's median over repeated sweeps is what one sweep
// costs with the machine's transient disturbances left out.
func cellMedians(rs []*sweepResult) (wall, cpu []float64) {
	for j := range rs[0].wall {
		var ws, cs []float64
		for _, r := range rs {
			ws = append(ws, r.wall[j])
			cs = append(cs, r.cpu[j])
		}
		wall = append(wall, median(ws))
		cpu = append(cpu, median(cs))
	}
	return wall, cpu
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func runCell(w bench.Workload, spec bench.Spec) (events, messages int64, stale float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: %v", spec.Name(), p)
		}
	}()
	rec, res := bench.Run(w, spec)
	return int64(res.Events), rec.Totals().Messages, rec.StaleRate(), nil
}

// runSim runs sim-fig5: the trace is generated setupRepeats times (setup_s
// is the median), then whole sweeps run until the measured time is spent.
// A traced run spends the first half untraced and the second half traced.
func runSim(cfg config) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var (
		w      bench.Workload
		times  []float64
		stages [3][]float64
		first  uint64
	)
	for i := 0; i < setupRepeats; i++ {
		id := tr.id()
		sb := tr.buf(id)
		t0 := time.Now()
		wl, st, err := simTrace(cfg.seed, sb)
		if err != nil {
			return nil, fmt.Errorf("generate trace: %w", err)
		}
		sb.keep(id, 0, "setup", t0, time.Now())
		times = append(times, since(t0))
		for j := range st {
			stages[j] = append(stages[j], st[j])
		}
		h := traceHash(wl.Trace)
		if i == 0 {
			first, w = h, wl
		} else if h != first {
			out.fail("trace generation is not deterministic: hash %x then %x for seed %d", first, h, cfg.seed)
		}
	}
	fmt.Printf("setup: %v s each (%d events); median taken\n", times, len(w.Trace))
	out.set("setup_s", median(times))
	out.set("workload.generate_s", median(stages[0]))
	out.set("workload.synthesize_s", median(stages[1]))
	out.set("trace.merge_s", median(stages[2]))

	cells := fig5Cells()
	total := time.Duration(cfg.seconds) * time.Second
	// minSweeps gives every cell a median of at least three repetitions.
	const minSweeps = 3
	runPhase := func(budget time.Duration, tr *tracer) []*sweepResult {
		var rs []*sweepResult
		start := time.Now()
		for len(rs) < minSweeps || time.Since(start) < budget {
			id := tr.id()
			sb := tr.buf(id)
			t0 := time.Now()
			rs = append(rs, sweep(w, cells, sb))
			sb.keep(id, 0, "sweep", t0, time.Now())
		}
		return rs
	}
	var sweeps, traced []*sweepResult
	if cfg.trace {
		sweeps = runPhase(total/2, nil)
		traced = runPhase(total/2, tr)
	} else {
		sweeps = runPhase(total, nil)
	}

	all := append(append([]*sweepResult(nil), sweeps...), traced...)
	for i, r := range all {
		out.attempted += int64(len(cells))
		out.failed += int64(r.failed)
		for _, p := range r.problems {
			out.fail("sweep %d: %s", i, p)
		}
		for j := range r.perCell {
			if r.perCell[j] != all[0].perCell[j] {
				out.fail("sweep %d cell %d: events/messages %v differ from sweep 0's %v", i, j, r.perCell[j], all[0].perCell[j])
			}
		}
	}
	var events, messages int64
	for _, c := range all[0].perCell {
		events += c[0]
		messages += c[1]
	}

	wall, cpu := cellMedians(sweeps)
	fmt.Printf("window: sim-fig5 %d sweeps of %d bench.Run calls; per-cell medians sum to %.3fs per sweep\n", len(sweeps), len(cells), sum(wall))
	out.ratio("ops_per_s", float64(events), "simulated events per sweep", sum(wall), "s per sweep")
	lat := make(dist, len(wall))
	for i, x := range wall {
		lat[i] = x * 1e9
	}
	sort.Float64s(lat)
	out.set("op_p50_us", lat.q(0.5))
	out.set("op_p90_us", lat.q(0.9))
	fmt.Printf("  bench.Run latency over %d cells (median of each): p50 %.0fus p90 %.0fus\n", len(lat), lat.q(0.5), lat.q(0.9))
	out.ratio("cpu_us_per_op", 1e6*sum(cpu), "us CPU per sweep", float64(events), "simulated events per sweep")
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	out.set("rss_mb", rss)
	fmt.Printf("  rss_mb = %.3f (perfbench VmHWM)\n", rss)

	out.set("sim.events", float64(events))
	out.set("sim.messages", float64(messages))
	fmt.Printf("  sim.events = %d per sweep, sim.messages = %d per sweep\n", events, messages)
	if !cfg.trace {
		return out, nil
	}

	twall, _ := cellMedians(traced)
	out.ratio("sim.events_per_s", float64(events), "simulated events per sweep", sum(twall), "s per traced sweep")
	plain, slow := out.metrics["ops_per_s"], out.metrics["sim.events_per_s"]
	out.set("bench.trace_overhead_pct", 100*(plain-slow)/plain)
	fmt.Printf("  bench.trace_overhead_pct: untraced %.0f events/s vs traced %.0f events/s\n", plain, slow)
	var mallocs uint64
	for _, r := range traced {
		mallocs += r.mallocs
	}
	out.ratio("sim.allocs_per_event", float64(mallocs), "mallocs", float64(events)*float64(len(traced)), "simulated events")
	byFamily := map[string]float64{}
	for j, c := range cells {
		byFamily[c.family] += twall[j]
	}
	for _, c := range cells {
		if v, ok := byFamily[c.family]; ok {
			out.set("sim.run_s."+c.family, v)
			fmt.Printf("  sim.run_s.%s = %.4f s per sweep\n", c.family, v)
			delete(byFamily, c.family)
		}
	}
	return out, tr.write(filepath.Join(filepath.Dir(cfg.work), "spans", fmt.Sprintf("sim-fig5-seed%d.jsonl", cfg.seed)))
}
