package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/transport"
)

const (
	volume      = core.VolumeID("vol") // leased's default -volume
	objectBytes = 2048
	// setupRepeats is how many times a run sets the system up; setup_s is
	// the median, and the last set-up system is the one measured.
	setupRepeats = 5
	// callers is the number of goroutines issuing operations on the read
	// workloads: one per core of the 2-core reference machine.
	callers = 2
	holders = 4 // write-fanout: passive lease holders invalidated per write
)

// shape fixes one live workload. The numbers are chosen so the workload
// exercises exactly the path its name promises (README.md gives the reasons).
type shape struct {
	objects  int
	objLease time.Duration
	volLease time.Duration
}

var shapes = map[string]shape{
	// Leases outlive the run: after warm-up no message reaches the server.
	"cached-read": {objects: 64, objLease: time.Hour, volLease: time.Hour},
	// One pass over 8192 objects takes far longer than the 100ms object
	// lease, so every read is a ReqObjLease→ObjLease round trip.
	"read-miss": {objects: 8192, objLease: 100 * time.Millisecond, volLease: time.Hour},
	// Every round re-acquires the lease the previous write revoked.
	"write-fanout": {objects: 64, objLease: time.Hour, volLease: time.Hour},
}

// instrumentsOff are the leased flags that turn its default-on observability
// off; the traced read-miss pass compares against them for obs.tax_pct.
var instrumentsOff = []string{"-cost=false", "-trace", "0", "-load-window", "0", "-flight", "0"}

// serverSpans is the span ring leased keeps in the traced pass.
const serverSpans = 65536

// inputs are every value a live workload feeds the system, all drawn from
// the seed before anything is timed.
type inputs struct {
	ids    []core.ObjectID
	data   [][]byte // initial content of ids[i]
	lists  [][]int  // per read caller: indices into ids, walked cyclically
	order  []int    // write-fanout: object visited in each round
	writes [][]byte // write-fanout: payload pool, cycled per write
	dir    string   // -dir tree holding one file per object
}

func genInputs(name string, sh shape, seed int64, dir string) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{dir: filepath.Join(dir, "objects")}
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return nil, err
	}
	payload := func() []byte {
		b := make([]byte, objectBytes)
		rng.Read(b)
		return b
	}
	for i := 0; i < sh.objects; i++ {
		id := fmt.Sprintf("o%05d", i)
		b := payload()
		if err := os.WriteFile(filepath.Join(in.dir, id), b, 0o644); err != nil {
			return nil, err
		}
		in.ids = append(in.ids, core.ObjectID(id))
		in.data = append(in.data, b)
	}
	switch name {
	case "cached-read":
		for c := 0; c < callers; c++ {
			l := make([]int, 1<<14)
			for i := range l {
				l[i] = rng.Intn(sh.objects)
			}
			in.lists = append(in.lists, l)
		}
	case "read-miss":
		for c := 0; c < callers; c++ {
			in.lists = append(in.lists, rng.Perm(sh.objects))
		}
	case "write-fanout":
		in.order = rng.Perm(sh.objects)
		for i := 0; i < 256; i++ {
			in.writes = append(in.writes, payload())
		}
	}
	return in, nil
}

// system is one started leased plus the benchmark's connected clients.
type system struct {
	d       *daemon
	readers []*client.Client // one per read caller; write-fanout: the holders
	writer  *client.Client   // write-fanout only
	batch   *transport.BatchStats
	want    [][]byte // content each object must have now
	rounds  int      // write-fanout rounds completed (indexes order/writes)
	lastVer []core.Version
}

func (s *system) close() {
	for _, c := range s.readers {
		c.Close()
	}
	if s.writer != nil {
		s.writer.Close()
	}
	s.d.stop()
}

// setUp starts leased and brings the workload to steady state: clients
// dialed, volume lease held, caches warm.
func setUp(cfg config, sh shape, in *inputs, dir string, extra ...string) (*system, error) {
	args := append([]string{"-dir", in.dir,
		"-object-lease", sh.objLease.String(), "-volume-lease", sh.volLease.String()}, extra...)
	d, err := startLeased(cfg.leased, dir, args...)
	if err != nil {
		return nil, err
	}
	s := &system{d: d, batch: &transport.BatchStats{}}
	s.want = append([][]byte(nil), in.data...)
	s.lastVer = make([]core.Version, len(in.ids))
	netw := transport.TCP{Stats: s.batch}
	dial := func(id string) (*client.Client, error) {
		return client.Dial(netw, d.addr, client.Config{ID: core.ClientID(id)})
	}
	fail := func(err error) (*system, error) {
		s.close()
		return nil, err
	}
	switch cfg.workload {
	case "cached-read":
		// The callers share one client: one process, one cache.
		c, err := dial("pb-0")
		if err != nil {
			return fail(err)
		}
		s.readers = []*client.Client{c, c}
		for i := range in.ids {
			if err := s.check(c, in, i); err != nil {
				return fail(err)
			}
		}
	case "read-miss":
		// One client per caller: a shared cache would serve one caller's
		// reads from the other's fresh leases.
		for i := 0; i < callers; i++ {
			c, err := dial(fmt.Sprintf("pb-%d", i))
			if err != nil {
				return fail(err)
			}
			s.readers = append(s.readers, c)
		}
		// Warm-up is one full pass per client, in parallel, so every copy is
		// cached: from then on each read renews an expired object lease on a
		// current copy, and the ObjLease reply carries no body.
		errs := make([]error, len(s.readers))
		var wg sync.WaitGroup
		for i, c := range s.readers {
			wg.Add(1)
			go func(i int, c *client.Client) {
				defer wg.Done()
				for _, k := range in.lists[i] {
					if errs[i] = s.check(c, in, k); errs[i] != nil {
						return
					}
				}
			}(i, c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return fail(err)
			}
		}
	case "write-fanout":
		for i := 0; i < holders; i++ {
			c, err := dial(fmt.Sprintf("pb-h%d", i))
			if err != nil {
				return fail(err)
			}
			s.readers = append(s.readers, c)
		}
		if s.writer, err = dial("pb-w"); err != nil {
			return fail(err)
		}
		for r := 0; r < len(in.order); r++ {
			if _, _, _, err := s.round(in, nil, nil); err != nil {
				return fail(err)
			}
		}
	}
	return s, nil
}

// check reads ids[k] through c and verifies the content.
func (s *system) check(c *client.Client, in *inputs, k int) error {
	data, err := c.Read(volume, in.ids[k])
	if err != nil {
		return fmt.Errorf("read %s: %w", in.ids[k], err)
	}
	if !bytes.Equal(data, s.want[k]) {
		return fmt.Errorf("read %s: wrong content", in.ids[k])
	}
	return nil
}

// round is one write-fanout step: every holder reads object o, then the
// writer overwrites it, so the server invalidates all holders and waits for
// their acks. It returns the latencies of the reads and the write and the
// server-side wait the write reported.
func (s *system) round(in *inputs, reads []time.Duration, sb *spanBuf) (_ []time.Duration, write, waited time.Duration, err error) {
	k := in.order[s.rounds%len(in.order)]
	oid := in.ids[k]
	reads = reads[:0]
	for _, h := range s.readers {
		t0 := time.Now()
		data, err := h.Read(volume, oid)
		t1 := time.Now()
		sb.record("client.Read", t0, t1)
		if err != nil {
			return reads, 0, 0, fmt.Errorf("holder read %s: %w", oid, err)
		}
		if !bytes.Equal(data, s.want[k]) {
			return reads, 0, 0, fmt.Errorf("holder read %s: wrong content after round %d", oid, s.rounds)
		}
		reads = append(reads, t1.Sub(t0))
	}
	p := in.writes[s.rounds%len(in.writes)]
	t0 := time.Now()
	ver, waited, err := s.writer.Write(oid, p)
	t1 := time.Now()
	sb.record("client.Write", t0, t1)
	if err != nil {
		return reads, 0, 0, fmt.Errorf("write %s: %w", oid, err)
	}
	if ver <= s.lastVer[k] {
		return reads, 0, 0, fmt.Errorf("write %s: version %d after %d", oid, ver, s.lastVer[k])
	}
	s.lastVer[k] = ver
	s.want[k] = p
	s.rounds++
	return reads, t1.Sub(t0), waited, nil
}

// subLen is the length of one sub-window. A timed window is cut into
// sub-windows and each is measured on its own; see quiet.
const subLen = 500 * time.Millisecond

// lane is one calling goroutine's record, per sub-window.
type lane struct {
	ops []int64
	lat []*samples
}

func newLane(n int) *lane {
	l := &lane{ops: make([]int64, n), lat: make([]*samples, n)}
	for i := range l.lat {
		l.lat[i] = newSamplesCap(subSamples)
	}
	return l
}

// add records n calls completed at t, where the workload's timed call took d.
func (l *lane) add(start, t time.Time, n int64, d time.Duration) {
	i := min(int(t.Sub(start)/subLen), len(l.ops)-1)
	l.ops[i] += n
	l.lat[i].add(d)
}

// sub is what one sub-window measured.
type sub struct {
	secs      float64
	ops       int64
	lat       []*samples // latency of the workload's timed call, per lane
	cpuClient float64
	cpuServer float64
	steal     float64 // CPU seconds the hypervisor took from this machine
}

// window is what one timed window measured on the client side.
type window struct {
	elapsed   time.Duration
	ops       int64 // completed Client.Read + Client.Write calls
	attempted int64
	failed    int64
	writes    int64
	subs      []sub
	reads     dist
	writeLat  dist
	waited    dist // server wait reported by each Write
	overhead  dist // write latency minus its reported server wait
	cpu       float64
	problems  []string
}

// cpuSample is the CPU time of both processes and the machine's steal time
// at one sub-window boundary.
type cpuSample struct {
	at                    time.Time
	client, server, steal float64
}

func (s *system) cpuSample() cpuSample {
	srv, _ := s.d.cpuSeconds()
	return cpuSample{at: time.Now(), client: processCPU(), server: srv, steal: stealSeconds()}
}

// sampleCPU records a cpuSample at every sub-window boundary of
// [start, start+n*subLen] and returns them once the last is taken.
func (s *system) sampleCPU(start time.Time, n int) []cpuSample {
	out := make([]cpuSample, 0, n+1)
	out = append(out, s.cpuSample())
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * subLen)))
		out = append(out, s.cpuSample())
	}
	return out
}

// quiet returns the half of the sub-windows (at least one) in which the
// hypervisor took the least CPU time from this machine. On a shared host,
// stolen time slows whichever sub-windows it lands in; measuring the
// least-disturbed half keeps it out of the comparison between runs.
func quiet(subs []sub) []sub {
	q := append([]sub(nil), subs...)
	sort.SliceStable(q, func(i, j int) bool { return q[i].steal < q[j].steal })
	return q[:max(1, len(q)/2)]
}

// measure runs the workload on s for dur (a whole number of sub-windows). A
// non-nil tracer records a span around every call into the client library,
// each a child of the window's span win.
func measure(cfg config, s *system, in *inputs, dur time.Duration, tr *tracer, win uint64) *window {
	w := &window{}
	nsub := int(dur / subLen)
	if nsub < 1 {
		nsub = 1
	}
	dur = time.Duration(nsub) * subLen
	var lanes []*lane
	cpuDone := make(chan []cpuSample, 1)
	gate := make(chan struct{})
	var start, deadline time.Time // set before the gate opens
	go func() {
		<-gate
		cpuDone <- s.sampleCPU(start, nsub)
	}()

	if cfg.workload == "write-fanout" {
		sb := tr.buf(win)
		ln := newLane(nsub)
		lanes = append(lanes, ln)
		rs, wt, ov := newSamples(), newSamples(), newSamples()
		var reads []time.Duration
		start = time.Now()
		deadline = start.Add(dur)
		close(gate)
		for {
			var lat, waited time.Duration
			var err error
			reads, lat, waited, err = s.round(in, reads, sb)
			w.attempted += int64(len(reads)) + 1
			w.ops += int64(len(reads))
			for _, r := range reads {
				rs.add(r)
			}
			if err != nil {
				// The failing call did not complete; it counts as failed.
				w.failed++
				w.problems = append(w.problems, err.Error())
				break
			}
			t1 := time.Now()
			w.ops++
			w.writes++
			ln.add(start, t1, int64(len(reads))+1, lat)
			wt.add(waited)
			ov.add(lat - waited)
			if t1.After(deadline) {
				break
			}
		}
		w.elapsed = time.Since(start)
		w.reads, w.waited, w.overhead = merge(rs), merge(wt), merge(ov)
	} else {
		type result struct {
			failed  int64
			problem string
		}
		results := make([]result, len(s.readers))
		var wg sync.WaitGroup
		for i := range s.readers {
			c, list, sb, ln := s.readers[i], in.lists[i], tr.buf(win), newLane(nsub)
			lanes = append(lanes, ln)
			res := &results[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-gate
				j := 0
				for {
					k := list[j]
					if j++; j == len(list) {
						j = 0
					}
					oid := in.ids[k]
					t0 := time.Now()
					data, err := c.Read(volume, oid)
					t1 := time.Now()
					sb.record("client.Read", t0, t1)
					if err != nil {
						res.failed++
						res.problem = fmt.Sprintf("read %s: %v", oid, err)
						return
					}
					if !bytes.Equal(data, s.want[k]) {
						res.problem = fmt.Sprintf("read %s: wrong content", oid)
						return
					}
					ln.add(start, t1, 1, t1.Sub(t0))
					if t1.After(deadline) {
						return
					}
				}
			}()
		}
		start = time.Now()
		deadline = start.Add(dur)
		close(gate)
		wg.Wait()
		w.elapsed = time.Since(start)
		for _, r := range results {
			w.failed += r.failed
			if r.problem != "" {
				w.problems = append(w.problems, r.problem)
			}
		}
	}

	cpus := <-cpuDone
	w.cpu = cpus[len(cpus)-1].client - cpus[0].client
	var all []*samples
	for i := 0; i < nsub; i++ {
		sw := sub{secs: cpus[i+1].at.Sub(cpus[i].at).Seconds(),
			cpuClient: cpus[i+1].client - cpus[i].client,
			cpuServer: cpus[i+1].server - cpus[i].server,
			steal:     cpus[i+1].steal - cpus[i].steal}
		var lat []*samples
		for _, ln := range lanes {
			sw.ops += ln.ops[i]
			lat = append(lat, ln.lat[i])
		}
		all = append(all, lat...)
		sw.lat = lat
		w.subs = append(w.subs, sw)
	}
	if cfg.workload == "write-fanout" {
		w.writeLat = merge(all...)
	} else {
		for _, sw := range w.subs {
			w.ops += sw.ops
		}
		w.attempted = w.ops + w.failed
		w.reads = merge(all...)
	}
	return w
}

// processCPU returns this process's user+system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// counters is the client- and server-side state sampled at the edges of a
// timed window.
type counters struct {
	local, server, invals int64
	batch                 transport.BatchSnapshot
	m                     scrape
	costs                 map[string]cost.KindStat
	serverCPU             float64
}

func (s *system) sample(tr *spanBuf) (counters, error) {
	var c counters
	seen := map[*client.Client]bool{}
	for _, r := range s.readers {
		if seen[r] {
			continue
		}
		seen[r] = true
		l, sv, iv := r.Stats()
		c.local += l
		c.server += sv
		c.invals += iv
	}
	c.batch = s.batch.Snapshot()
	var err error
	t0 := time.Now()
	c.m, err = s.d.metrics()
	tr.record("scrape /metrics", t0, time.Now())
	if err != nil {
		return c, err
	}
	if c.m.sum("lease_cost_messages_total") > 0 { // absent under -cost=false
		body, err := s.d.get("/debug/cost")
		if err != nil {
			return c, err
		}
		var dump cost.Dump
		if err := json.Unmarshal(body, &dump); err != nil {
			return c, fmt.Errorf("parse /debug/cost: %w", err)
		}
		c.costs = map[string]cost.KindStat{}
		for _, k := range dump.Kinds {
			c.costs[k.Kind] = k
		}
	}
	c.serverCPU, err = s.d.cpuSeconds()
	return c, err
}

// runLive runs a live workload: setupRepeats set-ups, then one timed window
// (or, traced, the windows of the per-layer pass).
func runLive(cfg config) (*outcome, error) {
	sh := shapes[cfg.workload]
	dir, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := genInputs(cfg.workload, sh, cfg.seed, dir)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	out := newOutcome()
	total := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		var times []float64
		var s *system
		for i := 0; i < setupRepeats; i++ {
			if s != nil {
				s.close()
			}
			t0 := time.Now()
			if s, err = setUp(cfg, sh, in, dir); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			times = append(times, since(t0))
		}
		defer s.close()
		fmt.Printf("setup: %v s each; median taken\n", times)
		out.set("setup_s", median(times))
		if err := timedWindow(cfg, s, in, total, nil, out); err != nil {
			return nil, err
		}
		return out, nil
	}

	// Traced pass: an untraced window and a traced window of equal length on
	// freshly started daemons give the tracing overhead; read-miss adds a
	// window against leased with its instruments off for obs.tax_pct.
	parts := 2
	if cfg.workload == "read-miss" {
		parts = 3
	}
	part := total / time.Duration(parts)
	plain := newOutcome()
	if err := liveWindow(cfg, sh, in, dir, part, nil, plain); err != nil {
		return nil, err
	}
	tr := newTracer()
	if err := liveWindow(cfg, sh, in, dir, part, tr, out, "-spans", fmt.Sprint(serverSpans)); err != nil {
		return nil, err
	}
	plainOps, tracedOps := plain.metrics["ops_per_s"], out.metrics["ops_per_s"]
	out.set("bench.trace_overhead_pct", 100*(plainOps-tracedOps)/plainOps)
	fmt.Printf("  bench.trace_overhead_pct: untraced %.1f ops/s vs traced %.1f ops/s\n", plainOps, tracedOps)
	if cfg.workload == "read-miss" {
		bare := newOutcome()
		if err := liveWindow(cfg, sh, in, dir, part, nil, bare, instrumentsOff...); err != nil {
			return nil, err
		}
		bareOps := bare.metrics["ops_per_s"]
		out.set("obs.tax_pct", 100*(bareOps-plainOps)/bareOps)
		fmt.Printf("  obs.tax_pct: leased defaults %.1f ops/s vs %v %.1f ops/s\n", plainOps, instrumentsOff, bareOps)
		out.absorb(bare)
	}
	out.absorb(plain)
	return out, tr.write(filepath.Join(filepath.Dir(cfg.work), "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)))
}

// liveWindow sets the system up once with extra leased flags and runs one
// timed window on it.
func liveWindow(cfg config, sh shape, in *inputs, dir string, dur time.Duration, tr *tracer, out *outcome, extra ...string) error {
	s, err := setUp(cfg, sh, in, dir, extra...)
	if err != nil {
		return fmt.Errorf("set-up %v: %w", extra, err)
	}
	defer s.close()
	return timedWindow(cfg, s, in, dur, tr, out)
}

// timedWindow measures one window on s and derives every metric from it.
func timedWindow(cfg config, s *system, in *inputs, dur time.Duration, tr *tracer, out *outcome) error {
	// Every span of the window, scrapes included, is a child of one
	// "window" span.
	win := tr.id()
	sb := tr.buf(win)
	winStart := time.Now()
	before, err := s.sample(sb)
	if err != nil {
		return fmt.Errorf("scrape before: %w", err)
	}
	w := measure(cfg, s, in, dur, tr, win)
	after, err := s.sample(sb)
	if err != nil {
		return fmt.Errorf("scrape after: %w", err)
	}
	rss, err := peakRSSMB(s.d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	out.attempted += w.attempted
	out.failed += w.failed
	for _, p := range w.problems {
		out.fail("%s", p)
	}
	ops := float64(w.ops)
	fmt.Printf("window: %s %d ops in %.3fs (%d attempted, %d failed)\n", cfg.workload, w.ops, w.elapsed.Seconds(), w.attempted, w.failed)

	// End-to-end, over the quietest half of the sub-windows.
	q := quiet(w.subs)
	var qOps, qSecs, qCPU, qSteal, steal float64
	var qLat []*samples
	for _, sw := range q {
		qOps += float64(sw.ops)
		qSecs += sw.secs
		qCPU += sw.cpuClient + sw.cpuServer
		qSteal += sw.steal
		qLat = append(qLat, sw.lat...)
	}
	rates, steals := make([]string, len(w.subs)), make([]string, len(w.subs))
	for i, sw := range w.subs {
		steal += sw.steal
		rates[i] = fmt.Sprintf("%.0f", float64(sw.ops)/sw.secs)
		steals[i] = fmt.Sprintf("%.0f", 100*sw.steal/(float64(runtime.NumCPU())*sw.secs))
	}
	fmt.Printf("  sub-window ops/s: %s\n  sub-window steal %%: %s\n", strings.Join(rates, " "), strings.Join(steals, " "))
	fmt.Printf("  steal: %.2f%% of machine CPU over the window, %.2f%% in the %d of %d sub-windows measured\n",
		100*steal/(float64(runtime.NumCPU())*w.elapsed.Seconds()), 100*qSteal/(float64(runtime.NumCPU())*qSecs), len(q), len(w.subs))
	out.ratio("ops_per_s", qOps, "ops", qSecs, "s")
	lat := merge(qLat...)
	out.set("op_p50_us", lat.q(0.5))
	out.set("op_p90_us", lat.q(0.9))
	fmt.Printf("  op latency over %d samples: p50 %.3fus p90 %.3fus p99 %.3fus\n", len(lat), lat.q(0.5), lat.q(0.9), lat.q(0.99))
	out.ratio("cpu_us_per_op", 1e6*qCPU, "us CPU (leased+generator)", qOps, "ops")
	serverCPU := after.serverCPU - before.serverCPU
	out.set("rss_mb", rss)
	fmt.Printf("  rss_mb = %.3f (leased VmHWM)\n", rss)

	// Client layer.
	local, server := after.local-before.local, after.server-before.server
	out.ratio("client.hit_ratio", float64(local), "local reads", float64(local+server), "reads")
	out.set("client.read_p50_us", w.reads.q(0.5))
	out.set("client.read_p90_us", w.reads.q(0.9))
	out.set("client.read_p99_us", w.reads.q(0.99))
	out.set("client.write_p50_us", w.writeLat.q(0.5))
	out.set("client.write_p90_us", w.writeLat.q(0.9))
	out.set("client.write_p99_us", w.writeLat.q(0.99))
	out.set("client.write_overhead_us", w.overhead.q(0.5))
	out.ratio("client.cpu_us_per_op", 1e6*w.cpu, "us CPU (generator)", ops, "ops")
	out.ratio("client.error_ratio", float64(w.failed), "failed", float64(w.attempted), "attempted")
	if w.writes > 0 {
		out.ratio("client.invalidations_per_write", float64(after.invals-before.invals), "invalidations", float64(w.writes), "writes")
	}

	// Wire: per-kind codec time and bytes by direction, from leased's cost
	// accounting (absent when leased runs with -cost=false).
	if before.costs != nil && after.costs != nil {
		codec := func(name, kind string, encode bool) {
			a, b := after.costs[kind], before.costs[kind]
			h0, h1 := b.Decode, a.Decode
			if encode {
				h0, h1 = b.Encode, a.Encode
			}
			if h1 == nil {
				return
			}
			var n0, s0 float64
			if h0 != nil {
				n0, s0 = float64(h0.Count), float64(h0.Count*h0.MeanNs)
			}
			n, sum := float64(h1.Count)-n0, float64(h1.Count*h1.MeanNs)-s0
			if n > 0 {
				out.ratio(name, sum, "ns", n, kind+" frames")
			}
		}
		codec("wire.decode_ns.ReqObjLease", "ReqObjLease", false)
		codec("wire.encode_ns.ObjLease", "ObjLease", true)
		codec("wire.decode_ns.WriteReq", "WriteReq", false)
		codec("wire.encode_ns.Invalidate", "Invalidate", true)
		codec("wire.decode_ns.AckInvalidate", "AckInvalidate", false)
		codec("wire.encode_ns.WriteReply", "WriteReply", true)
		out.ratio("wire.server_sent_bytes_per_op", delta(before.m, after.m, "lease_cost_bytes_total", `dir="sent"`), "bytes sent by leased", ops, "ops")
		out.ratio("wire.server_recv_bytes_per_op", delta(before.m, after.m, "lease_cost_bytes_total", `dir="recv"`), "bytes received by leased", ops, "ops")
		out.ratio("transport.frames_per_op", delta(before.m, after.m, "lease_cost_frames_total"), "frames sent+received by leased", ops, "ops")
	}

	// Transport: flushes on both ends.
	sFlush := delta(before.m, after.m, "lease_batch_flushes_total")
	sFrames := delta(before.m, after.m, "lease_batch_frames_total")
	out.ratio("transport.server_flushes_per_op", sFlush, "leased flushes", ops, "ops")
	out.ratio("transport.server_frames_per_flush", sFrames, "leased frames", sFlush, "flushes")
	cFlush := float64(after.batch.Flushes - before.batch.Flushes)
	cFrames := float64(after.batch.Frames - before.batch.Frames)
	out.ratio("transport.client_flushes_per_op", cFlush, "client flushes", ops, "ops")
	out.ratio("transport.client_frames_per_flush", cFrames, "client frames", cFlush, "flushes")

	// Server and core.
	out.ratio("server.cpu_us_per_op", 1e6*serverCPU, "us CPU (leased)", ops, "ops")
	out.ratio("server.obj_grants_per_op", delta(before.m, after.m, "lease_obj_grants_total"), "object grants", ops, "ops")
	srvWrites := delta(before.m, after.m, "lease_server_writes_total")
	if srvWrites > 0 {
		out.ratio("server.invalidations_per_write", delta(before.m, after.m, "lease_invalidations_sent_total"), "invalidations sent", srvWrites, "writes")
		out.ratio("server.ack_wait_mean_us", 1e6*delta(before.m, after.m, "lease_write_ack_wait_seconds_sum"),
			"us ack wait", delta(before.m, after.m, "lease_write_ack_wait_seconds_count"), "writes")
	}
	out.set("server.ack_wait_p50_us", w.waited.q(0.5))
	out.set("server.ack_wait_p90_us", w.waited.q(0.9))
	out.set("core.state_bytes", after.m.sum("lease_server_state_bytes"))
	out.set("core.object_leases", after.m.sum("lease_server_object_leases"))
	fmt.Printf("  core: state_bytes %.0f, object_leases %.0f at window end\n",
		out.metrics["core.state_bytes"], out.metrics["core.object_leases"])
	if tr != nil && w.writes > 0 {
		if err := serverWriteSpans(s.d, winStart, sb, out); err != nil {
			return err
		}
	}

	sb.keep(win, 0, "window", winStart, time.Now())
	shapeChecks(cfg.workload, out, w)
	return nil
}

// shapeChecks fails the run when the workload did not exercise the path it
// exists to measure.
func shapeChecks(name string, out *outcome, w *window) {
	hit := out.metrics["client.hit_ratio"]
	switch name {
	case "cached-read":
		if hit < 1 {
			out.fail("cached-read: client.hit_ratio %.6f < 1: reads reached the server", hit)
		}
	case "read-miss":
		if hit > 0.01 {
			out.fail("read-miss: client.hit_ratio %.6f > 0.01: reads were served from cache", hit)
		}
	case "write-fanout":
		if inv := out.metrics["client.invalidations_per_write"]; inv != holders {
			out.fail("write-fanout: client.invalidations_per_write %.6f != %d", inv, holders)
		}
		if w.writes == 0 {
			out.fail("write-fanout: no write completed")
		}
	}
}

// serverWriteSpans reads leased's write spans (-spans) recorded since start
// and reports the median root duration, child durations and root self time.
func serverWriteSpans(d *daemon, start time.Time, sb *spanBuf, out *outcome) error {
	t0 := time.Now()
	body, err := d.get("/debug/spans")
	sb.record("scrape /debug/spans", t0, time.Now())
	if err != nil {
		return err
	}
	type jspan struct {
		ID     uint64    `json:"id"`
		Parent uint64    `json:"parent"`
		Kind   string    `json:"kind"`
		Start  time.Time `json:"start"`
		DurNS  int64     `json:"dur_ns"`
	}
	var roots []jspan
	children := map[uint64][]jspan{}
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var sp jspan
		if err := dec.Decode(&sp); err != nil {
			return fmt.Errorf("parse /debug/spans: %w", err)
		}
		if sp.Start.Before(start) {
			continue
		}
		if sp.Kind == "write" {
			roots = append(roots, sp)
		} else if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	var write, serial, fanout, ack, self []float64
	for _, r := range roots {
		kids := children[r.ID]
		if len(kids) == 0 {
			continue // children fell out of the ring
		}
		write = append(write, float64(r.DurNS)/1e3)
		rs, re := r.Start.UnixNano(), r.Start.UnixNano()+r.DurNS
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids {
			a, b := k.Start.UnixNano(), k.Start.UnixNano()+k.DurNS
			switch k.Kind {
			case "serialize-wait":
				serial = append(serial, float64(k.DurNS)/1e3)
			case "fanout":
				fanout = append(fanout, float64(k.DurNS)/1e3)
			case "ack-wait":
				ack = append(ack, float64(k.DurNS)/1e3)
			}
			a, b = max(a, rs), min(b, re)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		// Self time: root duration minus the union of its children.
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, end int64
		for _, x := range ivs {
			if x.a > end {
				covered += x.b - x.a
				end = x.b
			} else if x.b > end {
				covered += x.b - end
				end = x.b
			}
		}
		self = append(self, float64(r.DurNS-covered)/1e3)
	}
	fmt.Printf("  server spans: %d write roots with children since the window began\n", len(write))
	out.set("server.write_us", median(write))
	out.set("server.serialize_wait_us", median(serial))
	out.set("server.fanout_us", median(fanout))
	out.set("server.ack_wait_span_us", median(ack))
	out.set("server.write_self_us", median(self))
	return nil
}

// stealSeconds reads the CPU time the hypervisor has taken from this
// virtual machine, summed over its CPUs (the steal column of /proc/stat).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / clkTck
}
