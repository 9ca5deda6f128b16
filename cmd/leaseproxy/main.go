// Command leaseproxy runs a hierarchical volume-lease cache over TCP: a
// node that holds leases from an upstream leased (or another leaseproxy)
// and grants sub-leases to its own downstream clients, with sub-leases
// capped so they never outlive the upstream leases.
//
// Usage:
//
//	leased -addr :7400 -volume site &
//	leaseproxy -addr :7401 -upstream 127.0.0.1:7400 -volume site
//	leaseproxy -addr :7402 -upstream 127.0.0.1:7401 -volume site   # chainable
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/health"
	"repro/internal/loadtl"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/state"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "leaseproxy:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7401", "downstream listen address")
	upstream := flag.String("upstream", "127.0.0.1:7400", "upstream server or proxy address")
	id := flag.String("id", "leaseproxy", "identity toward the upstream")
	volume := flag.String("volume", "vol", "volume to proxy")
	objLease := flag.Duration("object-lease", 10*time.Minute, "nominal downstream object sub-lease")
	volLease := flag.Duration("volume-lease", 10*time.Second, "nominal downstream volume sub-lease")
	fence := flag.Duration("startup-fence", 30*time.Second,
		"delay upstream acks this long after boot (set to the upstream volume-lease duration)")
	msgTimeout := flag.Duration("msg-timeout", time.Second, "minimum downstream ack wait")
	verbose := flag.Bool("v", false, "verbose logging")
	statsEvery := flag.Duration("stats", 30*time.Second, "stats reporting interval (0 = off)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof and /debug/events on this address (empty = off)")
	traceLen := flag.Int("trace", 256, "protocol events kept for /debug/events (0 = tracing off)")
	spans := flag.Int("spans", 0, "causal write-path spans kept for /debug/spans (0 = span tracing off)")
	spanSample := flag.Int("span-sample", 1, "record 1 in N traces (1 = every trace)")
	loadWindow := flag.Int("load-window", 300, "seconds of per-second load history for /debug/load and lease_load_* (0 = off)")
	flight := flag.Int("flight", 8192, "protocol events retained by the flight recorder (0 = flight recorder off)")
	flightWin := flag.Duration("flight-window", time.Minute, "trailing window a flight dump covers")
	flightDir := flag.String("flight-dir", "flight-dumps", "directory for flight recorder dump files ($FLIGHT_DUMP_DIR overrides)")
	profEvery := flag.Duration("profile-interval", 0, "capture heap/goroutine profiles into the profile ring this often (0 = off)")
	profRing := flag.Int("profile-ring", 24, "profile captures retained for /debug/profile/ring")
	profCPU := flag.Duration("profile-cpu-window", 0, "also capture a CPU profile of this length each cycle (0 = off)")
	dialTimeout := flag.Duration("dial-timeout", 10*time.Second, "TCP dial timeout")
	flag.Parse()

	reg := obs.NewRegistry()
	observer := &obs.Observer{Metrics: reg}
	var ring *obs.RingSink
	var sinks []obs.Sink
	if *traceLen > 0 {
		ring = obs.NewRingSink(*traceLen)
		sinks = append(sinks, ring)
	}
	var load *loadtl.Timeline
	if *loadWindow > 0 {
		load = loadtl.New(*id, *loadWindow, time.Now)
		load.Register(reg)
		sinks = append(sinks, load)
	}
	var flightRec *health.FlightRecorder
	var engine *health.Engine
	if *flight > 0 {
		flightRec = health.NewFlightRecorder(*id, *flight, *flightWin)
		flightRec.AttachTimeline(load)
		sinks = append(sinks, flightRec)
		// The proxy is a client of its upstream and a server to its
		// downstream: the event-stream rules (renewal storm, unreachable
		// growth, epoch bump, ack-wait p99) cover both roles.
		engine = health.NewEngine(health.Options{
			Node:    *id,
			Flight:  flightRec,
			DumpDir: health.DumpDir(*flightDir),
			Logf:    log.Printf,
		}, health.DefaultDetectors(health.DetectorConfig{})...)
		engine.Register(reg)
		sinks = append(sinks, engine)
	}
	if len(sinks) > 0 {
		observer.Tracer = obs.NewTracer(sinks...)
	}
	var spanRec *obs.SpanRecorder
	if *spans > 0 {
		spanRec = obs.NewSpanRecorder(*spans, *spanSample)
		observer.Spans = spanRec
		flightRec.AttachSpans(spanRec)
	}
	acct := cost.New(*id, observer, time.Now)
	acct.Register(reg)
	var prof *cost.Profiler
	if *profEvery > 0 {
		prof = cost.NewProfiler(cost.ProfilerOptions{
			Node:      *id,
			Clock:     clock.Real{},
			Interval:  *profEvery,
			Ring:      *profRing,
			CPUWindow: *profCPU,
			Logf:      log.Printf,
		})
		flightRec.AttachProfiles(prof)
	}
	// Every connection, upstream and downstream, charges its frames to the
	// cost accountant, which also emits them as msg-sent/msg-recv events.
	batch := &transport.BatchStats{}
	netw := transport.TCP{DialTimeout: *dialTimeout, Stats: batch, Tap: acct}
	obs.RegisterBatchStats(reg, *id, batch)

	cfg := proxy.Config{
		ID:             core.ClientID(*id),
		Addr:           *addr,
		Net:            netw,
		Upstream:       *upstream,
		Volume:         core.VolumeID(*volume),
		SubObjectLease: *objLease,
		SubVolumeLease: *volLease,
		StartupFence:   *fence,
		MsgTimeout:     *msgTimeout,
		Obs:            observer,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	px, err := proxy.New(cfg)
	if err != nil {
		return err
	}
	defer px.Close()
	// Lease-state introspection: downstream sub-lease table + upstream
	// cached view, frozen into anomaly dumps and served at /debug/leases.
	stateSrc := px.StateSource()
	state.Register(reg, *id, stateSrc, *volLease)
	flightRec.AttachState(stateSrc)
	engine.Start()
	defer engine.Close()
	prof.Start()
	defer prof.Close()
	log.Printf("leaseproxy: serving volume %q on %s (upstream %s, sub-leases t=%v tv=%v)",
		*volume, px.Addr(), *upstream, *objLease, *volLease)

	if *debugAddr != "" {
		routes := []obs.Route{{Path: "/debug/leases", Handler: state.Handler(stateSrc)}}
		if spanRec != nil {
			routes = append(routes, obs.Route{Path: "/debug/spans", Handler: obs.SpansHandler(spanRec)})
		}
		if load != nil {
			routes = append(routes, obs.Route{Path: "/debug/load", Handler: load.Handler()})
		}
		if engine != nil {
			routes = append(routes,
				obs.Route{Path: "/debug/health", Handler: health.Handler(engine)},
				obs.Route{Path: "/debug/flightrecorder", Handler: health.FlightHandler(engine)})
		}
		routes = append(routes, obs.Route{Path: "/debug/cost", Handler: cost.Handler(acct)})
		if prof != nil {
			routes = append(routes, obs.Route{Path: "/debug/profile/ring", Handler: cost.RingHandler(prof)})
		}
		dbg, err := obs.Serve(*debugAddr, reg, ring, routes...)
		if err != nil {
			return err
		}
		defer dbg.Close()
		log.Printf("leaseproxy: debug server on http://%s", dbg.Addr())
	}

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				log.Printf("leaseproxy: stats %+v", px.Stats())
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("leaseproxy: shutting down")
	return nil
}
