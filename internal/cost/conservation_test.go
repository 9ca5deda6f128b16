package cost_test

// The accounting conservation test (run under -race by `make race` and CI):
// a real server and concurrent clients over the in-memory transport and
// over batched TCP, with the consistency auditor attached and every
// connection tapped by one cost accountant. After the run, the books must
// balance: the tap sees every frame the transport delivers — both ends of
// every connection are tapped, so per kind, frames sent equal frames
// received — the per-kind and per-connection tallies sum exactly to the
// totals, the per-volume tallies never exceed them, and the load timeline
// counted exactly the frames the tap emitted as msg events.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/loadtl"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/wire"
)

func TestAccountingConservation(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		runConservation(t, func(tap transport.ConnAccounter) (transport.Network, string, *transport.BatchStats) {
			mem := transport.NewMemory()
			mem.Tap = tap
			return mem, "srv:1", nil
		})
	})
	// The same books must balance when every frame crosses the batched TCP
	// path: coalescing frames into shared kernel flushes must not create,
	// lose, or double-count a single frame or byte, and the batcher's own
	// conservation (frames = flushes + coalesced) must agree with the cost
	// layer's sent-frame total.
	t.Run("tcp-batched", func(t *testing.T) {
		stats := &transport.BatchStats{}
		runConservation(t, func(tap transport.ConnAccounter) (transport.Network, string, *transport.BatchStats) {
			return transport.TCP{Stats: stats, Tap: tap}, "127.0.0.1:0", stats
		})
	})
}

func runConservation(t *testing.T, newNet func(tap transport.ConnAccounter) (transport.Network, string, *transport.BatchStats)) {
	const (
		nClients = 6
		nOps     = 120
	)

	reg := obs.NewRegistry()
	observer := &obs.Observer{Metrics: reg}
	aud := audit.New(audit.LiveConfig(core.Config{
		Mode:        core.ModeEager,
		ObjectLease: 10 * time.Second,
		VolumeLease: 10 * time.Second,
	}, false))
	// The load timeline counts the tap's msg events; its window covers the
	// whole run.
	tl := loadtl.New("srv", 600, time.Now)
	observer.Tracer = obs.NewTracer(aud, tl)

	acct := cost.New("srv", observer, time.Now)
	acct.Register(reg)

	// Server and clients share the network, so both ends of every
	// connection charge the one accountant.
	netw, listenAddr, batch := newNet(acct)

	srv, err := server.New(server.Config{
		Name:       "srv",
		Addr:       listenAddr,
		Net:        netw,
		Table:      core.Config{Mode: core.ModeEager, ObjectLease: 10 * time.Second, VolumeLease: 10 * time.Second},
		MsgTimeout: 100 * time.Millisecond,
		Obs:        observer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.AddVolume("vol"); err != nil {
		t.Fatal(err)
	}
	// Shared objects are read by everyone and written via the server (the
	// invalidate/ack fan-out); each client additionally writes a private
	// object nobody else caches. Concurrent client writes to SHARED objects
	// would interlock: each conn's server goroutine blocks in its write
	// waiting for acks that only other (equally blocked) conn goroutines
	// could read — the same reason the chaos tests drive churn with
	// srv.Write.
	shared := []core.ObjectID{"a", "b", "c", "d"}
	for _, o := range shared {
		if err := srv.AddObject("vol", o, []byte("init")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nClients; i++ {
		oid := core.ObjectID(fmt.Sprintf("own-%d", i))
		if err := srv.AddObject("vol", oid, []byte("init")); err != nil {
			t.Fatal(err)
		}
	}

	var writerWG sync.WaitGroup
	stop := make(chan struct{})
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			obj := shared[i%len(shared)]
			if _, _, err := srv.Write(obj, []byte(fmt.Sprintf("srv-%d", i))); err != nil {
				t.Errorf("server write %d: %v", i, err)
				return
			}
		}
	}()
	// Clients stay connected until the server writer stops: closing one
	// mid-churn would leave its 10s leases behind, and every subsequent
	// server write would burn MsgTimeout on the unreachable holder.
	clients := make([]*client.Client, nClients)
	for i := range clients {
		cl, err := client.Dial(netw, srv.Addr(), client.Config{
			ID:      core.ClientID(fmt.Sprintf("client-%d", i)),
			Skew:    10 * time.Millisecond,
			Timeout: 30 * time.Second,
			Obs:     observer,
		})
		if err != nil {
			t.Fatalf("client %d: dial: %v", i, err)
		}
		clients[i] = cl
	}
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := clients[i]
			own := core.ObjectID(fmt.Sprintf("own-%d", i))
			for op := 0; op < nOps; op++ {
				if op%10 == 9 {
					if _, _, err := cl.Write(own, []byte(fmt.Sprintf("w%d-%d", i, op))); err != nil {
						t.Errorf("client %d: write: %v", i, err)
						return
					}
					continue
				}
				obj := shared[(i+op)%len(shared)]
				if _, err := cl.Read("vol", obj); err != nil {
					t.Errorf("client %d: read: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	writerWG.Wait()
	// Quiesce: disconnect the clients, then close the server so no push
	// traffic is mid-flight when we snapshot the books.
	for _, cl := range clients {
		cl.Close()
	}
	srv.Close()
	// A sender charges a frame once its Send returns, which can be after
	// the peer has received it and the run has moved on (the server writes
	// a WriteReply from a goroutine of its own). Wait for those last
	// charges, and the msg events they emit, to land.
	d, tlMsgs, tlKinds := settle(acct, tl)
	if d.Totals.MessagesSent == 0 || d.Totals.MessagesRecv == 0 {
		t.Fatalf("no traffic accounted: %+v", d.Totals)
	}

	// (1) Per-kind tallies sum exactly to the totals.
	var kindSum cost.Totals
	for _, k := range d.Kinds {
		kindSum.MessagesSent += k.FramesSent
		kindSum.MessagesRecv += k.FramesRecv
		kindSum.BytesSent += k.BytesSent
		kindSum.BytesRecv += k.BytesRecv
	}
	if kindSum != d.Totals {
		t.Errorf("per-kind sum %+v != totals %+v", kindSum, d.Totals)
	}

	// (2) Per-connection tallies sum exactly to the totals.
	var connSum cost.Totals
	for _, c := range d.Conns {
		connSum.MessagesSent += c.FramesSent
		connSum.MessagesRecv += c.FramesRecv
		connSum.BytesSent += c.BytesSent
		connSum.BytesRecv += c.BytesRecv
	}
	if connSum != d.Totals {
		t.Errorf("per-conn sum %+v != totals %+v", connSum, d.Totals)
	}

	// (3) Per-volume tallies never exceed the totals (only volume-carrying
	// kinds are attributed).
	var volSum cost.Totals
	for _, v := range d.Volumes {
		volSum.MessagesSent += v.FramesSent
		volSum.MessagesRecv += v.FramesRecv
		volSum.BytesSent += v.BytesSent
		volSum.BytesRecv += v.BytesRecv
	}
	if volSum.MessagesSent > d.Totals.MessagesSent || volSum.MessagesRecv > d.Totals.MessagesRecv ||
		volSum.BytesSent > d.Totals.BytesSent || volSum.BytesRecv > d.Totals.BytesRecv {
		t.Errorf("per-volume sum %+v exceeds totals %+v", volSum, d.Totals)
	}
	if volSum.MessagesSent == 0 && volSum.MessagesRecv == 0 {
		t.Error("no volume-attributed traffic despite volume-lease conversations")
	}

	// (4) The tap sees every frame the transport delivers: both ends of
	// every connection are tapped and the run is quiesced, so each frame
	// sent was received, kind by kind, with the same bytes.
	for _, k := range d.Kinds {
		if k.FramesSent != k.FramesRecv || k.BytesSent != k.BytesRecv {
			t.Errorf("%s: sent %d frames/%d bytes, received %d/%d", k.Kind, k.FramesSent, k.BytesSent, k.FramesRecv, k.BytesRecv)
		}
	}

	// (4b) The load timeline counted the tap's msg events: the same message
	// total, kind by kind.
	if want := d.Totals.MessagesSent + d.Totals.MessagesRecv; tlMsgs != want {
		t.Errorf("load timeline counted %d msgs, tap charged %d frames", tlMsgs, want)
	}
	for _, k := range d.Kinds {
		if got := tlKinds[k.Kind]; got != k.FramesSent+k.FramesRecv {
			t.Errorf("%s: load timeline counted %d msgs, tap charged %d frames", k.Kind, got, k.FramesSent+k.FramesRecv)
		}
	}

	// (5) Byte tallies are consistent with per-kind frame counts: every
	// frame carried at least the 1-byte kind.
	for _, k := range d.Kinds {
		if k.BytesSent < k.FramesSent || k.BytesRecv < k.FramesRecv {
			t.Errorf("%s: fewer bytes than frames: %+v", k.Kind, k)
		}
	}

	// (6) On the batched TCP path the batcher's own accounting must agree
	// with the cost layer: every frame the cost wrapper saw leave was
	// drained in some flush (frames conserve across coalescing), and the
	// size histogram covers every flush.
	if batch != nil {
		snap := batch.Snapshot()
		if snap.Frames != d.Totals.MessagesSent {
			t.Errorf("batcher drained %d frames, cost accounted %d sent", snap.Frames, d.Totals.MessagesSent)
		}
		if snap.Coalesced != snap.Frames-snap.Flushes {
			t.Errorf("coalesced = %d, want frames-flushes = %d", snap.Coalesced, snap.Frames-snap.Flushes)
		}
		var bucketSum int64
		for _, c := range snap.SizeCounts {
			bucketSum += c
		}
		if bucketSum != snap.Flushes {
			t.Errorf("size histogram sums to %d flushes, want %d", bucketSum, snap.Flushes)
		}
	}

	// The auditor saw the run and found nothing.
	if n := aud.Violations(); len(n) != 0 {
		t.Errorf("audit violations: %v", n)
	}
}

// settle snapshots the books until every frame sent has been received and
// the load timeline has counted every charged frame, or 5s pass; it returns
// the last snapshot and the timeline's total and per-kind message counts.
func settle(acct *cost.Accounting, tl *loadtl.Timeline) (cost.Dump, int64, map[string]int64) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		d := acct.Snapshot()
		var msgs int64
		kinds := map[string]int64{}
		for _, sec := range tl.Snapshot() {
			msgs += sec.Msgs
			for k, n := range sec.ByKind {
				kinds[k] += n
			}
		}
		done := msgs == d.Totals.MessagesSent+d.Totals.MessagesRecv
		for _, k := range d.Kinds {
			done = done && k.FramesSent == k.FramesRecv
		}
		if done || time.Now().After(deadline) {
			return d, msgs, kinds
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConservationKindsAreProtocolKinds pins that the dump only ever
// reports real wire kinds — the bridge between live accounting and the
// simulator's MsgClass mapping in `figures -cost` depends on it.
func TestConservationKindsAreProtocolKinds(t *testing.T) {
	acct := cost.New("n", nil, time.Now)
	fa := acct.AccountConn("a", "b")
	fa.Frame(true, wire.Hello{Client: "c"}, 8, 0)
	for _, k := range acct.Snapshot().Kinds {
		found := false
		for i := 1; i < wire.NumKinds; i++ {
			if wire.Kind(i).String() == k.Kind {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("dump reports non-protocol kind %q", k.Kind)
		}
	}
}
