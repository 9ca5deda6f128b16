package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// TestTCPCloseFlushesQueued is the flush-then-close regression test: every
// frame accepted by Send before Close must reach the peer, even when Close
// fires before the flusher has woken up. The old implementation discarded
// the buffered writer's contents on close.
func TestTCPCloseFlushesQueued(t *testing.T) {
	const n = 500
	cli, srv, cleanup := pair(t, TCP{}, "127.0.0.1:0")
	defer cleanup()

	for i := 0; i < n; i++ {
		if err := cli.Send(wire.ReqObjLease{Seq: uint64(i + 1), Object: "o"}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if err := cli.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < n; i++ {
		m, err := recvTimeout(srv, 5*time.Second)
		if err != nil {
			t.Fatalf("Recv %d (after sender close): %v", i, err)
		}
		if got := m.Sequence(); got != uint64(i+1) {
			t.Fatalf("frame %d: seq %d (reordered or lost)", i, got)
		}
	}
}

// TestTCPCloseRacesInlineDrain is the flush-then-close test for replies:
// the client answers each server ping from its read loop (an inline drain)
// while a second goroutine streams through the flusher, and Close fires
// together with the answer to the last ping. Every frame Send accepted must
// reach the server, in per-sender order, however Close interleaves with
// the two drain owners. The server sends exactly as many pings as the
// client reads: a ping left unread at Close would make the kernel reset
// the connection and discard frames in flight, which is TCP's doing, not
// the transport's.
func TestTCPCloseRacesInlineDrain(t *testing.T) {
	for run := 0; run < 20; run++ {
		pings := 20 + 7*run
		cli, srv, cleanup := pair(t, TCP{}, "127.0.0.1:0")
		watchdog := time.AfterFunc(10*time.Second, func() { // a lost frame fails the run instead of hanging it
			cli.Close()
			srv.Close()
		})

		var accepted [2]int // per sender: frames Send accepted (a prefix, by FIFO)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // sender 0: replies, written inline by the read loop
			defer wg.Done()
			for k := 0; k < pings; k++ {
				if _, err := cli.Recv(); err != nil {
					t.Errorf("run %d: ping %d: %v", run, k, err)
					return
				}
				if k == pings-1 {
					go cli.Close()
				}
				if cli.Send(tortureMessage(0, accepted[0])) != nil {
					return
				}
				accepted[0]++
			}
		}()
		go func() { // sender 1: an unsolicited stream through the flusher
			defer wg.Done()
			for accepted[1] < 1<<14 && cli.Send(tortureMessage(1, accepted[1])) == nil {
				accepted[1]++
			}
		}()

		var next [2]int // per sender: frames the server received
		read := make(chan error, 1)
		go func() {
			sent := 1
			if err := srv.Send(wire.Hello{Client: "ping"}); err != nil {
				read <- err
				return
			}
			for {
				m, err := srv.Recv()
				if err != nil {
					read <- nil // EOF once every flushed frame is read
					return
				}
				s, i := int(m.Sequence()>>20), int(m.Sequence()&(1<<20-1))
				if i != next[s] {
					cli.Close() // unblock the senders
					read <- fmt.Errorf("sender %d: got index %d, want %d", s, i, next[s])
					return
				}
				next[s]++
				if s == 0 && sent < pings {
					if err := srv.Send(wire.Hello{Client: "ping"}); err != nil {
						read <- err
						return
					}
					sent++
				}
			}
		}()

		wg.Wait()
		if err := cli.Close(); err != nil { // waits out the racing Close
			t.Fatalf("run %d: Close: %v", run, err)
		}
		if err := <-read; err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if next != accepted {
			t.Fatalf("run %d: delivered %v frames per sender, Send accepted %v", run, next, accepted)
		}
		watchdog.Stop()
		cleanup()
	}
}

// TestTCPInlineSendStickyError pins the inline writer's error contract: a
// reply whose write fails returns that error from Send itself, and the
// error is sticky — every later send, inline or queued, fails with it.
func TestTCPInlineSendStickyError(t *testing.T) {
	cli, srv, cleanup := pair(t, TCP{}, "127.0.0.1:0")
	defer cleanup()
	exchange(t, srv, cli, wire.Hello{Client: "s"}) // the client now owes a reply

	tc := cli.(*tcpConn)
	tc.c.SetWriteDeadline(time.Unix(1, 0)) // every write now fails
	err := cli.Send(wire.Hello{Client: "reply"})
	if err == nil {
		t.Fatal("inline Send on a broken socket succeeded")
	}
	if sticky := tc.sendErr(); sticky != err {
		t.Errorf("Send returned %v, sticky error is %v", err, sticky)
	}
	if err2 := cli.Send(wire.Hello{Client: "again"}); err2 != err {
		t.Errorf("later Send = %v, want the sticky %v", err2, err)
	}
}

// TestTCPInlineAndFlusherDrains interleaves the two drain owners on both
// ends of one loopback pair: each end streams from several goroutines
// (flusher drains) while its read loop answers every frame it receives
// (inline drains). Under -race it checks per-sender FIFO order,
// exactly-once delivery, and that the batch statistics count exactly the
// frames delivered.
func TestTCPInlineAndFlusherDrains(t *testing.T) {
	const (
		streamers = 4   // per end; sender ids 1..streamers
		perSend   = 200 // frames per streamer
		total     = streamers * perSend
	)
	stats := &BatchStats{}
	cli, srv, cleanup := pair(t, TCP{Stats: stats}, "127.0.0.1:0")
	defer cleanup()

	// Each end receives the peer's streamed frames plus one reply per frame
	// it sent: total streamed + total replies, with the replier as sender 0.
	ends := []Conn{cli, srv}
	delivered := make([]int, len(ends))
	var wg sync.WaitGroup
	for e, c := range ends {
		for s := 1; s <= streamers; s++ {
			wg.Add(1)
			go func(c Conn, s int) {
				defer wg.Done()
				for i := 0; i < perSend; i++ {
					if err := c.Send(tortureMessage(s, i)); err != nil {
						t.Errorf("streamer %d frame %d: %v", s, i, err)
						return
					}
				}
			}(c, s)
		}
		wg.Add(1)
		go func(e int, c Conn) {
			defer wg.Done()
			next := make([]int, streamers+1)
			replies := 0
			for n := 0; n < 2*total; n++ {
				m, err := recvTimeout(c, 10*time.Second)
				if err != nil {
					t.Errorf("end %d after %d frames: %v", e, n, err)
					return
				}
				s, i := int(m.Sequence()>>20), int(m.Sequence()&(1<<20-1))
				if s < 0 || s > streamers || i != next[s] {
					t.Errorf("end %d: sender %d index %d, want %d (lost, duplicated or reordered)", e, s, i, next[s])
					return
				}
				next[s]++
				delivered[e]++
				if s != 0 { // answer streamed frames, not answers
					if err := c.Send(tortureMessage(0, replies)); err != nil {
						t.Errorf("end %d reply: %v", e, err)
						return
					}
					replies++
				}
			}
		}(e, c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	cli.Close() // the final drains have recorded their batches
	srv.Close()
	snap := stats.Snapshot()
	if want := int64(delivered[0] + delivered[1]); snap.Frames != want {
		t.Errorf("stats frames = %d, delivered %d", snap.Frames, want)
	}
	if snap.Coalesced != snap.Frames-snap.Flushes {
		t.Errorf("coalesced = %d, want frames-flushes = %d", snap.Coalesced, snap.Frames-snap.Flushes)
	}
}

// TestTCPSendAfterCloseFails pins the post-close contract of the batched
// path.
func TestTCPSendAfterCloseFails(t *testing.T) {
	cli, _, cleanup := pair(t, TCP{}, "127.0.0.1:0")
	defer cleanup()
	cli.Close()
	if err := cli.Send(wire.Hello{Client: "c"}); err == nil {
		t.Fatal("Send after Close succeeded")
	}
}

// TestMemoryLatencyPreservesOrder is the regression test for the delayed-
// delivery reordering bug: with SetLatency active, back-to-back sends used
// independent time.AfterFunc timers that raced into the peer's inbox. The
// documented Conn contract is an ordered stream, latency or not.
func TestMemoryLatencyPreservesOrder(t *testing.T) {
	const n = 200
	net := NewMemory()
	net.SetLatency(time.Millisecond)
	cli, srv, cleanup := pair(t, net, "server:1")
	defer cleanup()

	for i := 0; i < n; i++ {
		if err := cli.Send(wire.ReqObjLease{Seq: uint64(i + 1), Object: "o"}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		m, err := recvTimeout(srv, 5*time.Second)
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if got := m.Sequence(); got != uint64(i+1) {
			t.Fatalf("frame %d arrived with seq %d: delayed delivery reordered", i, got)
		}
	}
}

// tortureMessage builds a mixed-kind message tagged so the receiver can
// recover (sender, index) from it: Seq packs the sender id in the high bits
// and the per-sender index in the low 20.
func tortureMessage(sender, i int) wire.Message {
	seq := uint64(sender)<<20 | uint64(i)
	switch i % 4 {
	case 0:
		return wire.ReqObjLease{Seq: seq, Object: core.ObjectID(fmt.Sprintf("obj-%d", i%7))}
	case 1:
		return wire.VolLease{Seq: seq, Volume: "vol", Expire: time.Unix(1000, 0), Epoch: 3}
	case 2:
		return wire.Invalidate{Seq: seq, Objects: []core.ObjectID{"a", "b"}}
	default:
		return wire.AckInvalidate{Seq: seq, Volume: "vol", Objects: []core.ObjectID{"a"}}
	}
}

// TestBatcherTortureTCP hammers one batched TCP connection with many
// concurrent senders and checks, under -race, that nothing is lost,
// duplicated, or reordered within a sender, and that the batch statistics
// conserve frames (frames == sends, coalesced == frames - flushes).
func TestBatcherTortureTCP(t *testing.T) {
	const (
		senders = 8
		perSend = 300
	)
	stats := &BatchStats{}
	cli, srv, cleanup := pair(t, TCP{Stats: stats}, "127.0.0.1:0")
	defer cleanup()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSend; i++ {
				if err := cli.Send(tortureMessage(s, i)); err != nil {
					t.Errorf("sender %d frame %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}

	next := make([]int, senders) // next expected index per sender
	for got := 0; got < senders*perSend; got++ {
		m, err := recvTimeout(srv, 10*time.Second)
		if err != nil {
			t.Fatalf("after %d frames: %v", got, err)
		}
		seq := m.Sequence()
		s, i := int(seq>>20), int(seq&(1<<20-1))
		if s < 0 || s >= senders {
			t.Fatalf("frame tagged with unknown sender %d", s)
		}
		if i != next[s] {
			t.Fatalf("sender %d: got index %d, want %d (per-sender order broken)", s, i, next[s])
		}
		next[s]++
	}
	wg.Wait()

	// The server side sent nothing, so every client frame has been flushed
	// by now (we received them all). Conservation across batching:
	snap := stats.Snapshot()
	if snap.Frames != senders*perSend {
		t.Errorf("stats frames = %d, want %d", snap.Frames, senders*perSend)
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

// TestMemoryTortureUnderPartitionChurn drives concurrent senders through a
// Memory link with latency while the partition flips open and closed.
// Frames may be dropped (that is the model) but whatever arrives must stay
// in per-sender order, and close must be clean — run under -race this
// exercises the delayed-delivery goroutine against Send, Partition, Heal,
// and Close.
func TestMemoryTortureUnderPartitionChurn(t *testing.T) {
	const (
		senders = 6
		perSend = 150
	)
	net := NewMemory()
	net.SetLatency(100 * time.Microsecond)
	cli, srv, cleanup := pair(t, net, "server:1")
	defer cleanup()

	stopChurn := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stopChurn:
				return
			default:
			}
			if i%2 == 0 {
				net.Partition("anon", "server")
			} else {
				net.Heal("anon", "server")
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSend; i++ {
				// Errors are impossible here (drops are silent) but a
				// failed send after close would be a test bug.
				if err := cli.Send(tortureMessage(s, i)); err != nil {
					t.Errorf("sender %d frame %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(stopChurn)
	churn.Wait()
	net.Heal("anon", "server")

	// Drain whatever made it through; per-sender indexes must be strictly
	// increasing even though gaps (drops) are expected.
	last := make([]int, senders)
	for s := range last {
		last[s] = -1
	}
	received := 0
	for {
		m, err := recvTimeout(srv, 100*time.Millisecond)
		if err != nil {
			break // drained
		}
		received++
		seq := m.Sequence()
		s, i := int(seq>>20), int(seq&(1<<20-1))
		if s < 0 || s >= senders {
			t.Fatalf("frame tagged with unknown sender %d", s)
		}
		if i <= last[s] {
			t.Fatalf("sender %d: index %d after %d (reordered or duplicated)", s, i, last[s])
		}
		last[s] = i
	}
	t.Logf("received %d/%d frames across partition churn", received, senders*perSend)
}

// TestBatchSizeBucketLabel pins the histogram label scheme the metrics
// export uses.
func TestBatchSizeBucketLabel(t *testing.T) {
	cases := map[int]string{0: "1", 1: "2", 2: "4", 10: "1024", 11: "+Inf", 12: "+Inf", -1: "+Inf"}
	for i, want := range cases {
		if got := BatchSizeBucketLabel(i); got != want {
			t.Errorf("BatchSizeBucketLabel(%d) = %q, want %q", i, got, want)
		}
	}
}

// TestBatchStatsNilSafe pins the nil-receiver contract relied on by every
// unwired connection.
func TestBatchStatsNilSafe(t *testing.T) {
	var s *BatchStats
	s.record(3)
	if snap := s.Snapshot(); snap.Flushes != 0 {
		t.Errorf("nil snapshot = %+v", snap)
	}
}
