package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// runWireBench measures raw per-connection delivered message throughput on
// loopback TCP — one sender streaming lease renewals, one receiver draining
// pooled frames — and reports how many frames each kernel flush carried.
// This is the transport-level view of the batcher: the RPC-shaped main
// workload cannot show coalescing, because every operation waits out a
// round trip and its reply is written inline (see DESIGN.md §11.1).
func runWireBench(out io.Writer, d time.Duration) error {
	msg := wire.VolLease{Seq: 43, Volume: "bench", Expire: time.Now().Add(time.Minute), Epoch: 5}
	stats := &transport.BatchStats{}
	batched, err := wireThroughput(transport.TCP{Stats: stats}, msg, d)
	if err != nil {
		return fmt.Errorf("wire-bench: %w", err)
	}
	snap := stats.Snapshot()
	fmt.Fprintf(out, "wire: one connection, %d-byte renew frames, %v\n",
		wire.Size(msg)+4, d)
	fmt.Fprintf(out, "wire: batched %10.0f msgs/s (%0.1f frames/flush)\n",
		batched, float64(snap.Frames)/float64(max(snap.Flushes, 1)))
	return nil
}

// wireThroughput pumps m through a fresh loopback pair for roughly d and
// returns delivered messages per second. The receiver drains raw pooled
// frames without decoding, so the number measures the transport itself.
func wireThroughput(n transport.Network, m wire.Message, d time.Duration) (float64, error) {
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	var (
		srvConn transport.Conn
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		srvConn, _ = l.Accept()
	}()
	cli, err := n.Dial(l.Addr())
	if err != nil {
		return 0, err
	}
	defer cli.Close()
	wg.Wait()
	if srvConn == nil {
		return 0, fmt.Errorf("accept failed")
	}
	defer srvConn.Close()
	fr, ok := srvConn.(transport.FrameBufReceiver)
	if !ok {
		return 0, fmt.Errorf("%T does not expose RecvFrameBuf", srvConn)
	}

	var delivered atomic.Int64
	go func() {
		for {
			buf, err := fr.RecvFrameBuf()
			if err != nil {
				return
			}
			buf.Release()
			delivered.Add(1)
		}
	}()

	sendErr := make(chan error, 1)
	stop := make(chan struct{})
	go func() {
		for {
			// Check the clock in coarse strides: a time.Now per send would
			// throttle the very throughput under measurement.
			for i := 0; i < 1024; i++ {
				if err := cli.Send(m); err != nil {
					sendErr <- err
					return
				}
			}
			select {
			case <-stop:
				sendErr <- nil
				return
			default:
			}
		}
	}()

	start := time.Now()
	timer := time.NewTimer(d)
	select {
	case <-timer.C:
	case err := <-sendErr:
		timer.Stop()
		if err != nil {
			return 0, err
		}
	}
	close(stop)
	if err := <-sendErr; err != nil {
		return 0, err
	}
	got := delivered.Load()
	elapsed := time.Since(start)
	return float64(got) / elapsed.Seconds(), nil
}
