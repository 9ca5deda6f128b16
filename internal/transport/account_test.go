package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

type frameEvent struct {
	local, remote string
	sent          bool
	kind          wire.Kind
	size          int
	codec         time.Duration
}

// recordingAccounter captures every Frame callback for assertions.
type recordingAccounter struct {
	mu     sync.Mutex
	events []frameEvent
	mint   int // AccountConn calls
}

func (r *recordingAccounter) AccountConn(local, remote string) FrameAccountant {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mint++
	return &recordingFA{r: r, local: local, remote: remote}
}

func (r *recordingAccounter) byDir(sent bool) []frameEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []frameEvent
	for _, e := range r.events {
		if e.sent == sent {
			out = append(out, e)
		}
	}
	return out
}

type recordingFA struct {
	r             *recordingAccounter
	local, remote string
}

func (f *recordingFA) Frame(sent bool, m wire.Message, size int, codec time.Duration) {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	f.r.events = append(f.r.events, frameEvent{f.local, f.remote, sent, m.Kind(), size, codec})
}

// TestAccountMemorySizes: a tapped Memory pair charges each frame at its
// wire.Size with zero codec time, to the accountant of the end it crossed.
func TestAccountMemorySizes(t *testing.T) {
	rec := &recordingAccounter{}
	netw := NewMemory()
	netw.Tap = rec

	l, err := netw.Listen("srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cl, err := netw.DialFrom("client-1", "srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := <-accepted
	defer srv.Close()

	msgs := []wire.Message{
		wire.Hello{Client: "client-1"},
		wire.ReqObjLease{Seq: 1, Object: "o", Version: 2},
	}
	for _, m := range msgs {
		if err := cl.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Recv(); err != nil {
			t.Fatal(err)
		}
	}

	sentEv, recvEv := rec.byDir(true), rec.byDir(false)
	if len(sentEv) != len(msgs) || len(recvEv) != len(msgs) {
		t.Fatalf("got %d sent / %d recv events, want %d each", len(sentEv), len(recvEv), len(msgs))
	}
	for i, m := range msgs {
		want := wire.Size(m)
		if sentEv[i].size != want || recvEv[i].size != want {
			t.Errorf("%s: sizes sent=%d recv=%d, want %d", m.Kind(), sentEv[i].size, recvEv[i].size, want)
		}
		if sentEv[i].codec != 0 || recvEv[i].codec != 0 {
			t.Errorf("%s: memory transport charged codec time sent=%v recv=%v, want 0", m.Kind(), sentEv[i].codec, recvEv[i].codec)
		}
		if sentEv[i].kind != m.Kind() || recvEv[i].kind != m.Kind() {
			t.Errorf("kind mismatch: sent=%v recv=%v want %v", sentEv[i].kind, recvEv[i].kind, m.Kind())
		}
	}
	// The dialed and the accepted end were minted once each.
	if rec.mint != 2 {
		t.Errorf("AccountConn minted %d accountants, want 2", rec.mint)
	}
	for _, e := range sentEv {
		if e.local != "client-1:0" || e.remote != "srv:1" {
			t.Errorf("sent %s charged to %s->%s, want client-1:0->srv:1", e.kind, e.local, e.remote)
		}
	}
	for _, e := range recvEv {
		if e.local != "srv:1" || e.remote != "client-1:0" {
			t.Errorf("received %s charged to %s->%s, want srv:1->client-1:0", e.kind, e.local, e.remote)
		}
	}
}

func TestAccountTCPTimesCodec(t *testing.T) {
	rec := &recordingAccounter{}
	netw := TCP{Tap: rec}

	l, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cl, err := netw.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := <-accepted
	defer srv.Close()

	m := wire.WriteReq{Seq: 7, Object: "obj", Data: make([]byte, 1024)}
	if err := cl.Send(m); err != nil {
		t.Fatal(err)
	}
	got, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != wire.KindWriteReq {
		t.Fatalf("received %v, want WriteReq", got.Kind())
	}

	enc, _ := wire.Encode(m)
	sentEv, recvEv := rec.byDir(true), rec.byDir(false)
	if len(sentEv) != 1 || len(recvEv) != 1 {
		t.Fatalf("got %d sent / %d recv events, want 1 each", len(sentEv), len(recvEv))
	}
	if sentEv[0].size != len(enc) || recvEv[0].size != len(enc) {
		t.Errorf("sizes sent=%d recv=%d, want encoded length %d", sentEv[0].size, recvEv[0].size, len(enc))
	}
	// On TCP the codec durations are measured around Encode/Decode proper;
	// they are real (possibly sub-microsecond but clocked) intervals.
	if sentEv[0].codec < 0 || recvEv[0].codec < 0 {
		t.Errorf("negative codec durations: sent=%v recv=%v", sentEv[0].codec, recvEv[0].codec)
	}
}

// nilFAAccounter declines to account every connection.
type nilFAAccounter struct{ mint atomic.Int32 }

func (a *nilFAAccounter) AccountConn(local, remote string) FrameAccountant {
	a.mint.Add(1)
	return nil
}

// TestAccountConnNilAccountantUnwrapped: an accounter that returns a nil
// FrameAccountant leaves the connection untapped on both transports — it
// is asked once per connection end, and traffic still flows.
func TestAccountConnNilAccountantUnwrapped(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(a ConnAccounter) (Network, string)
	}{
		{"memory", func(a ConnAccounter) (Network, string) {
			m := NewMemory()
			m.Tap = a
			return m, "srv:1"
		}},
		{"tcp", func(a ConnAccounter) (Network, string) { return TCP{Tap: a}, "127.0.0.1:0" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			acc := &nilFAAccounter{}
			netw, addr := tc.mk(acc)
			cli, srv, cleanup := pair(t, netw, addr)
			defer cleanup()
			exchange(t, cli, srv, wire.Hello{Client: "c"})
			exchange(t, srv, cli, wire.VolLease{Seq: 1, Volume: "v"})
			if n := acc.mint.Load(); n != 2 {
				t.Errorf("AccountConn asked %d times, want 2 (once per end)", n)
			}
			for _, c := range []Conn{cli, srv} {
				switch c := c.(type) {
				case *tcpConn:
					if c.tap != nil {
						t.Error("tcp conn tapped despite nil FrameAccountant")
					}
				case *memConn:
					if c.tap != nil {
						t.Error("memory conn tapped despite nil FrameAccountant")
					}
				}
			}
		})
	}
}

// TestMemoryTapDialFrom: a tapped Memory network still honors partitions
// on identity-preserving dials, and charges both ends of a DialFrom pair
// to accountants keyed by the declared host.
func TestMemoryTapDialFrom(t *testing.T) {
	rec := &recordingAccounter{}
	mem := NewMemory()
	mem.Tap = rec
	l, err := mem.Listen("srv")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()

	mem.Partition("alice", "srv")
	if _, err := mem.DialFrom("alice", "srv"); err == nil {
		t.Fatal("DialFrom through a partition should fail")
	}
	if rec.mint != 0 {
		t.Errorf("a refused dial minted %d accountants", rec.mint)
	}

	cli, err := mem.DialFrom("bob", "srv")
	if err != nil {
		t.Fatalf("DialFrom: %v", err)
	}
	defer cli.Close()
	srv := <-accepted
	defer srv.Close()

	exchange(t, cli, srv, wire.Hello{Client: "bob"})
	exchange(t, srv, cli, wire.Invalidate{Objects: []core.ObjectID{"o1"}})
	kinds := []wire.Kind{wire.KindHello, wire.KindInvalidate}
	for _, sent := range []bool{true, false} {
		ev := rec.byDir(sent)
		if len(ev) != len(kinds) {
			t.Fatalf("sent=%v: %d frames charged, want %d", sent, len(ev), len(kinds))
		}
		for i, k := range kinds {
			if ev[i].kind != k {
				t.Errorf("sent=%v frame %d: kind %s, want %s", sent, i, ev[i].kind, k)
			}
		}
	}
	// Hello went bob -> srv, Invalidate srv -> bob.
	if e := rec.byDir(true)[0]; e.local != "bob:0" || e.remote != "srv" {
		t.Errorf("Hello charged to %s->%s, want bob:0->srv", e.local, e.remote)
	}
	if e := rec.byDir(true)[1]; e.local != "srv" || e.remote != "bob:0" {
		t.Errorf("Invalidate charged to %s->%s, want srv->bob:0", e.local, e.remote)
	}
}

// TestTCPTapReusesFreelist: a tapped connection encodes into buffers from
// its own freelist, so request/reply traffic recycles a constant handful of
// Bufs. An encode buffer taken from the shared pool instead would still be
// filed into the freelist after the drain, growing it by one per frame.
func TestTCPTapReusesFreelist(t *testing.T) {
	const exchanges = 300
	rec := &recordingAccounter{}
	cli, srv, cleanup := pair(t, TCP{Tap: rec}, "127.0.0.1:0")
	defer cleanup()
	for i := 0; i < exchanges; i++ {
		exchange(t, cli, srv, wire.ReqObjLease{Seq: uint64(i + 1), Object: "o"})
		exchange(t, srv, cli, wire.ObjLease{Seq: uint64(i + 1), Object: "o", Version: 1})
	}
	for _, c := range []Conn{cli, srv} {
		tc := c.(*tcpConn)
		tc.qMu.Lock()
		n := len(tc.free)
		tc.qMu.Unlock()
		if n > 4 {
			t.Errorf("%s: freelist holds %d Bufs after %d exchanges, want at most 4", tc.LocalAddr(), n, exchanges)
		}
	}
	if got := len(rec.byDir(true)); got != 2*exchanges {
		t.Errorf("tap charged %d sent frames, want %d", got, 2*exchanges)
	}
}
