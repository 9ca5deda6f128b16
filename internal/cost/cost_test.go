package cost

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

func testNow() func() time.Time {
	base := time.Unix(1000, 0)
	return func() time.Time { return base }
}

func TestNilAccountingSafe(t *testing.T) {
	var a *Accounting
	a.Record(true, wire.Hello{Client: "c"}, 10, time.Microsecond)
	if a.Enabled() {
		t.Error("nil accounting reports enabled")
	}
	if got := a.Totals(); got != (Totals{}) {
		t.Errorf("nil Totals = %+v", got)
	}
	if d := a.Snapshot(); d.Node != "" || len(d.Kinds) != 0 {
		t.Errorf("nil Snapshot = %+v", d)
	}
	if fa := a.AccountConn("l", "r"); fa != nil {
		t.Error("nil AccountConn minted an accountant")
	}
	a.Register(obs.NewRegistry()) // must not panic
}

// TestNilAccountingAsTap: a nil *Accounting stored in a transport's Tap is
// a non-nil interface value. Its AccountConn mints nil, so connections on
// both transports stay untapped and traffic flows.
func TestNilAccountingAsTap(t *testing.T) {
	var a *Accounting
	mem := transport.NewMemory()
	mem.Tap = a
	for _, tc := range []struct {
		name string
		netw transport.Network
		addr string
	}{
		{"memory", mem, "srv:1"},
		{"tcp", transport.TCP{Tap: a}, "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := tc.netw.Listen(tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			accepted := make(chan transport.Conn, 1)
			go func() {
				c, err := l.Accept()
				if err == nil {
					accepted <- c
				}
			}()
			cl, err := tc.netw.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			srv := <-accepted
			defer srv.Close()
			if err := cl.Send(wire.Hello{Client: "c"}); err != nil {
				t.Fatal(err)
			}
			if m, err := srv.Recv(); err != nil || m.Kind() != wire.KindHello {
				t.Fatalf("Recv = %v, %v; want Hello", m, err)
			}
			if err := srv.Send(wire.VolLease{Seq: 1, Volume: "v"}); err != nil {
				t.Fatal(err)
			}
			if m, err := cl.Recv(); err != nil || m.Kind() != wire.KindVolLease {
				t.Fatalf("Recv = %v, %v; want VolLease", m, err)
			}
		})
	}
}

// TestFrameEmitsMsgEvents: while the node's observer traces, each charged
// frame is also one EvMsgSent/EvMsgRecv event carrying the node and kind;
// with tracing off the same frames emit nothing. Record never emits.
func TestFrameEmitsMsgEvents(t *testing.T) {
	ring := obs.NewRingSink(16)
	a := New("srv", &obs.Observer{Tracer: obs.NewTracer(ring)}, testNow())
	fa := a.AccountConn("srv:1", "c:0")
	fa.Frame(false, wire.ReqObjLease{Seq: 1, Object: "o"}, 20, 0)
	fa.Frame(true, wire.ObjLease{Seq: 1, Object: "o"}, 40, 0)
	a.Record(true, wire.Hello{Client: "c"}, 10, 0)

	got := ring.Snapshot()
	want := []obs.Event{
		{Type: obs.EvMsgRecv, At: testNow()(), Node: "srv", Msg: wire.KindReqObjLease},
		{Type: obs.EvMsgSent, At: testNow()(), Node: "srv", Msg: wire.KindObjLease},
	}
	if len(got) != len(want) {
		t.Fatalf("emitted %d events, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	quiet := New("srv", &obs.Observer{Metrics: obs.NewRegistry()}, testNow())
	quiet.AccountConn("srv:1", "c:0").Frame(true, wire.ObjLease{Seq: 1, Object: "o"}, 40, 0)
	if quiet.Totals().MessagesSent != 1 {
		t.Error("frame not charged without a tracer")
	}
}

func TestRecordPerKindAndTotals(t *testing.T) {
	a := New("srv", nil, testNow())
	a.Record(true, wire.ObjLease{Seq: 1, Object: "o"}, 40, 100*time.Nanosecond)
	a.Record(true, wire.ObjLease{Seq: 2, Object: "o"}, 60, 200*time.Nanosecond)
	a.Record(false, wire.ReqObjLease{Seq: 1, Object: "o"}, 20, 50*time.Nanosecond)

	d := a.Snapshot()
	if d.Node != "srv" {
		t.Errorf("node = %q", d.Node)
	}
	byKind := map[string]KindStat{}
	for _, k := range d.Kinds {
		byKind[k.Kind] = k
	}
	ol, ok := byKind["ObjLease"]
	if !ok {
		t.Fatalf("no ObjLease stat in %+v", d.Kinds)
	}
	if ol.FramesSent != 2 || ol.BytesSent != 100 || ol.FramesRecv != 0 {
		t.Errorf("ObjLease = %+v", ol)
	}
	if ol.Encode == nil || ol.Encode.Count != 2 || ol.Encode.MaxNs != 200 {
		t.Errorf("ObjLease encode hist = %+v", ol.Encode)
	}
	if ol.Messages() != 2 {
		t.Errorf("ObjLease messages = %d", ol.Messages())
	}
	rl := byKind["ReqObjLease"]
	if rl.FramesRecv != 1 || rl.BytesRecv != 20 {
		t.Errorf("ReqObjLease = %+v", rl)
	}
	want := Totals{MessagesSent: 2, MessagesRecv: 1, BytesSent: 100, BytesRecv: 20}
	if d.Totals != want {
		t.Errorf("totals = %+v, want %+v", d.Totals, want)
	}
	// Kinds with no traffic are omitted.
	if _, ok := byKind["Invalidate"]; ok {
		t.Error("idle kind present in dump")
	}
}

func TestZeroCodecNotObserved(t *testing.T) {
	a := New("srv", nil, testNow())
	a.Record(false, wire.Hello{Client: "c"}, 10, 0)
	d := a.Snapshot()
	if len(d.Kinds) != 1 || d.Kinds[0].Decode != nil {
		t.Errorf("zero codec duration landed in histogram: %+v", d.Kinds)
	}
}

func TestVolumeAccounting(t *testing.T) {
	a := New("srv", nil, testNow())
	a.Record(false, wire.ReqVolLease{Seq: 1, Volume: "vol-a"}, 15, 0)
	a.Record(true, wire.VolLease{Seq: 1, Volume: "vol-a"}, 25, 0)
	a.Record(true, wire.Invalidate{Objects: nil}, 5, 0) // no volume
	a.Record(false, wire.AckInvalidate{Volume: "vol-b"}, 9, 0)

	d := a.Snapshot()
	if len(d.Volumes) != 2 {
		t.Fatalf("volumes = %+v", d.Volumes)
	}
	va := d.Volumes[0]
	if va.Volume != "vol-a" || va.FramesRecv != 1 || va.FramesSent != 1 || va.BytesSent != 25 || va.BytesRecv != 15 {
		t.Errorf("vol-a = %+v", va)
	}
	if d.Volumes[1].Volume != "vol-b" || d.Volumes[1].BytesRecv != 9 {
		t.Errorf("vol-b = %+v", d.Volumes[1])
	}
}

func TestConnAggregatesRedials(t *testing.T) {
	a := New("srv", nil, testNow())
	fa1 := a.AccountConn("srv:1", "client-1:0")
	fa2 := a.AccountConn("srv:1", "client-1:0") // redial, same peer
	if fa1 != fa2 {
		t.Error("redial minted a fresh accountant")
	}
	fa1.Frame(false, wire.Hello{Client: "c"}, 10, 0)
	fa2.Frame(false, wire.ReqObjLease{Seq: 1, Object: "o"}, 20, 0)
	d := a.Snapshot()
	if len(d.Conns) != 1 || d.Conns[0].Remote != "client-1:0" || d.Conns[0].FramesRecv != 2 || d.Conns[0].BytesRecv != 30 {
		t.Errorf("conns = %+v", d.Conns)
	}
}

func TestConnOverflowBounded(t *testing.T) {
	a := New("srv", nil, testNow())
	for i := 0; i < maxTrackedConns+50; i++ {
		fa := a.AccountConn("srv:1", fmt.Sprintf("client-%d:0", i))
		fa.Frame(false, wire.Hello{Client: "c"}, 1, 0)
	}
	a.connMu.Lock()
	n := len(a.conns)
	over, ok := a.conns[overflowConn]
	a.connMu.Unlock()
	if n > maxTrackedConns+1 {
		t.Errorf("conn table grew to %d entries", n)
	}
	if !ok || over.recv.frames.Load() != 50 {
		t.Errorf("overflow bucket missing or wrong: %+v", over)
	}
}

func TestRegisterSeries(t *testing.T) {
	reg := obs.NewRegistry()
	a := New("srv", nil, testNow())
	a.Register(reg)
	a.Record(true, wire.VolLease{Seq: 1, Volume: "v"}, 30, 2*time.Microsecond)
	a.Record(false, wire.ReqVolLease{Seq: 1, Volume: "v"}, 12, time.Microsecond)

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		`lease_cost_frames_total{node="srv",kind="VolLease",dir="sent"} 1`,
		`lease_cost_frame_bytes_total{node="srv",kind="VolLease",dir="sent"} 30`,
		`lease_cost_messages_total{node="srv",dir="sent"} 1`,
		`lease_cost_messages_total{node="srv",dir="recv"} 1`,
		`lease_cost_bytes_total{node="srv",dir="sent"} 30`,
		`lease_cost_bytes_total{node="srv",dir="recv"} 12`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !strings.Contains(body, `lease_cost_encode_ns{node="srv",quantile="0.99"}`) {
		t.Error("exposition missing encode quantile series")
	}
}

func TestHandlerFilters(t *testing.T) {
	a := New("srv", nil, testNow())
	a.Record(true, wire.VolLease{Seq: 1, Volume: "vol-a"}, 30, 0)
	a.Record(true, wire.ObjLease{Seq: 2, Object: "o"}, 40, 0)
	a.Record(false, wire.AckInvalidate{Volume: "vol-b"}, 10, 0)
	h := Handler(a)

	get := func(url string) (*httptest.ResponseRecorder, Dump) {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("GET", url, nil))
		var d Dump
		if rec.Code == 200 {
			if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
				t.Fatalf("bad json from %s: %v", url, err)
			}
		}
		return rec, d
	}

	_, full := get("/debug/cost")
	if len(full.Kinds) != 3 || len(full.Volumes) != 2 {
		t.Errorf("unfiltered dump: %d kinds, %d volumes", len(full.Kinds), len(full.Volumes))
	}

	_, kd := get("/debug/cost?kind=objlease")
	if len(kd.Kinds) != 1 || kd.Kinds[0].Kind != "ObjLease" {
		t.Errorf("kind filter: %+v", kd.Kinds)
	}
	// Totals still cover everything.
	if kd.Totals.MessagesSent != 2 {
		t.Errorf("kind-filtered totals = %+v", kd.Totals)
	}

	_, vd := get("/debug/cost?volume=vol-b")
	if len(vd.Volumes) != 1 || vd.Volumes[0].Volume != "vol-b" {
		t.Errorf("volume filter: %+v", vd.Volumes)
	}
	if vd.Conns != nil {
		t.Error("volume filter kept the conn table")
	}

	rec, _ := get("/debug/cost?kind=NoSuchKind")
	if rec.Code != 400 {
		t.Errorf("unknown kind: status %d, want 400", rec.Code)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h nsHist
	for i := 0; i < 99; i++ {
		h.observe(100 * time.Nanosecond)
	}
	h.observe(100 * time.Microsecond)
	s := h.summary()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	// Power-of-two resolution: p50 within [100, 200]ns.
	if s.P50Ns < 100 || s.P50Ns > 256 {
		t.Errorf("p50 = %dns", s.P50Ns)
	}
	if s.P99Ns < 100 || s.P99Ns > 256 {
		t.Errorf("p99 = %dns (99 of 100 observations are 100ns)", s.P99Ns)
	}
	if s.MaxNs != 100000 {
		t.Errorf("max = %dns", s.MaxNs)
	}
	if s.MeanNs != (99*100+100000)/100 {
		t.Errorf("mean = %dns", s.MeanNs)
	}
}

func TestHistEmptyAndNegative(t *testing.T) {
	var h nsHist
	if s := h.summary(); s.Count != 0 || s.P99Ns != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	h.observe(-time.Second) // clamped, must not panic or corrupt
	if s := h.summary(); s.Count != 1 || s.MaxNs != 0 {
		t.Errorf("negative observation summary = %+v", s)
	}
}

func TestUnknownKindLandsInSlotZero(t *testing.T) {
	a := New("srv", nil, testNow())
	a.Record(true, fakeKindMsg{}, 5, 0)
	d := a.Snapshot()
	// Slot 0 is not exported as a kind, but totals still see the frame.
	if len(d.Kinds) != 0 {
		t.Errorf("unknown kind exported: %+v", d.Kinds)
	}
	if d.Totals.MessagesSent != 1 || d.Totals.BytesSent != 5 {
		t.Errorf("totals = %+v", d.Totals)
	}
}

type fakeKindMsg struct{}

func (fakeKindMsg) Kind() wire.Kind  { return wire.Kind(200) }
func (fakeKindMsg) Sequence() uint64 { return 0 }
