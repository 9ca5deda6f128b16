package server_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

// rawConn dials the test server without the client library, so tests can
// speak the wire protocol directly — including incorrectly.
func rawConn(t *testing.T, env *testEnv) transport.Conn {
	t.Helper()
	conn, err := env.net.DialFrom("raw", "srv:1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// recvUntilClosed receives and discards until conn's Recv fails.
func recvUntilClosed(t *testing.T, conn transport.Conn) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("connection still open")
	}
}

func recvOrTimeout(t *testing.T, conn transport.Conn) wire.Message {
	t.Helper()
	type res struct {
		m   wire.Message
		err error
	}
	ch := make(chan res, 1)
	go func() {
		m, err := conn.Recv()
		ch <- res{m, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("Recv: %v", r.err)
		}
		return r.m
	case <-time.After(5 * time.Second):
		t.Fatal("no reply")
		return nil
	}
}

func TestProtocolRejectsMissingHello(t *testing.T) {
	env := startServer(t, tableCfg(), nil)
	conn := rawConn(t, env)
	if err := conn.Send(wire.ReqObjLease{Seq: 1, Object: "a", Version: core.NoVersion}); err != nil {
		t.Fatal(err)
	}
	m := recvOrTimeout(t, conn)
	e, ok := m.(wire.Error)
	if !ok || e.Code != wire.ErrCodeBadRequest {
		t.Fatalf("reply = %#v, want Error{BadRequest}", m)
	}
}

func TestProtocolRejectsEmptyHello(t *testing.T) {
	env := startServer(t, tableCfg(), nil)
	conn := rawConn(t, env)
	if err := conn.Send(wire.Hello{}); err != nil {
		t.Fatal(err)
	}
	m := recvOrTimeout(t, conn)
	if e, ok := m.(wire.Error); !ok || e.Code != wire.ErrCodeBadRequest {
		t.Fatalf("reply = %#v", m)
	}
}

func TestProtocolDuplicateHelloDropsConnection(t *testing.T) {
	env := startServer(t, tableCfg(), nil)
	conn := rawConn(t, env)
	if err := conn.Send(wire.Hello{Client: "raw"}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(wire.Hello{Client: "raw-again"}); err != nil {
		t.Fatal(err)
	}
	// The server terminates the connection; Recv eventually fails.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := conn.Recv(); err != nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("connection survived duplicate Hello")
		}
	}
}

func TestProtocolUnexpectedRenewObjLeases(t *testing.T) {
	env := startServer(t, tableCfg(), nil)
	conn := rawConn(t, env)
	if err := conn.Send(wire.Hello{Client: "raw"}); err != nil {
		t.Fatal(err)
	}
	// RenewObjLeases without a preceding MustRenewAll conversation.
	if err := conn.Send(wire.RenewObjLeases{Seq: 9, Volume: "vol"}); err != nil {
		t.Fatal(err)
	}
	m := recvOrTimeout(t, conn)
	if _, ok := m.(wire.Error); !ok {
		t.Fatalf("reply = %#v, want Error", m)
	}
}

func TestProtocolStaleAckIsIgnored(t *testing.T) {
	env := startServer(t, tableCfg(), nil)
	conn := rawConn(t, env)
	if err := conn.Send(wire.Hello{Client: "raw"}); err != nil {
		t.Fatal(err)
	}
	// An ack for a conversation that never existed must not wedge or kill
	// the connection.
	if err := conn.Send(wire.AckInvalidate{Seq: 42, Volume: "vol"}); err != nil {
		t.Fatal(err)
	}
	// The connection still works.
	if err := conn.Send(wire.ReqObjLease{Seq: 1, Object: "a", Version: core.NoVersion}); err != nil {
		t.Fatal(err)
	}
	m := recvOrTimeout(t, conn)
	lease, ok := m.(wire.ObjLease)
	if !ok || lease.Object != "a" || !lease.HasData {
		t.Fatalf("reply = %#v, want ObjLease with data", m)
	}
}

func TestProtocolVolumeConversationByHand(t *testing.T) {
	// Drive the inactive-client conversation manually: read, let the volume
	// lapse, have the server queue an invalidation, then renew and walk the
	// InvalRenew/Ack/VolLease rounds explicitly.
	table := tableCfg()
	table.Mode = core.ModeDelayed
	env := startServer(t, table, nil)
	conn := rawConn(t, env)
	if err := conn.Send(wire.Hello{Client: "raw"}); err != nil {
		t.Fatal(err)
	}

	// Acquire volume + object lease.
	if err := conn.Send(wire.ReqVolLease{Seq: 1, Volume: "vol", Epoch: 0}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOrTimeout(t, conn).(wire.VolLease); !ok {
		t.Fatal("no volume lease")
	}
	if err := conn.Send(wire.ReqObjLease{Seq: 2, Object: "a", Version: core.NoVersion}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOrTimeout(t, conn).(wire.ObjLease); !ok {
		t.Fatal("no object lease")
	}

	// Volume lapses (400ms); the write queues a pending invalidation.
	time.Sleep(500 * time.Millisecond)
	if _, _, err := env.srv.Write("a", []byte("v2")); err != nil {
		t.Fatal(err)
	}

	// Renewal: the server must reply InvalRenew first.
	if err := conn.Send(wire.ReqVolLease{Seq: 3, Volume: "vol", Epoch: 0}); err != nil {
		t.Fatal(err)
	}
	ir, ok := recvOrTimeout(t, conn).(wire.InvalRenew)
	if !ok || len(ir.Invalidate) != 1 || ir.Invalidate[0] != "a" {
		t.Fatalf("reply = %#v, want InvalRenew{[a]}", ir)
	}
	// Ack completes the conversation.
	if err := conn.Send(wire.AckInvalidate{Seq: 3, Volume: "vol", Objects: ir.Invalidate}); err != nil {
		t.Fatal(err)
	}
	vl, ok := recvOrTimeout(t, conn).(wire.VolLease)
	if !ok || vl.Volume != "vol" {
		t.Fatalf("reply = %#v, want VolLease", vl)
	}
}

func TestProtocolErrorCodes(t *testing.T) {
	env := startServer(t, tableCfg(), nil)
	conn := rawConn(t, env)
	if err := conn.Send(wire.Hello{Client: "raw"}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		req  wire.Message
		code wire.ErrorCode
	}{
		{wire.ReqObjLease{Seq: 1, Object: "ghost", Version: core.NoVersion}, wire.ErrCodeNoSuchObject},
		{wire.ReqVolLease{Seq: 2, Volume: "ghost", Epoch: 0}, wire.ErrCodeNoSuchVolume},
		{wire.WriteReq{Seq: 3, Object: "ghost", Data: []byte("x")}, wire.ErrCodeNoSuchObject},
	}
	for _, c := range cases {
		if err := conn.Send(c.req); err != nil {
			t.Fatal(err)
		}
		m := recvOrTimeout(t, conn)
		e, ok := m.(wire.Error)
		if !ok || e.Code != c.code {
			t.Errorf("%s -> %#v, want Error{code %d}", c.req.Kind(), m, c.code)
		}
		if e.Seq != c.req.Sequence() {
			t.Errorf("%s error seq = %d, want %d", c.req.Kind(), e.Seq, c.req.Sequence())
		}
	}
}

func TestProtocolWriteFencedErrorCode(t *testing.T) {
	env := startServer(t, tableCfg(), nil)
	conn := rawConn(t, env)
	if err := conn.Send(wire.Hello{Client: "raw"}); err != nil {
		t.Fatal(err)
	}
	// A round trip proves the server registered this connection's Hello.
	// Otherwise Recover could run first, and the late registration would
	// close the second connection below as a replaced one.
	if err := conn.Send(wire.ReqObjLease{Seq: 1, Object: "ghost", Version: core.NoVersion}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOrTimeout(t, conn).(wire.Error); !ok {
		t.Fatal("no reply to the registration round trip")
	}
	env.srv.Recover()
	// Recover killed our connection; wait until it is gone, then reconnect.
	recvUntilClosed(t, conn)
	conn2 := rawConn(t, env)
	if err := conn2.Send(wire.Hello{Client: "raw"}); err != nil {
		t.Fatal(err)
	}
	if err := conn2.Send(wire.WriteReq{Seq: 1, Object: "a", Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	m := recvOrTimeout(t, conn2)
	if e, ok := m.(wire.Error); !ok || e.Code != wire.ErrCodeWriteFenced {
		t.Fatalf("reply = %#v, want Error{WriteFenced}", m)
	}
}

// TestProtocolNoVolumeGrantDuringPendingInvalidation pins the fix for a
// subtle hole: if a server granted a fresh volume lease to a client whose
// invalidation acknowledgment was still outstanding, the pending write's
// wait bound (computed from the client's OLD leases) could elapse while the
// new lease was still valid — the write would complete although the client
// legitimately believed it could keep reading. The grant must therefore be
// deferred until the client acks or the write times it out (making the
// renewal a reconnection).
func TestProtocolNoVolumeGrantDuringPendingInvalidation(t *testing.T) {
	env := startServer(t, tableCfg(), nil)
	conn := rawConn(t, env)
	if err := conn.Send(wire.Hello{Client: "raw"}); err != nil {
		t.Fatal(err)
	}
	// Acquire volume + object leases.
	if err := conn.Send(wire.ReqVolLease{Seq: 1, Volume: "vol", Epoch: 0}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOrTimeout(t, conn).(wire.VolLease); !ok {
		t.Fatal("no volume lease")
	}
	if err := conn.Send(wire.ReqObjLease{Seq: 2, Object: "a", Version: core.NoVersion}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOrTimeout(t, conn).(wire.ObjLease); !ok {
		t.Fatal("no object lease")
	}

	// Start a write; the raw client will receive the INVALIDATE but NOT ack.
	writeDone := make(chan struct{})
	go func() {
		defer close(writeDone)
		if _, _, err := env.srv.Write("a", []byte("v2")); err != nil {
			t.Errorf("Write: %v", err)
		}
	}()
	if _, ok := recvOrTimeout(t, conn).(wire.Invalidate); !ok {
		t.Fatal("no invalidation")
	}

	// Renewal attempt mid-write: the server must NOT grant yet. The write
	// resolves at the volume-lease bound (~400ms), marks us unreachable,
	// and only then answers — with MUST_RENEW_ALL, not a grant.
	if err := conn.Send(wire.ReqVolLease{Seq: 3, Volume: "vol", Epoch: 0}); err != nil {
		t.Fatal(err)
	}
	reply := recvOrTimeout(t, conn)
	select {
	case <-writeDone:
	default:
		t.Errorf("volume renewal answered (%T) while the write was still pending", reply)
	}
	if _, ok := reply.(wire.MustRenewAll); !ok {
		t.Fatalf("reply = %#v, want MustRenewAll (client was timed out)", reply)
	}
}

// TestProtocolVolumeGrantAfterPromptAck is the happy-path counterpart:
// acking promptly lets a concurrent renewal proceed as a normal grant.
func TestProtocolVolumeGrantAfterPromptAck(t *testing.T) {
	env := startServer(t, tableCfg(), nil)
	conn := rawConn(t, env)
	if err := conn.Send(wire.Hello{Client: "raw"}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(wire.ReqVolLease{Seq: 1, Volume: "vol", Epoch: 0}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOrTimeout(t, conn).(wire.VolLease); !ok {
		t.Fatal("no volume lease")
	}
	if err := conn.Send(wire.ReqObjLease{Seq: 2, Object: "a", Version: core.NoVersion}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOrTimeout(t, conn).(wire.ObjLease); !ok {
		t.Fatal("no object lease")
	}
	go env.srv.Write("a", []byte("v2"))
	if _, ok := recvOrTimeout(t, conn).(wire.Invalidate); !ok {
		t.Fatal("no invalidation")
	}
	// Renewal races the ack; ack promptly.
	if err := conn.Send(wire.ReqVolLease{Seq: 3, Volume: "vol", Epoch: 0}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(wire.AckInvalidate{Objects: []core.ObjectID{"a"}}); err != nil {
		t.Fatal(err)
	}
	if vl, ok := recvOrTimeout(t, conn).(wire.VolLease); !ok || vl.Seq != 3 {
		t.Fatalf("reply = %#v, want VolLease{seq 3}", vl)
	}
}
