package server_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/wire"
)

// slowReplyNet wraps the server's network so every WriteReply send takes a
// while and is counted once it has returned.
type slowReplyNet struct {
	transport.Network
	replies atomic.Int32
}

func (n *slowReplyNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return slowReplyListener{l, n}, nil
}

type slowReplyListener struct {
	transport.Listener
	n *slowReplyNet
}

func (l slowReplyListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return slowReplyConn{c, l.n}, nil
}

type slowReplyConn struct {
	transport.Conn
	n *slowReplyNet
}

func (c slowReplyConn) Send(m wire.Message) error {
	if _, ok := m.(wire.WriteReply); ok {
		defer c.n.replies.Add(1)
		time.Sleep(100 * time.Millisecond)
	}
	return c.Conn.Send(m)
}

// TestCloseWaitsForWriteHandler closes the server while a client-requested
// write waits for an acknowledgment that never comes. Close must not return
// before the write's handler goroutine has finished sending its WriteReply.
func TestCloseWaitsForWriteHandler(t *testing.T) {
	var slow *slowReplyNet
	env := startServer(t, tableCfg(), func(cfg *server.Config) {
		slow = &slowReplyNet{Network: cfg.Net}
		cfg.Net = slow
	})

	holder := rawConn(t, env)
	if err := holder.Send(wire.Hello{Client: "holder"}); err != nil {
		t.Fatal(err)
	}
	if err := holder.Send(wire.ReqVolLease{Seq: 1, Volume: "vol", Epoch: 0}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOrTimeout(t, holder).(wire.VolLease); !ok {
		t.Fatal("no volume lease")
	}
	if err := holder.Send(wire.ReqObjLease{Seq: 2, Object: "a", Version: core.NoVersion}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOrTimeout(t, holder).(wire.ObjLease); !ok {
		t.Fatal("no object lease")
	}

	writer := rawConn(t, env)
	if err := writer.Send(wire.Hello{Client: "writer"}); err != nil {
		t.Fatal(err)
	}
	if err := writer.Send(wire.WriteReq{Seq: 1, Object: "a", Data: []byte("v2")}); err != nil {
		t.Fatal(err)
	}
	// The holder never acks, so the write handler is now waiting out the
	// holder's leases.
	if _, ok := recvOrTimeout(t, holder).(wire.Invalidate); !ok {
		t.Fatal("no invalidation")
	}

	env.srv.Close()
	if n := slow.replies.Load(); n != 1 {
		t.Fatalf("Close returned with %d finished WriteReply sends, want 1: the write handler outlived Close", n)
	}
}
