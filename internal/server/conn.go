package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// clientConn is one connected client.
type clientConn struct {
	id   core.ClientID
	conn transport.Conn
	// mu guards renewals: the reader goroutine and asynchronous
	// grant-waiters both touch it.
	mu sync.Mutex
	// renewals tracks in-flight volume-renewal conversations by sequence
	// number.
	renewals map[uint64]*renewal

	// invalMu guards invalQ, the outbound invalidation queue. Writes
	// enqueue items here; the connection's flusher goroutine drains
	// whatever has accumulated into one multi-object wire.Invalidate, so a
	// burst of writes against this client's cache coalesces into a single
	// message.
	invalMu sync.Mutex
	invalQ  []invalItem
	// invalKick wakes the flusher (capacity 1: one pending kick covers any
	// number of enqueues).
	invalKick chan struct{}
	// gone closes when the connection is torn down, stopping the flusher.
	gone chan struct{}
}

// invalItem is one queued invalidation, carrying the originating write's
// trace so the flusher can record a fan-out span and propagate the context
// on the wire (trace 0 = untraced write).
type invalItem struct {
	oid    core.ObjectID
	trace  uint64
	parent uint64 // the write's root span id
}

// queueInvalidate appends oid to the outbound invalidation batch and wakes
// the flusher. trace/parent tie the invalidation back to the write's span
// (both 0 when the write is untraced).
func (cc *clientConn) queueInvalidate(oid core.ObjectID, trace, parent uint64) {
	cc.invalMu.Lock()
	cc.invalQ = append(cc.invalQ, invalItem{oid: oid, trace: trace, parent: parent})
	cc.invalMu.Unlock()
	select {
	case cc.invalKick <- struct{}{}:
	default: // a kick is already pending
	}
}

// invalFlusher drains the connection's invalidation queue, sending each
// batch as one multi-object Invalidate. Runs as a per-connection goroutine.
//
// When the batch contains traced writes, the send is recorded as one
// fan-out span per connection, and the first traced item's context rides
// the Invalidate so the client's ack (and a proxy's own downstream round)
// joins that write's trace. A batch coalescing several traced writes
// attributes the message to the first — the others still account the
// fan-out through their ack-wait spans.
func (s *Server) invalFlusher(cc *clientConn) {
	defer s.wg.Done()
	for {
		select {
		case <-cc.invalKick:
		case <-cc.gone:
			return
		case <-s.closed:
			return
		}
		for {
			cc.invalMu.Lock()
			batch := cc.invalQ
			cc.invalQ = nil
			cc.invalMu.Unlock()
			if len(batch) == 0 {
				break
			}
			objs := make([]core.ObjectID, len(batch))
			var trace, parent uint64
			for i, it := range batch {
				objs[i] = it.oid
				if trace == 0 && it.trace != 0 {
					trace, parent = it.trace, it.parent
				}
			}
			sr := s.cfg.Obs.SpanRec()
			var (
				tc        wire.TraceContext
				spanID    uint64
				spanStart time.Time
			)
			if sr != nil && trace != 0 && sr.Sampled(trace) {
				spanID = sr.NewID()
				spanStart = s.cfg.Clock.Now()
				tc = wire.TraceContext{TraceID: trace, SpanID: spanID}
			} else {
				sr = nil
				if trace != 0 {
					// Still propagate the context (parented on the write's
					// root) even when this node records nothing.
					tc = wire.TraceContext{TraceID: trace, SpanID: parent}
				}
			}
			if err := s.send(cc, metrics.MsgInvalidate, wire.Invalidate{Objects: objs, Trace: tc}); err != nil {
				// The write's ack wait times the client out and marks it
				// unreachable; nothing more to do here.
				s.logf("invalidate %v to %s failed: %v", objs, cc.id, err)
				continue
			}
			if sr != nil {
				sr.Record(obs.Span{Trace: trace, ID: spanID, Parent: parent,
					Kind: obs.SpanFanout, Node: s.cfg.Name, Client: cc.id,
					Object: batch[0].oid, Start: spanStart,
					Dur: s.cfg.Clock.Now().Sub(spanStart), N: len(batch)})
			}
			if s.om != nil {
				s.om.invalSent.Add(int64(len(batch)))
			}
			for _, oid := range objs {
				s.emit(obs.Event{Type: obs.EvInvalSent, Client: cc.id, Object: oid})
			}
		}
	}
}

// setRenewal installs conversation state for seq.
func (cc *clientConn) setRenewal(seq uint64, r *renewal) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.renewals[seq] = r
}

// takeRenewal fetches conversation state, optionally removing it.
func (cc *clientConn) takeRenewal(seq uint64, remove bool) (*renewal, bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	r, ok := cc.renewals[seq]
	if ok && remove {
		delete(cc.renewals, seq)
	}
	return r, ok
}

// renewal is the state machine for a multi-round volume-lease conversation.
type renewal struct {
	volume core.VolumeID
	stage  renewalStage
}

type renewalStage int

const (
	// stageAwaitHeld: MUST_RENEW_ALL sent; expecting RenewObjLeases.
	stageAwaitHeld renewalStage = iota + 1
	// stageAwaitReconnectAck: InvalRenew (reconnection vector) sent;
	// expecting AckInvalidate.
	stageAwaitReconnectAck
	// stageAwaitPendingAck: InvalRenew (queued invalidations) sent;
	// expecting AckInvalidate.
	stageAwaitPendingAck
)

// serveConn owns one client connection: handshake, then request dispatch
// until the connection drops.
func (s *Server) serveConn(conn transport.Conn) {
	defer s.wg.Done()
	defer conn.Close()

	first, err := conn.Recv()
	if err != nil {
		return
	}
	hello, ok := first.(wire.Hello)
	if !ok || hello.Client == "" {
		_ = conn.Send(wire.Error{Code: wire.ErrCodeBadRequest, Msg: "expected Hello"})
		return
	}
	cc := &clientConn{
		id:        hello.Client,
		conn:      conn,
		renewals:  make(map[uint64]*renewal),
		invalKick: make(chan struct{}, 1),
		gone:      make(chan struct{}),
	}

	s.connMu.Lock()
	if old, exists := s.conns[cc.id]; exists {
		old.conn.Close()
	}
	s.conns[cc.id] = cc
	s.connMu.Unlock()
	s.wg.Add(1)
	go s.invalFlusher(cc)
	if s.om != nil {
		s.om.conns.Add(1)
	}
	s.emit(obs.Event{Type: obs.EvConnect, Client: cc.id})
	s.logf("client %s connected from %s", cc.id, conn.RemoteAddr())

	defer func() {
		close(cc.gone)
		s.connMu.Lock()
		if s.conns[cc.id] == cc {
			delete(s.conns, cc.id)
		}
		s.connMu.Unlock()
		if s.om != nil {
			s.om.conns.Add(-1)
		}
		s.emit(obs.Event{Type: obs.EvDisconnect, Client: cc.id})
		s.logf("client %s disconnected", cc.id)
	}()

	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		if s.cfg.Recorder != nil {
			s.cfg.Recorder.Message(s.cfg.Name, classOf(m), 0, s.cfg.Clock.Now())
		}
		if err := s.dispatch(cc, m); err != nil {
			s.logf("client %s: %v", cc.id, err)
			return
		}
	}
}

// dispatch handles one inbound message on the reader goroutine.
func (s *Server) dispatch(cc *clientConn, m wire.Message) error {
	switch v := m.(type) {
	case wire.ReqObjLease:
		return s.handleReqObjLease(cc, v)
	case wire.ReqVolLease:
		return s.handleReqVolLease(cc, v)
	case wire.RenewObjLeases:
		return s.handleRenewObjLeases(cc, v)
	case wire.AckInvalidate:
		return s.handleAckInvalidate(cc, v)
	case wire.WriteReq:
		// Writes block on acknowledgments (possibly from this very
		// connection), so they must not occupy the reader goroutine. The
		// reader holds a wg slot, so this Add cannot race Close's Wait.
		s.wg.Add(1)
		go s.handleWriteReq(cc, v)
		return nil
	case wire.Hello:
		return errors.New("duplicate Hello")
	default:
		return fmt.Errorf("unexpected message %s", m.Kind())
	}
}

// handleReqObjLease grants or renews an object lease, piggybacking data when
// the client is stale (Figure 3). If the object has a write in flight, the
// grant waits for it on a separate goroutine so the connection's reader
// stays free to process acknowledgments.
func (s *Server) handleReqObjLease(cc *clientConn, req wire.ReqObjLease) error {
	sh, err := s.shardOfObject(req.Object)
	if err != nil {
		return s.sendErr(cc, req.Seq, err)
	}
	sh.mu.Lock()
	if guard, busy := sh.writing[req.Object]; busy {
		sh.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			select {
			case <-guard:
				_ = s.handleReqObjLease(cc, req)
			case <-s.closed:
			}
		}()
		return nil
	}
	g, err := sh.table.GrantObjectLease(s.cfg.Clock.Now(), cc.id, req.Object, req.Version)
	if err == nil {
		// Emitted under the shard mutex so the audit model sees the grant
		// strictly before any write that includes this client in its plan.
		s.emit(obs.Event{Type: obs.EvObjLeaseGrant, Client: cc.id, Object: g.Object,
			Version: g.Version, Expire: g.Expire})
	}
	sh.mu.Unlock()
	if err != nil {
		return s.sendErr(cc, req.Seq, err)
	}
	if s.om != nil {
		s.om.objGrants.Inc()
	}
	reply := wire.ObjLease{
		Seq:     req.Seq,
		Object:  g.Object,
		Version: g.Version,
		Expire:  g.Expire,
	}
	if g.Data != nil {
		reply.HasData = true
		reply.Data = g.Data
		return s.send(cc, metrics.MsgData, reply)
	}
	return s.send(cc, metrics.MsgObjLease, reply)
}

// handleReqVolLease starts a volume-renewal conversation (Figure 3's
// "Server grants lease for volume v").
//
// A client with an invalidation acknowledgment outstanding in this volume
// must not be granted a fresh volume lease yet: the pending write's wait
// bound was computed from the leases that existed when it began, so a
// renewal issued now could outlive that bound — the write would then
// complete while the client still believes it may read. The grant waits
// (off the reader goroutine) until the client acks or the write times it
// out; in the latter case the client is unreachable and the renewal
// correctly becomes a reconnection. Only this shard's pending acks matter:
// a write's bound is min(object expiry, volume expiry) over leases in its
// own volume, which a renewal of a different volume cannot extend.
func (s *Server) handleReqVolLease(cc *clientConn, req wire.ReqVolLease) error {
	sh := s.shardOf(req.Volume)
	if sh == nil {
		return s.sendErr(cc, req.Seq, fmt.Errorf("%w: %q", core.ErrNoSuchVolume, req.Volume))
	}
	sh.mu.Lock()
	if chans := sh.pendingAcksLocked(cc.id); len(chans) > 0 {
		sh.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for _, ch := range chans {
				select {
				case <-ch:
				case <-s.closed:
					return
				}
			}
			_ = s.handleReqVolLease(cc, req)
		}()
		return nil
	}
	g, err := sh.table.RequestVolumeLease(s.cfg.Clock.Now(), cc.id, req.Volume, req.Epoch)
	if err == nil {
		// Grant and reconnect events are emitted under the shard mutex so
		// the audit model observes them ordered against this volume's write
		// commits and acks.
		switch g.Status {
		case core.VolumeGranted:
			s.emit(obs.Event{Type: obs.EvVolLeaseGrant, Client: cc.id, Volume: g.Volume,
				Epoch: g.Epoch, Expire: g.Expire})
		case core.VolumeNeedsRenewAll:
			s.emit(obs.Event{Type: obs.EvReconnect, Client: cc.id, Volume: req.Volume, Epoch: g.Epoch})
		}
	}
	sh.mu.Unlock()
	if err != nil {
		return s.sendErr(cc, req.Seq, err)
	}
	switch g.Status {
	case core.VolumeGranted:
		if s.om != nil {
			s.om.volGrants.Inc()
		}
		return s.send(cc, metrics.MsgVolLease, wire.VolLease{
			Seq: req.Seq, Volume: g.Volume, Expire: g.Expire, Epoch: g.Epoch,
		})
	case core.VolumePendingInvalidations:
		cc.setRenewal(req.Seq, &renewal{volume: req.Volume, stage: stageAwaitPendingAck})
		s.emit(obs.Event{Type: obs.EvInvalSent, Client: cc.id, Volume: req.Volume, N: len(g.Invalidate)})
		return s.send(cc, metrics.MsgInvalRenew, wire.InvalRenew{
			Seq: req.Seq, Volume: req.Volume, Invalidate: g.Invalidate,
		})
	case core.VolumeNeedsRenewAll:
		cc.setRenewal(req.Seq, &renewal{volume: req.Volume, stage: stageAwaitHeld})
		if s.om != nil {
			s.om.reconnects.Inc()
		}
		return s.send(cc, metrics.MsgMustRenewAll, wire.MustRenewAll{
			Seq: req.Seq, Volume: req.Volume, Epoch: g.Epoch,
		})
	default:
		return fmt.Errorf("unknown grant status %v", g.Status)
	}
}

// handleRenewObjLeases continues a reconnection conversation: the client has
// enumerated its cached objects; reply with the invalidate/renew vector.
func (s *Server) handleRenewObjLeases(cc *clientConn, req wire.RenewObjLeases) error {
	r, ok := cc.takeRenewal(req.Seq, false)
	if !ok || r.stage != stageAwaitHeld {
		return s.sendErr(cc, req.Seq, errors.New("server: unexpected RenewObjLeases"))
	}
	sh := s.shardOf(req.Volume)
	if sh == nil {
		cc.takeRenewal(req.Seq, true)
		return s.sendErr(cc, req.Seq, fmt.Errorf("%w: %q", core.ErrNoSuchVolume, req.Volume))
	}
	sh.mu.Lock()
	// Renewing a lease on an object with a write in flight would hand out a
	// lease at the old version; wait the write(s) out asynchronously.
	for _, h := range req.Held {
		if guard, busy := sh.writing[h.Object]; busy {
			sh.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				select {
				case <-guard:
					_ = s.handleRenewObjLeases(cc, req)
				case <-s.closed:
				}
			}()
			return nil
		}
	}
	res, err := sh.table.HandleRenewObjLeases(s.cfg.Clock.Now(), cc.id, req.Volume, req.Held)
	if err == nil {
		// Renewed leases are fresh grants as far as the audit model is
		// concerned: without these events it would judge post-reconnection
		// cache reads against the pre-disconnect expiries.
		for _, g := range res.Renew {
			s.emit(obs.Event{Type: obs.EvObjLeaseGrant, Client: cc.id, Object: g.Object,
				Volume: req.Volume, Version: g.Version, Expire: g.Expire})
		}
	}
	sh.mu.Unlock()
	if err != nil {
		cc.takeRenewal(req.Seq, true)
		return s.sendErr(cc, req.Seq, err)
	}
	r.stage = stageAwaitReconnectAck
	out := wire.InvalRenew{Seq: req.Seq, Volume: req.Volume, Invalidate: res.Invalidate}
	for _, g := range res.Renew {
		out.Renew = append(out.Renew, wire.LeaseMeta{Object: g.Object, Version: g.Version, Expire: g.Expire})
	}
	return s.send(cc, metrics.MsgInvalRenew, out)
}

// handleAckInvalidate routes acknowledgment messages: Seq 0 acks belong to
// in-flight writes; others complete volume-renewal conversations.
func (s *Server) handleAckInvalidate(cc *clientConn, ack wire.AckInvalidate) error {
	if ack.Seq == 0 {
		s.completeWriteAcks(cc.id, ack.Objects)
		return nil
	}
	r, ok := cc.takeRenewal(ack.Seq, true)
	if !ok {
		return nil // stale ack after an error; harmless
	}
	sh := s.shardOf(r.volume)
	if sh == nil {
		return s.sendErr(cc, ack.Seq, fmt.Errorf("%w: %q", core.ErrNoSuchVolume, r.volume))
	}
	now := s.cfg.Clock.Now()
	var (
		g   core.VolumeGrant
		err error
	)
	sh.mu.Lock()
	switch r.stage {
	case stageAwaitPendingAck:
		g, err = sh.table.ConfirmPendingDelivered(now, cc.id, r.volume)
		if err == nil {
			for _, oid := range ack.Objects {
				s.emit(obs.Event{Type: obs.EvInvalAcked, Client: cc.id, Object: oid, At: now})
			}
			s.emit(obs.Event{Type: obs.EvPendingDelivered, Client: cc.id, Volume: r.volume,
				N: len(ack.Objects), At: now})
		}
	case stageAwaitReconnectAck:
		g, err = sh.table.ConfirmReconnect(now, cc.id, r.volume)
		if err == nil {
			// The ack names the copies the client just discarded; without
			// these events the audit model would keep judging writes against
			// cache entries that no longer exist.
			for _, oid := range ack.Objects {
				s.emit(obs.Event{Type: obs.EvInvalAcked, Client: cc.id, Object: oid, At: now})
			}
		}
	default:
		err = fmt.Errorf("server: ack in unexpected stage %d", r.stage)
	}
	if err == nil {
		s.emit(obs.Event{Type: obs.EvVolLeaseGrant, Client: cc.id, Volume: g.Volume,
			Epoch: g.Epoch, Expire: g.Expire, At: now})
	}
	sh.mu.Unlock()
	if err != nil {
		return s.sendErr(cc, ack.Seq, err)
	}
	if s.om != nil {
		s.om.volGrants.Inc()
	}
	return s.send(cc, metrics.MsgVolLease, wire.VolLease{
		Seq: ack.Seq, Volume: g.Volume, Expire: g.Expire, Epoch: g.Epoch,
	})
}

// completeWriteAcks resolves pending write waiters and releases the
// clients' object leases. A batched invalidation may span volumes, so each
// object is resolved through its own shard.
func (s *Server) completeWriteAcks(client core.ClientID, objects []core.ObjectID) {
	now := s.cfg.Clock.Now()
	for _, oid := range objects {
		sh, err := s.shardOfObject(oid)
		if err != nil {
			continue // object removed or never existed; nothing to release
		}
		sh.mu.Lock()
		_ = sh.table.AckWriteInvalidate(now, client, oid)
		// Emit before close(ch): the channel close releases the write
		// goroutine, and the audit model must see the ack before the
		// write's commit event.
		s.emit(obs.Event{Type: obs.EvInvalAcked, Client: client, Object: oid, At: now})
		key := ackKey{client: client, object: oid}
		if aw, ok := sh.acks[key]; ok {
			close(aw.ch)
			delete(sh.acks, key)
		}
		sh.mu.Unlock()
	}
	if s.om != nil {
		s.om.invalAcked.Add(int64(len(objects)))
	}
}

// handleWriteReq performs a client-requested write and replies, threading
// the request's trace context through the write and echoing it in the
// reply.
func (s *Server) handleWriteReq(cc *clientConn, req wire.WriteReq) {
	defer s.wg.Done()
	version, waited, err := s.WriteTraced(req.Object, req.Data, req.Trace)
	if err != nil {
		_ = s.sendErr(cc, req.Seq, err)
		return
	}
	_ = s.send(cc, metrics.MsgData, wire.WriteReply{
		Seq: req.Seq, Object: req.Object, Version: version, Waited: waited,
		Trace: req.Trace,
	})
}

// sendErr reports a request failure to the client.
func (s *Server) sendErr(cc *clientConn, seq uint64, err error) error {
	code := wire.ErrCodeUnknown
	switch {
	case errors.Is(err, core.ErrNoSuchObject):
		code = wire.ErrCodeNoSuchObject
	case errors.Is(err, core.ErrNoSuchVolume):
		code = wire.ErrCodeNoSuchVolume
	case errors.Is(err, core.ErrWriteFenced):
		code = wire.ErrCodeWriteFenced
	}
	return s.send(cc, metrics.MsgData, wire.Error{Seq: seq, Code: code, Msg: err.Error()})
}
