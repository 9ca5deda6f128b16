package client

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
)

// ErrNoRoute reports a volume with no registered server.
var ErrNoRoute = errors.New("client: no route for volume")

// Pool is a cache spanning many volume-lease servers — the paper's client
// population reads from a thousand servers, each serving its own volumes.
// A Pool maps volumes to server addresses, dials each server lazily on
// first use (one Client per server, shared across volumes), and routes
// reads and writes. Per-server failures stay isolated: a dead server only
// fails operations on its volumes.
type Pool struct {
	net transport.Network
	cfg Config

	mu      sync.Mutex
	routes  map[core.VolumeID]string // volume -> server address
	clients map[string]*Client       // address -> connected client
	dialing map[string]chan struct{} // address -> closed when its dial ends
	closed  bool
}

// NewPool builds an empty pool. cfg applies to every per-server client
// (same identity everywhere, like a browser talking to many sites).
func NewPool(net transport.Network, cfg Config) (*Pool, error) {
	cfg.fillDefaults()
	if cfg.ID == "" {
		return nil, errors.New("client: Config.ID is required")
	}
	return &Pool{
		net:     net,
		cfg:     cfg,
		routes:  make(map[core.VolumeID]string),
		clients: make(map[string]*Client),
		dialing: make(map[string]chan struct{}),
	}, nil
}

// AddRoute maps a volume to its server's address. Re-routing an existing
// volume is allowed (e.g. after a server migration); established
// connections to the old server are left untouched for its other volumes.
func (p *Pool) AddRoute(vid core.VolumeID, addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.routes[vid] = addr
}

// Routes lists the known volumes, sorted.
func (p *Pool) Routes() []core.VolumeID {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]core.VolumeID, 0, len(p.routes))
	for vid := range p.routes {
		out = append(out, vid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// clientFor returns (dialing if necessary) the client for a volume.
func (p *Pool) clientFor(vid core.VolumeID) (*Client, error) {
	p.mu.Lock()
	var addr string
	for {
		if p.closed {
			p.mu.Unlock()
			return nil, ErrClosed
		}
		var ok bool
		if addr, ok = p.routes[vid]; !ok {
			p.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrNoRoute, vid)
		}
		if c, ok := p.clients[addr]; ok {
			p.mu.Unlock()
			return c, nil
		}
		wait, ok := p.dialing[addr]
		if !ok {
			break
		}
		p.mu.Unlock()
		<-wait
		p.mu.Lock()
	}
	done := make(chan struct{})
	p.dialing[addr] = done
	p.mu.Unlock()

	// Dial outside the lock, one dial per server at a time: every dial
	// carries the same client ID, and the server drops a client's older
	// connection when a newer one says Hello.
	c, err := Dial(p.net, addr, p.cfg)
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.dialing, addr)
	close(done)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s for volume %q: %w", addr, vid, err)
	}
	if p.closed {
		c.Close()
		return nil, ErrClosed
	}
	p.clients[addr] = c
	return c, nil
}

// Read performs a strongly consistent read of vid/oid through the volume's
// server.
func (p *Pool) Read(vid core.VolumeID, oid core.ObjectID) ([]byte, error) {
	c, err := p.clientFor(vid)
	if err != nil {
		return nil, err
	}
	return c.Read(vid, oid)
}

// Write modifies vid/oid through the volume's server. The returned duration
// is how long the server blocked the write collecting invalidation
// acknowledgments (the paper's min(t, t_v) wait) — pool-level callers use it
// to spot writes stalled on slow or unreachable lease holders. When
// Config.Recorder is set, the wait is also recorded there.
func (p *Pool) Write(vid core.VolumeID, oid core.ObjectID, data []byte) (core.Version, time.Duration, error) {
	c, err := p.clientFor(vid)
	if err != nil {
		return 0, 0, err
	}
	version, waited, err := c.Write(oid, data)
	if err == nil && p.cfg.Recorder != nil {
		p.cfg.Recorder.Write(waited)
	}
	return version, waited, err
}

// Peek returns the locally cached copy of oid at whichever server client
// caches it, without consistency guarantees.
func (p *Pool) Peek(vid core.VolumeID, oid core.ObjectID) ([]byte, bool) {
	p.mu.Lock()
	addr, ok := p.routes[vid]
	c := p.clients[addr]
	p.mu.Unlock()
	if !ok || c == nil {
		return nil, false
	}
	return c.Peek(oid)
}

// Stats aggregates cache counters across every connected server.
func (p *Pool) Stats() (localReads, serverReads, invalidations int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.clients {
		l, s, i := c.Stats()
		localReads += l
		serverReads += s
		invalidations += i
	}
	return localReads, serverReads, invalidations
}

// Connections reports how many servers the pool is currently connected to.
func (p *Pool) Connections() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.clients)
}

// Register exports the pool's state through a metrics registry as the
// lease_pool_* series, labeled by the pool's client identity — the fleet
// health surface's view of a multi-server client:
//
//	lease_pool_connections{client}    — servers currently connected
//	lease_pool_routes{client}         — volumes with a registered route
//	lease_pool_local_reads{client}    — reads served from cache
//	lease_pool_server_reads{client}   — reads that went to a server
//	lease_pool_invalidations{client}  — invalidations received
func (p *Pool) Register(reg *obs.Registry) {
	if p == nil || reg == nil {
		return
	}
	id := string(p.cfg.ID)
	reg.GaugeFunc(fmt.Sprintf("lease_pool_connections{client=%q}", id), func() float64 {
		return float64(p.Connections())
	})
	reg.GaugeFunc(fmt.Sprintf("lease_pool_routes{client=%q}", id), func() float64 {
		return float64(len(p.Routes()))
	})
	reg.GaugeFunc(fmt.Sprintf("lease_pool_local_reads{client=%q}", id), func() float64 {
		l, _, _ := p.Stats()
		return float64(l)
	})
	reg.GaugeFunc(fmt.Sprintf("lease_pool_server_reads{client=%q}", id), func() float64 {
		_, s, _ := p.Stats()
		return float64(s)
	})
	reg.GaugeFunc(fmt.Sprintf("lease_pool_invalidations{client=%q}", id), func() float64 {
		_, _, inv := p.Stats()
		return float64(inv)
	})
}

// Close tears down every connection.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	clients := make([]*Client, 0, len(p.clients))
	for _, c := range p.clients {
		clients = append(clients, c)
	}
	p.clients = make(map[string]*Client)
	p.mu.Unlock()
	var firstErr error
	for _, c := range clients {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
