// Package fixture exercises lockflow: a blocking operation reachable through
// any call depth while a shard mutex is held is reported at the call site
// under the lock. Non-blocking variants and allow-annotated sites are not.
package fixture

import "sync"

type shard struct {
	mu sync.Mutex
	ch chan int
}

func (s *shard) Bad() {
	s.mu.Lock()
	s.notify() // want `call to .*notify while s\.mu is held reaches blocking channel send`
	s.mu.Unlock()
}

// notify blocks two calls deep: Bad -> notify -> relay -> send.
func (s *shard) notify() {
	s.relay()
}

func (s *shard) relay() {
	s.ch <- 1
}

func (s *shard) Allowed() {
	s.mu.Lock()
	//lint:allow lockflow — fixture: buffered channel drained by a dedicated goroutine
	s.notify()
	s.mu.Unlock()
}

func (s *shard) Good() {
	s.mu.Lock()
	s.tryNotify()
	s.mu.Unlock()
}

// tryNotify never blocks: non-blocking send with a default clause.
func (s *shard) tryNotify() {
	select {
	case s.ch <- 1:
	default:
	}
}

// Unlocked calls the blocking helper with no lock held: not lockflow's
// business (it may still be ctxclean/lockorder's).
func (s *shard) Unlocked() {
	s.notify()
}

// The cases below block in the locked section itself.

// conn is transport-shaped: its Send runs outside the module, so the call is
// judged by name.
type conn interface {
	Send(v int)
}

// BadSendUnderLock performs a blocking channel send under a shard mutex.
func (s *shard) BadSendUnderLock(ch chan int) {
	s.mu.Lock()
	ch <- 1 // want `blocking channel send while s\.mu is held`
	s.mu.Unlock()
}

// GoodSendOutsideLock collects under the lock, sends outside it.
func (s *shard) GoodSendOutsideLock(ch chan int) {
	s.mu.Lock()
	v := 1
	s.mu.Unlock()
	ch <- v
}

// GoodNonBlockingSend uses a select with default, which cannot block.
func (s *shard) GoodNonBlockingSend(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case ch <- 1:
	default:
	}
}

// BadTransportUnderLock calls the transport while holding a shard mutex.
func (s *shard) BadTransportUnderLock(c conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.Send(1) // want `transport call c\.Send while s\.mu is held`
}

// GoodTransportOutsideLock snapshots under the lock and sends after.
func (s *shard) GoodTransportOutsideLock(c conn) {
	s.mu.Lock()
	v := 1
	s.mu.Unlock()
	c.Send(v)
}
