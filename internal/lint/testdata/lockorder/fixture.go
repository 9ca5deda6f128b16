package fixture

// The fixture mirrors the server's shapes: per-volume shards with a `mu`
// field and an allShards() helper that returns them in sorted volume order.

type shard struct{ mu mutex }

type mutex struct{}

func (mutex) Lock()    {}
func (mutex) Unlock()  {}
func (mutex) RLock()   {}
func (mutex) RUnlock() {}

type server struct {
	shards map[string]*shard
	connMu mutex
}

func (s *server) allShards() []*shard { return nil }

// badTwoShards locks two shard mutexes by hand.
func (s *server) badTwoShards(a, b *shard) {
	a.mu.Lock()
	b.mu.Lock() // want `holds multiple shard mutexes at once`
	b.mu.Unlock()
	a.mu.Unlock()
}

// goodHandoff reacquires after releasing: never two at once.
func (s *server) goodHandoff(a, b *shard) {
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

// goodAuxiliary holds one shard mutex plus a named auxiliary mutex — the
// sanctioned shard.mu -> connMu order.
func (s *server) goodAuxiliary(a *shard) {
	a.mu.Lock()
	s.connMu.Lock()
	s.connMu.Unlock()
	a.mu.Unlock()
}

// badRangeMap acquires shard mutexes in map iteration order.
func (s *server) badRangeMap() {
	for _, sh := range s.shards { // want `iterate allShards\(\)`
		sh.mu.Lock()
		sh.mu.Unlock()
	}
}

// goodRangeHelper iterates the sorting helper directly.
func (s *server) goodRangeHelper() {
	for _, sh := range s.allShards() {
		sh.mu.Lock()
		sh.mu.Unlock()
	}
}

// goodRangeHelperVar iterates a variable holding the helper's result.
func (s *server) goodRangeHelperVar() {
	shards := s.allShards()
	for _, sh := range shards {
		sh.mu.Lock()
		sh.mu.Unlock()
	}
}
