// Package fixture exercises snapshotcopy: snapshot roots (Table.Snapshot by
// name, or //lint:snapshotroot annotations) must not return memory aliasing
// the live structures they were called on. Deep copies are clean by
// construction: selecting a basic field out of a tainted struct drops taint.
package fixture

import "sync/atomic"

type entry struct {
	version int
}

type Table struct {
	live map[string]*entry
}

// Snapshot is a root by name (Snapshot on Table): returning the live map
// aliases live state.
func (t *Table) Snapshot() map[string]*entry {
	return t.live // want `snapshot root .*Snapshot returns memory aliasing live receiver t`
}

// View leaks through a loop: the range value points into the live map and
// is accumulated into the returned slice.
//
//lint:snapshotroot
func (t *Table) View() []*entry {
	out := make([]*entry, 0, len(t.live))
	for _, e := range t.live {
		out = append(out, e)
	}
	return out // want `snapshot root .*View returns memory aliasing live receiver t`
}

// Copy deep-copies entry values: clean.
//
//lint:snapshotroot
func (t *Table) Copy() map[string]entry {
	out := make(map[string]entry, len(t.live))
	for k, e := range t.live {
		out[k] = entry{version: e.version}
	}
	return out
}

//lint:snapshotroot
func (t *Table) Exposed() map[string]*entry {
	//lint:allow snapshotcopy — fixture: documented read-only view
	return t.live
}

// shard and Server mirror the server's copy-on-write shard index: an atomic
// pointer to a map of live shards, read without a lock.
type shard struct {
	entries map[string]*entry
}

type Server struct {
	vols atomic.Pointer[map[string]*shard]
}

// allShards hands out the live shards, as the server's helper does.
func (s *Server) allShards() []*shard {
	m := *s.vols.Load()
	out := make([]*shard, 0, len(m))
	for _, sh := range m {
		out = append(out, sh)
	}
	return out
}

// StateSnapshot is a root by name: live shards reached through the atomic
// index must not escape it.
func (s *Server) StateSnapshot() []*shard {
	return s.allShards() // want `snapshot root .*StateSnapshot returns memory aliasing live receiver s`
}

// Sizes reads the same live shards but returns only counts: clean.
//
//lint:snapshotroot
func (s *Server) Sizes() map[string]int {
	out := make(map[string]int)
	for _, sh := range s.allShards() {
		for k := range sh.entries {
			out[k]++
		}
	}
	return out
}
