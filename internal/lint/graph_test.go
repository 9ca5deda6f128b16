package lint

import (
	"strings"
	"testing"
)

func buildTestGraph(t *testing.T, src string) *Graph {
	t.Helper()
	return BuildGraph([]*Package{mustParsePackage(t, "fixture/graph", src)})
}

func graphNode(t *testing.T, g *Graph, name string) *FuncNode {
	t.Helper()
	for _, n := range g.Nodes {
		if n.String() == name {
			return n
		}
	}
	var all []string
	for _, n := range g.Nodes {
		all = append(all, n.String())
	}
	t.Fatalf("graph has no node %q; nodes:\n%s", name, strings.Join(all, "\n"))
	return nil
}

func edgeTo(n *FuncNode, callee string) (Edge, bool) {
	for _, e := range n.Edges {
		if e.Callee != nil && e.Callee.String() == callee {
			return e, true
		}
	}
	return Edge{}, false
}

// TestGraphDirectCalls pins precise resolution of function and method calls,
// including calls through a local variable of a known named type.
func TestGraphDirectCalls(t *testing.T) {
	g := buildTestGraph(t, `package p

type T struct{}

func (t *T) M() {}

func helper() {}

func use() {
	helper()
	var v T
	v.M()
}
`)
	use := graphNode(t, g, "fixture/graph.use")
	if e, ok := edgeTo(use, "fixture/graph.helper"); !ok || e.Kind != EdgeCall || e.OverApprox {
		t.Errorf("use -> helper: edge = %+v, ok = %v; want precise call edge", e, ok)
	}
	if e, ok := edgeTo(use, "fixture/graph.(*T).M"); !ok || e.Kind != EdgeCall || e.OverApprox {
		t.Errorf("use -> (*T).M: edge = %+v, ok = %v; want precise call edge", e, ok)
	}
}

// TestGraphMethodValues verifies a method value bound to a variable still
// links the binder to the method — the closure may be invoked later, so the
// reference must appear in the graph for reachability to follow.
func TestGraphMethodValues(t *testing.T) {
	g := buildTestGraph(t, `package p

type T struct{}

func (t *T) M() {}

func bind(t *T) {
	f := t.M
	f()
}
`)
	bind := graphNode(t, g, "fixture/graph.bind")
	if _, ok := edgeTo(bind, "fixture/graph.(*T).M"); !ok {
		t.Errorf("bind has no edge to (*T).M; method value reference lost: %+v", bind.Edges)
	}
	reach := g.Reachable([]*FuncNode{bind}, ReachOpts{Call: true, Ref: true, OverApprox: true})
	if _, ok := reach[graphNode(t, g, "fixture/graph.(*T).M")]; !ok {
		t.Errorf("(*T).M not reachable from bind")
	}
}

// TestGraphInterfaceDispatch pins the over-approximation policy: a call
// through an interface fans out to every in-module type implementing the
// interface's full method set — and only those. A type providing just one of
// the methods must not be a candidate.
func TestGraphInterfaceDispatch(t *testing.T) {
	g := buildTestGraph(t, `package p

type flusher interface {
	Close() error
	Flush() error
}

type full struct{}

func (f *full) Close() error { return nil }
func (f *full) Flush() error { return nil }

type partial struct{}

func (p *partial) Close() error { return nil }

func shutdown(f flusher) error { return f.Close() }
`)
	sd := graphNode(t, g, "fixture/graph.shutdown")
	e, ok := edgeTo(sd, "fixture/graph.(*full).Close")
	if !ok {
		t.Fatalf("shutdown has no edge to (*full).Close: %+v", sd.Edges)
	}
	if !e.OverApprox {
		t.Errorf("interface dispatch edge not marked over-approximated: %+v", e)
	}
	if _, ok := edgeTo(sd, "fixture/graph.(*partial).Close"); ok {
		t.Errorf("(*partial).Close is a dispatch candidate but lacks Flush; method-set filter failed")
	}
}

// TestGraphDispatchNeedsImplements pins that dispatch candidates are the
// types that implement the interface, not the types with same-named
// methods: closer's Close has the wrong signature, and nothing implements
// sink, so neither interface call reaches it.
func TestGraphDispatchNeedsImplements(t *testing.T) {
	g := buildTestGraph(t, `package p

type flusher interface {
	Close() error
	Flush() error
}

type sink interface {
	Close() error
}

type file struct{}

func (f *file) Close() error { return nil }
func (f *file) Flush() error { return nil }

type closer struct{}

func (c closer) Close(force bool) error { return nil }
func (c closer) Flush() error           { return nil }

func shutdown(f flusher) error { return f.Close() }

func drop(s sink) error { return s.Close() }
`)
	sd := graphNode(t, g, "fixture/graph.shutdown")
	if _, ok := edgeTo(sd, "fixture/graph.(*file).Close"); !ok {
		t.Errorf("shutdown has no edge to (*file).Close: %+v", sd.Edges)
	}
	if _, ok := edgeTo(sd, "fixture/graph.(*closer).Close"); ok {
		t.Errorf("closer.Close(bool) is a dispatch candidate of flusher.Close()")
	}
	drop := graphNode(t, g, "fixture/graph.drop")
	if _, ok := edgeTo(drop, "fixture/graph.(*closer).Close"); ok {
		t.Errorf("closer.Close(bool) is a dispatch candidate of sink.Close()")
	}
}

// TestGraphClosures verifies function literals become their own nodes,
// linked from the enclosing function, with their bodies walked (the closure
// calls out) and `go func(...)` spawns recorded as EdgeGo.
func TestGraphClosures(t *testing.T) {
	g := buildTestGraph(t, `package p

func inner() {}

func calls() {
	f := func() { inner() }
	f()
}

func spawner() {}

func spawns() {
	go func() { spawner() }()
}
`)
	lit := graphNode(t, g, "fixture/graph.calls.func")
	if _, ok := edgeTo(lit, "fixture/graph.inner"); !ok {
		t.Errorf("closure body not walked: calls.func has no edge to inner: %+v", lit.Edges)
	}
	calls := graphNode(t, g, "fixture/graph.calls")
	if _, ok := edgeTo(calls, "fixture/graph.calls.func"); !ok {
		t.Errorf("calls has no edge to its literal: %+v", calls.Edges)
	}
	reach := g.Reachable([]*FuncNode{calls}, ReachOpts{Call: true, Ref: true})
	if _, ok := reach[graphNode(t, g, "fixture/graph.inner")]; !ok {
		t.Errorf("inner not reachable from calls through the closure")
	}

	spawns := graphNode(t, g, "fixture/graph.spawns")
	e, ok := edgeTo(spawns, "fixture/graph.spawns.func")
	if !ok || e.Kind != EdgeGo {
		t.Errorf("spawns -> spawns.func: edge = %+v, ok = %v; want EdgeGo", e, ok)
	}
}

// TestGraphReachableRespectsOpts verifies goroutine edges are only followed
// when asked: the hot-path closure excludes spawned work by design.
func TestGraphReachableRespectsOpts(t *testing.T) {
	g := buildTestGraph(t, `package p

func work() {}

func spawn() {
	go work()
}
`)
	spawn := graphNode(t, g, "fixture/graph.spawn")
	work := graphNode(t, g, "fixture/graph.work")
	if _, ok := g.Reachable([]*FuncNode{spawn}, ReachOpts{Call: true})[work]; ok {
		t.Errorf("work reachable without Go edges enabled")
	}
	reach := g.Reachable([]*FuncNode{spawn}, ReachOpts{Call: true, Go: true})
	if _, ok := reach[work]; !ok {
		t.Errorf("work not reachable with Go edges enabled")
	}
}
