package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// maxSamples bounds one recorder's memory (4 MiB). A cached-read caller
// completes several million reads in a run; once the buffer fills, every
// other sample is dropped and the stride doubles, which keeps an evenly
// spaced subset of the whole run.
const maxSamples = 1 << 20

// subSamples bounds the samples one caller keeps per sub-window.
const subSamples = 1 << 15

// samples records operation latencies in nanoseconds. One goroutine owns it.
type samples struct {
	v      []uint32
	stride uint64
	n      uint64
}

func newSamples() *samples { return newSamplesCap(maxSamples) }

func newSamplesCap(n int) *samples {
	return &samples{v: make([]uint32, 0, n), stride: 1}
}

func (s *samples) add(d time.Duration) {
	s.n++
	if s.n%s.stride != 0 {
		return
	}
	if len(s.v) == cap(s.v) {
		half := len(s.v) / 2
		for i := 0; i < half; i++ {
			s.v[i] = s.v[2*i+1]
		}
		s.v = s.v[:half]
		s.stride *= 2
		if s.n%s.stride != 0 {
			return
		}
	}
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	s.v = append(s.v, uint32(d))
}

// dist is a sorted latency distribution in nanoseconds.
type dist []float64

func merge(ss ...*samples) dist {
	var n int
	for _, s := range ss {
		n += len(s.v)
	}
	d := make(dist, 0, n)
	for _, s := range ss {
		for _, v := range s.v {
			d = append(d, float64(v))
		}
	}
	sort.Float64s(d)
	return d
}

// q returns the p-quantile in microseconds as the mean of the samples whose
// rank lies within ±w of p (w = 0.5% for p ≤ 0.9, 0.1% above). Averaging a
// narrow band keeps every digit of the measurement, where a single order
// statistic would repeat the same whole nanosecond across runs.
func (d dist) q(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	w := 0.005
	if p > 0.9 {
		w = 0.001
	}
	lo := int(math.Floor((p - w) * float64(len(d))))
	hi := int(math.Ceil((p + w) * float64(len(d))))
	if lo < 0 {
		lo = 0
	}
	if hi > len(d) {
		hi = len(d)
	}
	if hi <= lo {
		hi = lo + 1
	}
	var sum float64
	for _, v := range d[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo) / 1e3
}

// maxSpans bounds the spans one buffer keeps in memory.
const maxSpans = 1 << 16

// span is one timed call made by the benchmark into a layer of the program.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's base time
	End    int64  `json:"end_ns"`
}

// tracer keeps the benchmark's spans in memory; each goroutine records into
// its own spanBuf, with no shared state, and the buffers are joined when the
// run ends. A nil *tracer records nothing, which is how untraced windows run.
type tracer struct {
	base time.Time
	ids  uint64 // ids handed out by id; buffers number their own spans
	bufs []*spanBuf
}

type spanBuf struct {
	t       *tracer
	parent  uint64
	next    uint64 // this buffer's next span id
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// buf returns a new buffer whose spans are children of parent (0 for root
// spans). One goroutine uses it; create it on the tracer's goroutine.
func (t *tracer) buf(parent uint64) *spanBuf {
	if t == nil {
		return nil
	}
	t.bufs = append(t.bufs, nil)
	b := &spanBuf{t: t, parent: parent, next: uint64(len(t.bufs)) << 32}
	t.bufs[len(t.bufs)-1] = b
	return b
}

// id allocates a span id (0 from a nil tracer) for a parent span that is
// kept only after its children. Call it on the tracer's goroutine.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	t.ids++
	return t.ids
}

// record keeps a finished span, a child of the buffer's parent.
func (b *spanBuf) record(name string, start, end time.Time) {
	if b != nil {
		b.next++
		b.keep(b.next, b.parent, name, start, end)
	}
}

// keep keeps a finished span with the given id and parent.
func (b *spanBuf) keep(id, parent uint64, name string, start, end time.Time) {
	if b == nil {
		return
	}
	if len(b.spans) == maxSpans {
		b.dropped++
		return
	}
	b.spans = append(b.spans, span{Name: name, ID: id, Parent: parent,
		Start: start.Sub(b.t.base).Nanoseconds(), End: end.Sub(b.t.base).Nanoseconds()})
}

// write dumps every kept span as JSON lines to path and prints per-name
// counts and total time.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type agg struct {
		n   int
		sum int64
	}
	byName := map[string]*agg{}
	var names []string
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
			a := byName[s.Name]
			if a == nil {
				a = &agg{}
				byName[s.Name] = a
				names = append(names, s.Name)
			}
			a.n++
			a.sum += s.End - s.Start
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	dropped := 0
	for _, b := range t.bufs {
		dropped += b.dropped
	}
	sort.Strings(names)
	fmt.Printf("spans: wrote %s (%d dropped past the %d-span budget of a buffer)\n", path, dropped, maxSpans)
	for _, n := range names {
		a := byName[n]
		fmt.Printf("  span %-26s n=%-8d total=%.3fs mean=%.2fus\n", n, a.n,
			float64(a.sum)/1e9, float64(a.sum)/float64(a.n)/1e3)
	}
	return nil
}
