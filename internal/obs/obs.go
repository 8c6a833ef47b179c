// Package obs is a zero-dependency, low-overhead observability layer for
// the solver pipeline: atomic counters, gauges and fixed-bucket histograms
// behind a Registry, plus a scoped Tracer (trace.go) that emits structured
// span/event records to a JSONL sink.
//
// The whole package is nil-safe by design: every method on a nil *Registry,
// *Counter, *Gauge, *Histogram or *Tracer is a no-op, and a nil Registry
// hands out nil instruments. Instrumented hot paths therefore cost a single
// predictable nil check — and zero allocations — when observability is
// disabled, which is the default everywhere. The allocation test in
// bench_test.go pins this down.
//
// The Registry deliberately holds only deterministic facts about a run —
// how many generations evolved, how many cache lookups hit, how many
// realizations were sampled — so its snapshot can be compared exactly
// against the configured run (and golden-file tested). Wall-clock timings
// (throughput, build times, span durations) belong to the Tracer, whose
// records carry timestamps and are not expected to be reproducible.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter ignores all writes and reads as zero.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 holding the latest value of some quantity
// (a configuration knob, a level, a most-recent measurement). A nil Gauge
// ignores all writes and reads as zero.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value; zero on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets defined by their upper
// bounds, and tracks the total count and sum. Observations are atomic;
// concurrent Observe calls never lose counts. A nil Histogram ignores all
// observations.
type Histogram struct {
	bounds []float64 // sorted upper bounds; immutable after construction
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; the last slot is +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations; zero on a nil receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values; zero on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Registry hands out named instruments and snapshots them. Instruments are
// created on first use and shared by name afterwards, so independent call
// sites accumulate into the same counter. All methods are safe for
// concurrent use; a nil Registry hands out nil (no-op) instruments.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Nil on a nil receiver.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// Nil on a nil receiver.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds on first use (an implicit +Inf bucket always
// closes the range; later calls reuse the first bounds). Nil on a nil
// receiver.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"` // len(Bounds)+1, last is the +Inf bucket
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current value of every instrument. An empty snapshot
// on a nil receiver.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds:  append([]float64(nil), h.bounds...),
			Buckets: make([]int64, len(h.counts)),
			Count:   h.Count(),
			Sum:     h.Sum(),
		}
		for i := range h.counts {
			hs.Buckets[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteSummary renders the snapshot as an aligned text table, instruments
// sorted by name — the `-obs` summary block of the CLIs. Every value
// printed is a deterministic fact of the run (counts and set gauges), so
// the block is stable under golden-file tests.
func (s Snapshot) WriteSummary(w io.Writer) error {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var err error
		switch {
		case hasKey(s.Counters, n):
			_, err = fmt.Fprintf(w, "%-28s %14d\n", n, s.Counters[n])
		case hasKey(s.Gauges, n):
			_, err = fmt.Fprintf(w, "%-28s %14.6g\n", n, s.Gauges[n])
		default:
			h := s.Histograms[n]
			mean := math.NaN()
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			_, err = fmt.Fprintf(w, "%-28s %14d  sum=%.6g mean=%.6g\n", n, h.Count, h.Sum, mean)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func hasKey[V any](m map[string]V, k string) bool {
	_, ok := m[k]
	return ok
}
