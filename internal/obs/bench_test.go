package obs

import (
	"io"
	"testing"
)

// TestDisabledPathAllocationFree pins the obs-off contract: every operation
// on nil instruments — what an instrumented hot path executes when
// observability is disabled — performs zero allocations.
func TestDisabledPathAllocationFree(t *testing.T) {
	var reg *Registry
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		c := reg.Counter("c")
		c.Inc()
		c.Add(5)
		reg.Gauge("g").Set(1)
		reg.Histogram("h", nil).Observe(2)
		tr.Event("e")
	})
	if allocs != 0 {
		t.Fatalf("disabled obs path allocates %g allocs/op, want 0", allocs)
	}
}

// BenchmarkDisabledCounter measures the per-call cost of a counter update
// when observability is off (nil instruments): the price every instrumented
// hot path pays by default.
func BenchmarkDisabledCounter(b *testing.B) {
	var reg *Registry
	c := reg.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkEnabledCounter is the enabled counterpart: one atomic add.
func BenchmarkEnabledCounter(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkEnabledHistogram measures one histogram observation (binary
// search + two atomic adds + CAS sum).
func BenchmarkEnabledHistogram(b *testing.B) {
	h := NewRegistry().Histogram("h", []float64{1, 2, 4, 8, 16, 32})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 40))
	}
}

// BenchmarkTracerEvent measures an enabled trace event encoded to a JSONL
// sink that discards it.
func BenchmarkTracerEvent(b *testing.B) {
	tr := NewTracer(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Event("tick", F("i", float64(i)))
	}
}
