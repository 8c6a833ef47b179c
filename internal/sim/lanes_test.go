package sim

import (
	"math"
	"testing"

	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// laneSpecials are lo and width values on which the assembly transform and
// the Go one would part ways if an operand or an operation were swapped or
// fused: NaN, signed zeros, infinities (Inf·0 is NaN), subnormals and
// values whose products or sums overflow.
var laneSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, 0x1p-1030, 1e308, -1e308, math.MaxFloat64,
}

// randomLaneSampler returns uniform-model sampler tables of 1–120 entries,
// about a fifth of them degenerate, whose draws skip over the draws of
// pairs outside the read set, with the given share of special values.
func randomLaneSampler(r *rng.Source, special float64) (sp sampler, draws int) {
	value := func() float64 {
		if r.Float64() < special {
			return laneSpecials[r.Intn(len(laneSpecials))]
		}
		return r.Uniform(0.5, 40)
	}
	k := 1 + r.Intn(120)
	sp = sampler{ui: make([]int32, k), lo: make([]float64, k), width: make([]float64, k), sum: make([]float64, k)}
	for e := range sp.ui {
		sp.ui[e] = -1
		if r.Float64() > 0.2 {
			draws += r.Intn(3)
			sp.ui[e] = int32(draws)
			draws++
		}
		sp.lo[e], sp.width[e] = value(), value()
		sp.sum[e] = 2*sp.lo[e] + sp.width[e]
	}
	return sp, draws
}

// TestUniformLanesAVXMatchesGo: the assembly transform writes the bits
// uniformLanesGo writes, into the same lanes, and stops at the same entry
// of every chunk, for chunk sizes from one draw to the whole block, lane
// strides 8–12 and lane offsets, with special values among lo and width.
// uniformLanesGo is the transform of every host without AVX and of every
// mirrored or partial group.
func TestUniformLanesAVXMatchesGo(t *testing.T) {
	if !hasAVX {
		t.Skip("the CPU or OS lacks AVX, so the assembly transform never runs on this host")
	}
	r := rng.New(601)
	var gen rng.Lanes8
	for trial := 0; trial < 300; trial++ {
		special := []float64{0, 0.05, 0.3}[trial%3]
		sp, draws := randomLaneSampler(r, special)
		seeds := [8]uint64{}
		for l := range seeds {
			seeds[l] = r.Uint64()
		}
		gen.Seed(&seeds)
		u := make([]float64, draws*8)
		gen.Float64s(u)
		stride := 8 + r.Intn(5)
		l0 := r.Intn(stride - 7)
		chunk := 1 + r.Intn(max(draws, 1))
		asm := make([]float64, l0+len(sp.ui)*stride)
		ref := make([]float64, len(asm))
		for i := range asm {
			asm[i], ref[i] = -7, -7
		}
		eAsm, eRef := 0, 0
		for d0 := 0; ; d0 += chunk {
			d1 := min(d0+chunk, draws)
			eAsm = sp.uniformLanes(asm, stride, l0, 8, u[d0*8:d1*8], d0, d1, eAsm, 0)
			eRef = sp.uniformLanesGo(ref, stride, l0, 8, u[d0*8:d1*8], d0, d1, eRef, 0)
			if eAsm != eRef {
				t.Fatalf("trial %d, chunk [%d, %d): assembly stopped at entry %d, Go at %d", trial, d0, d1, eAsm, eRef)
			}
			if d1 == draws {
				break
			}
		}
		if eRef != len(sp.ui) {
			t.Fatalf("trial %d: the chunks covered %d of %d entries", trial, eRef, len(sp.ui))
		}
		for i := range asm {
			if math.Float64bits(asm[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("trial %d, special share %v: entry %d lane %d: go %v asm %v",
					trial, special, i/stride, i%stride-l0, ref[i], asm[i])
			}
		}
	}
}

// TestUniformLanesChecksLengths: the assembly does no bounds checks, so its
// wrapper refuses a destination too short for the entries' lanes.
func TestUniformLanesChecksLengths(t *testing.T) {
	if !hasAVX {
		t.Skip("the CPU or OS lacks AVX, so the assembly transform never runs on this host")
	}
	sp, draws := randomLaneSampler(rng.New(607), 0)
	u := make([]float64, draws*8)
	defer func() {
		if recover() == nil {
			t.Fatal("a short destination did not panic")
		}
	}()
	sp.uniformLanes(make([]float64, len(sp.ui)*8-1), 8, 0, 8, u, 0, draws, 0, 0)
}

// TestRealizeAllAllocsFlat: a realization allocates nothing. The
// generator, chunk and kernel buffers are per worker and per call, so 100
// and 1,000 realizations of one schedule on one worker allocate the same
// count (the per-realization rng.New of the scalar sampler made them 122
// and 1,022).
func TestRealizeAllAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	w := testWorkload(t, 17, 60, 4, 3)
	ss := []*schedule.Schedule{heftSchedule(t, w)}
	allocs := func(realizations int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := RealizeAll(ss, Options{Realizations: realizations, Workers: 1}, rng.New(3)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a100, a1000 := allocs(100), allocs(1000); a100 != a1000 {
		t.Fatalf("RealizeAll allocated %v times for 100 realizations and %v for 1,000", a100, a1000)
	}
}
