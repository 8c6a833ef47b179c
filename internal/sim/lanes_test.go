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
// of every chunk, for chunk sizes from one draw to the whole block, with
// special values among lo and width. uniformLanesGo is the transform of
// every host without AVX and of every mirrored or partial group.
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
		chunk := 1 + r.Intn(max(draws, 1))
		asm := make([]float64, len(sp.ui)*8)
		ref := make([]float64, len(asm))
		for i := range asm {
			asm[i], ref[i] = -7, -7
		}
		eAsm, eRef := 0, 0
		for d0 := 0; ; d0 += chunk {
			d1 := min(d0+chunk, draws)
			eAsm = sp.uniformLanes(asm, 8, u[d0*8:d1*8], d0, d1, eAsm, 0)
			eRef = sp.uniformLanesGo(ref, 8, u[d0*8:d1*8], d0, d1, eRef, 0)
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
					trial, special, i/8, i%8, ref[i], asm[i])
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
	sp.uniformLanes(make([]float64, len(sp.ui)*8-1), 8, u, 0, draws, 0, 0)
}

// lognormalParams are (mu, sigma) pairs at which the lognormal kernel and
// the Go transform would part ways if the kernel's fast path were drawn
// wrongly: Exp arguments near 709.4 (k = round(x·log2 e) reaches 1024 from
// about 709.44 on), 709.8 (above archExp's Overflow), 710.5 (k = 1025),
// −708.7 (k falls below −1022 from about −708.74 on) and −745 (subnormal
// and zero results), one near −708 that stays in the fast path, and NaN,
// infinite and zero parameters.
var lognormalParams = [][2]float64{
	{709.4, 0.02}, {709.8, 0.02}, {710.5, 0.02}, {-708.7, 0.05}, {-745, 0.3}, {-708, 0.5},
	{math.NaN(), 0.3}, {math.Inf(1), 0.3}, {math.Inf(-1), 0.3},
	{1, math.Inf(1)}, {1, math.NaN()}, {1, 0}, {0, 1e-300},
}

// lognormalDraws are draws at the edges of the kernel's domain: 0 and 1
// (LogNormalQuantile clamps both, and values outside [0, 1], which the
// fill never draws), the extreme draws 2^-53 and 1−2^-53, 0.5 (Erfinv(0)),
// draws on both sides of |2u−1| = 0.85, where Erfinv switches branches,
// and of u = e^-25 ≈ 1.4e-11 and its mirror, where its tail
// r = sqrt(ln2 − log(2u)) crosses 5, and NaN.
var lognormalDraws = func() []float64 {
	ds := []float64{0, 0x1p-53, 0.5, 1 - 0x1p-53, 1, -0.25, 1.25, math.NaN()}
	for _, c := range []float64{0.075, 0.925, math.Exp(-25), 1 - math.Exp(-25)} {
		lo, hi := math.Nextafter(c, 0), math.Nextafter(c, 1)
		ds = append(ds, c*(1-1e-9), math.Nextafter(lo, 0), lo, c, hi, math.Nextafter(hi, 1), c*(1+1e-9))
	}
	return ds
}()

// randomLognormalSampler returns lognormal sampler tables of 1–120 entries,
// about a fifth of them degenerate, whose draws skip over the draws of
// pairs outside the read set, with the given share of lognormalParams
// among mu and sigma and of laneSpecials among the degenerate values.
func randomLognormalSampler(r *rng.Source, special float64) (sp sampler, draws int) {
	k := 1 + r.Intn(120)
	sp = sampler{model: ModelLognormal, ui: make([]int32, k), lo: make([]float64, k),
		mu: make([]float64, k), sigma: make([]float64, k)}
	for e := range sp.ui {
		sp.ui[e] = -1
		if r.Float64() > 0.2 {
			draws += r.Intn(3)
			sp.ui[e] = int32(draws)
			draws++
		}
		sp.lo[e] = r.Uniform(0.5, 40)
		sp.mu[e], sp.sigma[e] = r.Uniform(-1, 6), r.Uniform(0.01, 1.2)
		if r.Float64() < special {
			sp.lo[e] = laneSpecials[r.Intn(len(laneSpecials))]
			p := lognormalParams[r.Intn(len(lognormalParams))]
			sp.mu[e], sp.sigma[e] = p[0], p[1]
		}
	}
	return sp, draws
}

// TestLognormalLanesMatchesGo: the lognormal kernel, with the Go loop it
// hands the entries outside its fast path, writes the bits generalLanesGo
// writes, into the same lanes, and stops at the same entry of every chunk,
// for chunk sizes from one draw to the whole block, with lognormalDraws
// among the draws and lognormalParams among the parameters. On typical
// parameters and filled draws the kernel alone covers the block.
// generalLanesGo is the transform of every host without AVX2 and FMA and
// of every mirrored, partial or correlated group.
func TestLognormalLanesMatchesGo(t *testing.T) {
	if !hasLognormal {
		t.Skip("the CPU or OS lacks AVX2 or FMA, or math.Exp runs without FMA, so the lognormal kernel never runs on this host")
	}
	r := rng.New(613)
	var gen rng.Lanes8
	for trial := 0; trial < 600; trial++ {
		special := []float64{0, 0.05, 0.3}[trial%3]
		sp, draws := randomLognormalSampler(r, special)
		seeds := [8]uint64{}
		for l := range seeds {
			seeds[l] = r.Uint64()
		}
		gen.Seed(&seeds)
		u := make([]float64, draws*8)
		gen.Float64s(u)
		if special == 0 {
			dst := make([]float64, len(sp.ui)*8)
			if e := lognormal8AVX(sp.ui, sp.lo, sp.mu, sp.sigma, u, dst, 0, draws, 0); e != len(sp.ui) {
				t.Fatalf("trial %d: the kernel left entry %d of %d (mu %v, sigma %v)", trial, e, len(sp.ui), sp.mu[e], sp.sigma[e])
			}
		}
		for i := range u {
			if r.Float64() < special {
				u[i] = lognormalDraws[r.Intn(len(lognormalDraws))]
			}
		}
		chunk := 1 + r.Intn(max(draws, 1))
		asm := make([]float64, len(sp.ui)*8)
		ref := make([]float64, len(asm))
		for i := range asm {
			asm[i], ref[i] = -7, -7
		}
		eAsm, eRef := 0, 0
		for d0 := 0; ; d0 += chunk {
			d1 := min(d0+chunk, draws)
			eAsm = sp.generalLanes(asm, 8, u[d0*8:d1*8], d0, d1, eAsm, 0, nil)
			eRef = sp.generalLanesGo(ref, 8, u[d0*8:d1*8], d0, d1, eRef, 0, nil)
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
				e := i / 8
				t.Fatalf("trial %d, special share %v: entry %d (mu %v, sigma %v) lane %d: go %v asm %v",
					trial, special, e, sp.mu[e], sp.sigma[e], i%8, ref[i], asm[i])
			}
		}
	}
}

// TestLognormalLanesChecksLengths: the kernel does no bounds checks, so
// its wrapper refuses a destination too short for the entries' lanes and
// a parameter table shorter than the entries.
func TestLognormalLanesChecksLengths(t *testing.T) {
	if !hasLognormal {
		t.Skip("the lognormal kernel never runs on this host")
	}
	sp, draws := randomLognormalSampler(rng.New(617), 0)
	u := make([]float64, draws*8)
	for name, call := range map[string]func(){
		"short destination": func() {
			sp.generalLanes(make([]float64, len(sp.ui)*8-1), 8, u, 0, draws, 0, 0, nil)
		},
		"short sigma": func() {
			short := sp
			short.sigma = sp.sigma[:len(sp.sigma)-1]
			short.generalLanes(make([]float64, len(sp.ui)*8), 8, u, 0, draws, 0, 0, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a %s did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestMirroredZeroDrawFinite: a draw of exactly 0 in a mirrored lane is
// transformed at 1 − 0 = 1, which LogNormalQuantile clamps to 1 − 2^-53
// like its own u = 1, so under every model and correlation mode the
// mirrored durations and load factors stay finite.
func TestMirroredZeroDrawFinite(t *testing.T) {
	w := testWorkload(t, 12, 15, 3, 3)
	for ci, opt := range modelCases() {
		sp := newSampler(w, opt, allPairs(w))
		ls := sp.newLanes()
		total := sp.scratch()
		dst := make([]float64, len(sp.ui)*8)
		sp.generalLanes(dst, 8, make([]float64, total*8), 0, total, 0, 0xAA, ls.load)
		for i, v := range dst {
			if math.IsInf(v, 0) || math.IsNaN(v) || v <= 0 {
				t.Fatalf("case %d (%v, %v): entry %d lane %d is %v", ci, opt.Model, opt.Corr, i/8, i%8, v)
			}
		}
	}
}

// BenchmarkLognormalLanes times the lognormal transform per lane value
// over one HEFT schedule's read set (n=100, m=8) and one block of filled
// draws: fma runs the kernel (skipped where it does not run), go the Go
// loop of every other host and group.
func BenchmarkLognormalLanes(b *testing.B) {
	w := testWorkload(b, 1, 100, 8, 4)
	pairs, _ := readSet([]*schedule.Schedule{heftSchedule(b, w)}, w.N(), w.M())
	sp := newSampler(w, Options{Model: ModelLognormal}, pairs)
	total := sp.scratch()
	var gen rng.Lanes8
	gen.Seed(&[8]uint64{1, 2, 3, 4, 5, 6, 7, 8})
	u := make([]float64, total*8)
	gen.Float64s(u)
	dst := make([]float64, len(sp.ui)*8)
	for _, form := range []struct {
		name string
		run  func() int
	}{
		{"fma", func() int { return sp.generalLanes(dst, 8, u, 0, total, 0, 0, nil) }},
		{"go", func() int { return sp.generalLanesGo(dst, 8, u, 0, total, 0, 0, nil) }},
	} {
		b.Run(form.name, func(b *testing.B) {
			if form.name == "fma" && !hasLognormal {
				b.Skip("the lognormal kernel never runs on this host")
			}
			for i := 0; i < b.N; i++ {
				form.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/value")
		})
	}
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
