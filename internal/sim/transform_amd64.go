package sim

import (
	"math"

	"robsched/internal/cpu"
	"robsched/internal/rng"
)

// hasAVX selects the assembly form of the uniform model's eight-lane
// transform. It is set once at package init.
var hasAVX = cpu.AVX

// hasLognormal selects the assembly form of the lognormal model's
// eight-lane transform. It is set once at package init, where the kernel
// must also reproduce rng.LogNormalQuantile bit for bit on the probe
// entry: the kernel replays math.Exp's FMA sequence, and math runs its
// plain one instead where it does not use FMA (GODEBUG=cpu.fma=off turns
// that off without touching the CPUID bit).
var hasLognormal = cpu.AVX2 && cpu.FMA && lognormalMatches()

// lognormalProbe is the entry the init check runs: a typical duration's
// parameters and draws in both of Erfinv's branches. archExp's FMA and
// plain sequences round the results of every lane but the one at u = 0.5
// differently (TestLognormalProbeSeparatesFMA).
var lognormalProbe = struct {
	mu, sigma float64
	u         [8]float64
}{2, 0.5, [8]float64{0.03125, 0.25, 0.328125, 0.40625, 0.5, 0.6484375, 0.8125, 0.95703125}}

// lognormalMatches reports whether the kernel transforms the probe entry
// into rng.LogNormalQuantile's bits.
func lognormalMatches() bool {
	p := &lognormalProbe
	var dst [8]float64
	if lognormal8AVX([]int32{0}, []float64{0}, []float64{p.mu}, []float64{p.sigma}, p.u[:], dst[:], 8, 0, 1, 0) != 1 {
		return false
	}
	for l, u := range p.u {
		if math.Float64bits(dst[l]) != math.Float64bits(rng.LogNormalQuantile(p.mu, p.sigma, u)) {
			return false
		}
	}
	return true
}

// uniform8AVX is uniformLanesGo for eight unmirrored lanes in AVX assembly
// (transform_amd64.s). It does no bounds checks: uniformLanes checks every
// length first.
//
//go:noescape
func uniform8AVX(ui []int32, lo, width, u, dst []float64, stride, d0, d1, e int) int

// lognormal8AVX is generalLanesGo for eight unmirrored lanes of the
// lognormal model under CorrNone in AVX2 and FMA assembly
// (transform_amd64.s), up to the first entry with a lane outside its fast
// path. It does no bounds checks: generalLanes checks every length first.
//
//go:noescape
func lognormal8AVX(ui []int32, lo, mu, sigma, u, dst []float64, stride, d0, d1, e int) int
