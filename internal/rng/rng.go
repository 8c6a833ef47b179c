// Package rng provides a small, deterministic, splittable random number
// generator together with the distribution samplers needed by the robust
// scheduling experiments (uniform, exponential, normal and gamma variates).
//
// The experiments in the paper are Monte-Carlo heavy: 100 task graphs, each
// evaluated with 1000 realizations of the random task durations, inside a
// genetic-algorithm loop. Reproducing a figure therefore requires
//
//   - determinism: the same root seed must regenerate the same table, and
//   - splittability: independent goroutines must draw from statistically
//     independent streams without locking a shared source.
//
// The core generator is xoshiro256++ seeded through SplitMix64, following
// Blackman & Vigna. Split derives a child stream whose seed is drawn from
// the parent, which is the standard way to fan a root seed out across
// workers. None of the methods are safe for concurrent use on a single
// Source; use Split to give each goroutine its own.
package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random number generator. The zero value
// is not valid; use New.
type Source struct {
	s [4]uint64
	// spare holds a cached standard normal variate produced by the polar
	// method, which generates two at a time.
	spare    float64
	hasSpare bool
}

// splitMix64 advances *x and returns the next SplitMix64 output. It is used
// only for seeding, where its equidistribution is sufficient.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given 64-bit seed. Distinct seeds
// yield streams that are, for all practical purposes, independent.
func New(seed uint64) *Source {
	return &Source{s: seedState(seed)}
}

// seedState returns the xoshiro256++ state New(seed) starts from.
func seedState(seed uint64) [4]uint64 {
	var s [4]uint64
	x := seed
	for i := range s {
		s[i] = splitMix64(&x)
	}
	// A pathological all-zero state cannot occur: SplitMix64 is a bijection
	// pipeline and produces four zero outputs only for specific inputs that
	// the increment rules out, but guard anyway.
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 0x9e3779b97f4a7c15
	}
	return s
}

// Split returns a new Source whose stream is independent of the parent's
// subsequent output. The parent is advanced.
func (r *Source) Split() *Source {
	return New(r.SplitSeed())
}

// SplitSeed draws and returns the seed of the child stream the next Split
// call would create: New(r.SplitSeed()) is bit-identical to r.Split(), and
// the parent advances the same single step either way. A coordinator uses
// it to derive worker streams it can recreate in another process — shipping
// the 64-bit seed over the wire instead of the generator state — while
// keeping the derivation sequence (and everything later drawn from the
// parent) exactly the same as an in-process Split fan-out.
func (r *Source) SplitSeed() uint64 {
	return r.Uint64() ^ 0xd1b54a32d192ed03
}

// Uint64 returns the next 64 uniformly distributed bits (xoshiro256++).
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Int63 returns a non-negative 63-bit integer.
func (r *Source) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with n=%d", n))
	}
	// Lemire's nearly-divisionless bounded generation.
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64s fills dst with uniform float64s in [0, 1), advancing the stream
// exactly len(dst) draws. The sequence is identical to len(dst) successive
// Float64 calls; the block form exists because the Monte-Carlo sampling hot
// loop draws hundreds of thousands of variates per evaluation, and keeping
// the xoshiro256++ state in locals across the loop (instead of re-loading it
// through the receiver on every non-inlined Uint64 call) measurably reduces
// the per-draw cost.
func (r *Source) Float64s(dst []float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		x := bits.RotateLeft64(s0+s3, 23) + s0
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		dst[i] = float64(x>>11) / (1 << 53)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// Float64Open returns a uniform float64 in (0, 1), never exactly zero.
// Samplers that take a logarithm use this to avoid -Inf.
func (r *Source) Float64Open() float64 {
	for {
		f := r.Float64()
		if f > 0 {
			return f
		}
	}
}

// Uniform returns a uniform float64 in [a, b). It panics if b < a.
func (r *Source) Uniform(a, b float64) float64 {
	if b < a {
		panic(fmt.Sprintf("rng: Uniform called with a=%g > b=%g", a, b))
	}
	return a + (b-a)*r.Float64()
}

// Perm returns a uniformly random permutation of [0, n) (Fisher–Yates).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a uniformly random permutation of [0, len(p)),
// consuming exactly the same stream as Perm(len(p)). It exists so steady-
// state loops (the GA's per-generation tournament) can reuse one scratch
// slice instead of allocating a fresh permutation every call.
func (r *Source) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
}

// Shuffle permutes p uniformly at random in place.
func (r *Source) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("rng: Exp called with rate=%g", rate))
	}
	return -math.Log(r.Float64Open()) / rate
}

// Norm returns a normal variate with the given mean and standard deviation,
// using the Marsaglia polar method.
func (r *Source) Norm(mean, stddev float64) float64 {
	if stddev < 0 {
		panic(fmt.Sprintf("rng: Norm called with stddev=%g", stddev))
	}
	return mean + stddev*r.stdNorm()
}

func (r *Source) stdNorm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// Gamma returns a gamma variate with the given shape k and scale θ
// (mean k·θ, variance k·θ²). The paper's COV-based matrix generation (Ali
// et al., HCW 2000) draws both task means and per-machine execution times
// from gamma distributions parameterized this way.
//
// Shape >= 1 uses Marsaglia & Tsang's squeeze method; shape < 1 uses the
// boost Gamma(k) = Gamma(k+1) · U^{1/k}.
func (r *Source) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic(fmt.Sprintf("rng: Gamma called with shape=%g scale=%g", shape, scale))
	}
	if shape < 1 {
		u := r.Float64Open()
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.stdNorm()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// GammaMeanCOV returns a gamma variate parameterized by its mean and
// coefficient of variation, the form used throughout Ali et al.'s
// heterogeneity model: shape = 1/COV², scale = mean·COV².
func (r *Source) GammaMeanCOV(mean, cov float64) float64 {
	if mean <= 0 || cov <= 0 {
		panic(fmt.Sprintf("rng: GammaMeanCOV called with mean=%g cov=%g", mean, cov))
	}
	return r.Gamma(1/(cov*cov), mean*cov*cov)
}

// LogNormalQuantile returns the lognormal quantile (inverse CDF) at u for the
// distribution of exp(N(mu, sigma²)). It is a pure function of (mu, sigma, u)
// so that the Monte-Carlo SoA sampler and the antithetic mirror can evaluate
// the same variate at u and 1−u with bit-identical floating-point op order
// (every Float64 output k/2^53 makes 1−u exactly representable). u is
// clamped to [2^-53, 1−2^-53], the smallest and largest positive draws, so
// neither a draw of 0 nor its mirror 1 yields 0 or +Inf.
func LogNormalQuantile(mu, sigma, u float64) float64 {
	if u <= 0 {
		u = 0x1p-53
	} else if u >= 1 {
		u = 1 - 0x1p-53
	}
	return math.Exp(mu + sigma*(math.Sqrt2*math.Erfinv(2*u-1)))
}

// BoundedParetoQuantile returns the quantile (inverse CDF) at u of the Pareto
// distribution with tail index alpha truncated to [lo, hi]:
//
//	F(x) = (1 − (lo/x)^α) / (1 − (lo/hi)^α),  lo ≤ x ≤ hi.
//
// Like LogNormalQuantile it is a pure function so sampler and mirror share
// one op order. Both endpoints are finite: u=0 → lo, u→1 → hi.
func BoundedParetoQuantile(lo, hi, alpha, u float64) float64 {
	ratio := math.Pow(lo/hi, alpha)
	return lo / math.Pow(1-u*(1-ratio), 1/alpha)
}
