package sim

import (
	"math"
	"testing"

	"robsched/internal/cpu"
	"robsched/internal/rng"
)

// archExpGo is archExp (math/exp_amd64.s) in Go for an argument it neither
// rejects nor rescales: its FMA sequence, which math runs where the CPU has
// FMA, or its plain one. The conversions keep the plain products from
// being fused.
func archExpGo(x float64, fma bool) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2u  = 0.69314718055966295651160180568695068359375
		ln2l  = 0.28235290563031577122588448175013436025525412068e-12
	)
	taylor := [...]float64{
		2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1,
	}
	k := math.RoundToEven(log2e * x)
	p := taylor[0]
	if fma {
		x = math.FMA(-k, ln2u, x)
		x = math.FMA(-k, ln2l, x)
		x *= 0.0625
		for _, c := range taylor[1:] {
			p = math.FMA(x, p, c)
		}
		x *= p
		for range 3 {
			x *= x + 2
		}
		x = math.FMA(x+2, x, 1)
	} else {
		x -= float64(ln2u * k)
		x -= float64(ln2l * k)
		x *= 0.0625
		for _, c := range taylor[1:] {
			p = float64(p*x) + c
		}
		x *= p
		for range 4 {
			x *= x + 2
		}
		x++
	}
	return x * math.Float64frombits(uint64(int64(k)+0x3FF)<<52)
}

// TestLognormalProbeSeparatesFMA: the init check's probe entry tells the
// two sequences of archExp apart, so the lognormal kernel, which replays
// the FMA one, stays off wherever math.Exp runs the plain one (for
// example under GODEBUG=cpu.fma=off). math.Exp equals one transcription
// on every argument tried; on a CPU with AVX2 and FMA the check passes
// exactly when that is the FMA one.
func TestLognormalProbeSeparatesFMA(t *testing.T) {
	r := rng.New(619)
	const tries = 20000
	fmaHits, plainHits := 0, 0
	for range tries {
		x := r.Uniform(-700, 700)
		want := math.Float64bits(math.Exp(x))
		if math.Float64bits(archExpGo(x, true)) == want {
			fmaHits++
		}
		if math.Float64bits(archExpGo(x, false)) == want {
			plainHits++
		}
	}
	if fmaHits != tries && plainHits != tries {
		t.Fatalf("math.Exp matched the FMA sequence on %d and the plain one on %d of %d arguments", fmaHits, plainHits, tries)
	}
	p := lognormalProbe
	separated := 0
	for _, u := range p.u {
		x := p.mu + p.sigma*(math.Sqrt2*math.Erfinv(2*u-1))
		if math.Float64bits(archExpGo(x, true)) != math.Float64bits(archExpGo(x, false)) {
			separated++
		}
	}
	if separated == 0 {
		t.Fatal("no lane of the probe entry separates archExp's FMA and plain sequences")
	}
	t.Logf("math.Exp runs the %s sequence; %d of 8 probe lanes separate the two; kernel on: %v",
		map[bool]string{true: "FMA", false: "plain"}[fmaHits == tries], separated, hasLognormal)
	if cpu.AVX2 && cpu.FMA {
		if matches := lognormalMatches(); matches != (fmaHits == tries) {
			t.Fatalf("the init check passes: %v, but math.Exp matched the FMA sequence on %d of %d arguments",
				matches, fmaHits, tries)
		}
	}
}
