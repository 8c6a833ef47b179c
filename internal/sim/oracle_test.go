package sim

// Closed-form oracles for the Monte-Carlo layer. On two graphs the realized
// makespan distribution is known exactly: a chain on one processor sums its
// durations, and independent tasks on distinct processors take their max.
// Most (task, processor) pairs of both workloads lie outside the read set
// and carry distributions far from the read pairs', so a sampler entry that
// reads another pair's constants fails here even when it is self-consistent.

import (
	"math"
	"testing"

	"robsched/internal/dag"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

const oracleRealizations = 20000

// oracleModels are the three duration models at the CorrNone setting.
func oracleModels() []Options {
	return []Options{
		{Model: ModelUniform},
		{Model: ModelLognormal},
		{Model: ModelBoundedPareto, ParetoShape: 1.5},
	}
}

// oracleWorkload builds an n×m workload over g whose pair (t, p) has BCET
// and UL from the given functions, on a uniform-rate system.
func oracleWorkload(t *testing.T, g *dag.Graph, m int, bcet, ul func(task, p int) float64) *platform.Workload {
	t.Helper()
	n := g.N()
	b, u := platform.NewMatrix(n, m), platform.NewMatrix(n, m)
	for i := 0; i < n; i++ {
		for p := 0; p < m; p++ {
			b.Set(i, p, bcet(i, p))
			u.Set(i, p, ul(i, p))
		}
	}
	w, err := platform.NewWorkload(g, platform.UniformSystem(m, 1), b, u)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// marginal is the exact distribution of one pair's duration under a model:
// support [lo, hi], hi = (2·UL−1)·lo, degenerate when hi == lo.
type marginal struct {
	model     DurationModel
	lo, hi    float64
	alpha     float64
	mu, sigma float64 // lognormal, moment-matched to U(lo, hi)
}

func newMarginal(opt Options, lo, ul float64) marginal {
	d := marginal{model: opt.Model, lo: lo, hi: (2*ul - 1) * lo, alpha: opt.ParetoShape}
	mean, variance := (d.lo+d.hi)/2, (d.hi-d.lo)*(d.hi-d.lo)/12
	s2 := math.Log(1 + variance/(mean*mean))
	d.mu, d.sigma = math.Log(mean)-s2/2, math.Sqrt(s2)
	return d
}

func (d marginal) mean() float64 {
	if d.hi <= d.lo || d.model != ModelBoundedPareto {
		return (d.lo + d.hi) / 2 // the lognormal matches this mean
	}
	a, l, h := d.alpha, d.lo, d.hi
	return math.Pow(l, a) / (1 - math.Pow(l/h, a)) * a / (a - 1) *
		(math.Pow(l, 1-a) - math.Pow(h, 1-a))
}

func (d marginal) cdf(x float64) float64 {
	if x < d.lo {
		return 0
	}
	if d.hi <= d.lo {
		return 1
	}
	switch d.model {
	case ModelLognormal:
		return 0.5 * math.Erfc(-(math.Log(x)-d.mu)/(d.sigma*math.Sqrt2))
	case ModelBoundedPareto:
		if x >= d.hi {
			return 1
		}
		return (1 - math.Pow(d.lo/x, d.alpha)) / (1 - math.Pow(d.lo/d.hi, d.alpha))
	}
	return math.Min(1, (x-d.lo)/(d.hi-d.lo))
}

// TestChainMeanOracle: a 12-task chain with every task on processor 2 of 4
// has makespan Σ d_t, so its exact mean is Σ E[d_t] — shared by the uniform
// and the moment-matched lognormal model, in closed form for the bounded
// Pareto. The sampled mean must lie within 4 standard errors of it.
func TestChainMeanOracle(t *testing.T) {
	const n, m, onProc = 12, 4, 2
	b := dag.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.MustAddEdge(i, i+1, 1)
	}
	bcet := func(task, p int) float64 {
		if p == onProc {
			return float64(4 + task)
		}
		return float64(50 + 7*p + task)
	}
	ul := func(task, p int) float64 {
		if p == onProc {
			if task == 5 {
				return 1 // one deterministic link in the chain
			}
			return 1.5 + 0.25*float64(task%8)
		}
		return 1 + 0.5*float64((task+p)%4) // some off-read pairs draw nothing
	}
	w := oracleWorkload(t, b.MustBuild(), m, bcet, ul)
	order, proc := make([]int, n), make([]int, n)
	for i := range order {
		order[i], proc[i] = i, onProc
	}
	s, err := schedule.FromOrder(w, order, proc)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range oracleModels() {
		exact := 0.0
		for i := 0; i < n; i++ {
			exact += newMarginal(opt, bcet(i, onProc), ul(i, onProc)).mean()
		}
		opt.Realizations = oracleRealizations
		got, err := Evaluate(s, opt, rng.New(71))
		if err != nil {
			t.Fatal(err)
		}
		se := got.StdMakespan / math.Sqrt(oracleRealizations)
		t.Logf("%s: sampled mean %.4f, exact %.4f, SE %.4f", opt.Model, got.MeanMakespan, exact, se)
		if math.Abs(got.MeanMakespan-exact) > 4*se {
			t.Errorf("%s: sampled mean %v is %.1f SE from the exact %v",
				opt.Model, got.MeanMakespan, math.Abs(got.MeanMakespan-exact)/se, exact)
		}
	}
}

// TestIndependentMaxP95Oracle: 4 independent tasks on 4 distinct processors
// out of 6 have makespan max_t d_t, whose CDF is the product of the
// marginal CDFs. The exact CDF at the sampled P95 must lie within
// 0.95 ± 4·√(0.95·0.05/N).
func TestIndependentMaxP95Oracle(t *testing.T) {
	const n, m = 4, 6
	procs := []int{5, 1, 3, 0}
	readB := []float64{10, 12, 9, 11}
	readUL := []float64{2, 2.5, 3, 1.8}
	bcet := func(task, p int) float64 {
		if p == procs[task] {
			return readB[task]
		}
		return float64(30 + 5*p + 3*task)
	}
	ul := func(task, p int) float64 {
		if p == procs[task] {
			return readUL[task]
		}
		return 1 + 0.75*float64((task+2*p)%3)
	}
	w := oracleWorkload(t, dag.NewBuilder(n).MustBuild(), m, bcet, ul)
	s, err := schedule.FromOrder(w, []int{0, 1, 2, 3}, procs)
	if err != nil {
		t.Fatal(err)
	}
	tol := 4 * math.Sqrt(0.95*0.05/oracleRealizations)
	for _, opt := range oracleModels() {
		ds := make([]marginal, n)
		for i := range ds {
			ds[i] = newMarginal(opt, readB[i], readUL[i])
		}
		cdf := func(x float64) float64 {
			f := 1.0
			for _, d := range ds {
				f *= d.cdf(x)
			}
			return f
		}
		lo, hi := 0.0, 1.0
		for cdf(hi) < 0.95 {
			hi *= 2
		}
		for i := 0; i < 200; i++ {
			if mid := (lo + hi) / 2; cdf(mid) < 0.95 {
				lo = mid
			} else {
				hi = mid
			}
		}
		opt.Realizations = oracleRealizations
		got, err := Evaluate(s, opt, rng.New(73))
		if err != nil {
			t.Fatal(err)
		}
		f := cdf(got.P95)
		t.Logf("%s: sampled P95 %.4f, exact P95 %.4f, exact CDF at sampled P95 %.4f", opt.Model, got.P95, hi, f)
		if math.Abs(f-0.95) > tol {
			t.Errorf("%s: exact CDF at the sampled P95 %v is %v, want 0.95 ± %.4f", opt.Model, got.P95, f, tol)
		}
	}
}
