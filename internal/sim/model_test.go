package sim

// Tests for the duration-model extension: lognormal and bounded-Pareto
// duration distributions and the correlated (shared per-processor load)
// sampling mode. The invariants pinned here are the ones the scenario layer
// depends on: bit-identity across worker counts and batch widths for every
// model, exact antithetic mirroring (the mirrored realization evaluates the
// same transforms at exactly 1−u), moment matching of the lognormal tables,
// and the paper-gap regression — P95 makespan under correlated load strictly
// dominates the independent model at equal marginal variance.

import (
	"errors"
	"math"
	"testing"

	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// modelCases enumerates every non-default (Model, Corr) combination the
// general sampling path serves.
func modelCases() []Options {
	return []Options{
		{Model: ModelLognormal},
		{Model: ModelBoundedPareto, ParetoShape: 1.5},
		{Model: ModelUniform, Corr: CorrShared, LoadCOV: 0.4},
		{Model: ModelUniform, Corr: CorrIndep, LoadCOV: 0.4},
		{Model: ModelLognormal, Corr: CorrShared, LoadCOV: 0.3},
		{Model: ModelBoundedPareto, ParetoShape: 2.5, Corr: CorrIndep, LoadCOV: 0.25},
	}
}

func TestModelOptionsValidate(t *testing.T) {
	cases := []struct {
		opt   Options
		field string
	}{
		{Options{Realizations: 10, Model: numDurationModels}, "Model"},
		{Options{Realizations: 10, Corr: numCorrelations}, "Corr"},
		{Options{Realizations: 10, LoadCOV: math.NaN()}, "LoadCOV"},
		{Options{Realizations: 10, LoadCOV: -0.5}, "LoadCOV"},
		{Options{Realizations: 10, Corr: CorrShared}, "LoadCOV"},
		{Options{Realizations: 10, Corr: CorrIndep}, "LoadCOV"},
		{Options{Realizations: 10, ParetoShape: math.Inf(1)}, "ParetoShape"},
		{Options{Realizations: 10, ParetoShape: -1}, "ParetoShape"},
		{Options{Realizations: 10, Model: ModelBoundedPareto}, "ParetoShape"},
	}
	for i, c := range cases {
		err := c.opt.Validate()
		if err == nil {
			t.Errorf("case %d accepted: %+v", i, c.opt)
			continue
		}
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Errorf("case %d: error %v is not an *OptionError", i, err)
			continue
		}
		if oe.Field != c.field {
			t.Errorf("case %d: error names field %q, want %q", i, oe.Field, c.field)
		}
	}
	for i, opt := range modelCases() {
		opt.Realizations = 10
		if err := opt.Validate(); err != nil {
			t.Errorf("valid model case %d rejected: %v", i, err)
		}
	}
}

// TestModelWorkerBatchInvariance pins the bit-identity contract for every
// model × correlation combination: the realized makespan vectors are exactly
// equal for any Workers/BatchSize setting, antithetic or not.
func TestModelWorkerBatchInvariance(t *testing.T) {
	w := testWorkload(t, 11, 30, 4, 4)
	ss := []*schedule.Schedule{heftSchedule(t, w)}
	for _, anti := range []bool{false, true} {
		for ci, base := range modelCases() {
			base.Realizations = 97 // odd, not a batch multiple
			base.Antithetic = anti
			ref, err := RealizeAll(ss, withWB(base, 1, 1), rng.New(42))
			if err != nil {
				t.Fatalf("case %d: %v", ci, err)
			}
			for _, wb := range [][2]int{{1, 8}, {4, 8}, {4, 1}, {3, 32}} {
				got, err := RealizeAll(ss, withWB(base, wb[0], wb[1]), rng.New(42))
				if err != nil {
					t.Fatalf("case %d workers=%d batch=%d: %v", ci, wb[0], wb[1], err)
				}
				for i := range ref[0] {
					if got[0][i] != ref[0][i] {
						t.Fatalf("case %d anti=%v workers=%d batch=%d: realization %d = %v, want %v",
							ci, anti, wb[0], wb[1], i, got[0][i], ref[0][i])
					}
				}
			}
		}
	}
}

func withWB(o Options, workers, batch int) Options {
	o.Workers = workers
	o.BatchSize = batch
	return o
}

// allPairs is the read set of every (task, processor) pair of w, so a
// sampler built over it samples the full matrix with entry k == pair k.
func allPairs(w *platform.Workload) []int32 {
	pairs := make([]int32, w.N()*w.M())
	for k := range pairs {
		pairs[k] = int32(k)
	}
	return pairs
}

// TestGeneralMirrorExact is the white-box antithetic contract for the
// general path: the mirrored realization must evaluate exactly the same
// transforms at exactly 1−u, for every duration model and correlation mode.
// The expected matrix is recomputed here from the raw uniform block by an
// independent (test-local) implementation of the spec.
func TestGeneralMirrorExact(t *testing.T) {
	w := testWorkload(t, 12, 15, 3, 3)
	n, m := w.N(), w.M()
	for ci, opt := range modelCases() {
		sp := newSampler(w, opt, allPairs(w))
		if !sp.general() {
			t.Fatalf("case %d: expected general sampler", ci)
		}
		ls := sp.newLanes()
		fwd := make([]float64, n*m*8) // entry k's lane 0 at k*8
		mir := make([]float64, n*m*8)
		const seed = 777
		sp.sample(fwd, []uint64{seed}, 0, ls)
		sp.sample(mir, []uint64{seed}, 1, ls)

		// Reference: draw the same block, flip every uniform, apply the
		// documented transforms.
		ref := make([]float64, sp.scratch())
		rng.New(seed).Float64s(ref)
		for i := range ref {
			ref[i] = 1 - ref[i]
		}
		j := sp.loadDraws
		for k := 0; k < n*m; k++ {
			v := sp.lo[k]
			if sp.width[k] > 0 {
				uu := ref[j]
				j++
				switch opt.Model {
				case ModelUniform:
					v = sp.lo[k] + sp.width[k]*uu
				case ModelLognormal:
					v = rng.LogNormalQuantile(sp.mu[k], sp.sigma[k], uu)
				case ModelBoundedPareto:
					v = rng.BoundedParetoQuantile(sp.lo[k], sp.lo[k]+sp.width[k], opt.ParetoShape, uu)
				}
			}
			switch opt.Corr {
			case CorrShared:
				v *= rng.LogNormalQuantile(sp.loadMu, sp.loadSigma, ref[k%m])
			case CorrIndep:
				v *= rng.LogNormalQuantile(sp.loadMu, sp.loadSigma, ref[k])
			}
			if mir[k*8] != v {
				t.Fatalf("case %d entry %d: mirrored sample %v, want exact %v", ci, k, mir[k*8], v)
			}
		}
		// Sanity: the forward and mirrored draws must actually differ
		// somewhere (the mirror is not the identity).
		same := true
		for k := 0; k < n*m; k++ {
			if fwd[k*8] != mir[k*8] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("case %d: mirrored realization identical to forward", ci)
		}
	}
}

// TestLognormalMomentMatch pins the sampler's lognormal parameter tables:
// per non-degenerate pair, exp(mu + sigma²/2) must reproduce the uniform
// model's mean (b+hi)/2 and exp(2mu+sigma²)(exp(sigma²)−1) its variance
// (hi−b)²/12, to floating-point accuracy.
func TestLognormalMomentMatch(t *testing.T) {
	w := testWorkload(t, 13, 20, 4, 3)
	sp := newSampler(w, Options{Model: ModelLognormal}, allPairs(w))
	for k := range sp.lo {
		if sp.width[k] <= 0 {
			continue
		}
		wantMean := sp.sum[k] / 2
		wantVar := sp.width[k] * sp.width[k] / 12
		s2 := sp.sigma[k] * sp.sigma[k]
		gotMean := math.Exp(sp.mu[k] + s2/2)
		gotVar := math.Exp(2*sp.mu[k]+s2) * (math.Exp(s2) - 1)
		if math.Abs(gotMean-wantMean) > 1e-9*wantMean {
			t.Fatalf("pair %d: lognormal mean %v, want %v", k, gotMean, wantMean)
		}
		if math.Abs(gotVar-wantVar) > 1e-9*wantVar {
			t.Fatalf("pair %d: lognormal variance %v, want %v", k, gotVar, wantVar)
		}
	}
}

// TestLoadFactorMomentMatch pins the sampler's load-factor parameters the
// way TestLognormalMomentMatch pins the duration tables: under both
// correlation modes, the lognormal factor's mean exp(loadMu + loadSigma²/2)
// is 1 and its coefficient of variation √(exp(loadSigma²) − 1) is LoadCOV,
// to 1e-12.
func TestLoadFactorMomentMatch(t *testing.T) {
	w := testWorkload(t, 16, 10, 3, 3)
	for _, corr := range []Correlation{CorrShared, CorrIndep} {
		for _, cov := range []float64{0.05, 0.25, 0.4, 1, 3} {
			sp := newSampler(w, Options{Corr: corr, LoadCOV: cov}, allPairs(w))
			s2 := sp.loadSigma * sp.loadSigma
			if mean := math.Exp(sp.loadMu + s2/2); math.Abs(mean-1) > 1e-12 {
				t.Errorf("%v, LoadCOV %v: load-factor mean %v, want 1", corr, cov, mean)
			}
			if got := math.Sqrt(math.Exp(s2) - 1); math.Abs(got-cov) > 1e-12*cov {
				t.Errorf("%v, LoadCOV %v: load-factor COV %v", corr, cov, got)
			}
		}
	}
}

// TestEqualMarginals pins the CorrShared/CorrIndep construction: each matrix
// entry has the identical marginal distribution under both modes (only the
// cross-task dependence differs). Checked empirically entry-wise: sample
// mean and variance of a fixed entry agree within Monte-Carlo tolerance.
func TestEqualMarginals(t *testing.T) {
	w := testWorkload(t, 14, 6, 2, 4)
	n, m := w.N(), w.M()
	const N = 30000
	moments := func(corr Correlation) (mean, variance float64) {
		sp := newSampler(w, Options{Corr: corr, LoadCOV: 0.5}, allPairs(w))
		ls := sp.newLanes()
		dst := make([]float64, n*m*8)
		root := rng.New(55)
		var sum, sumsq float64
		for i := 0; i < N; i++ {
			sp.sample(dst, []uint64{root.Uint64()}, 0, ls)
			v := dst[0] // entry (task 0, proc 0), lane 0
			sum += v
			sumsq += v * v
		}
		mean = sum / N
		variance = sumsq/N - mean*mean
		return
	}
	mS, vS := moments(CorrShared)
	mI, vI := moments(CorrIndep)
	if rel := math.Abs(mS-mI) / mS; rel > 0.02 {
		t.Errorf("entry means diverge: shared %v vs indep %v (rel %.3f)", mS, mI, rel)
	}
	if rel := math.Abs(vS-vI) / vS; rel > 0.10 {
		t.Errorf("entry variances diverge: shared %v vs indep %v (rel %.3f)", vS, vI, rel)
	}
}

// TestCorrSharedP95Dominance is the paper-gap regression test: for a fixed
// schedule, the P95 makespan under correlated per-processor load strictly
// dominates the independent model at equal marginal variance. Averaging over
// independent per-entry factors concentrates the makespan; a shared factor
// cannot be averaged away, so the tail is strictly heavier. The margin is
// pinned (not just > 1) so a silent weakening of the correlation plumbing
// fails the test.
func TestCorrSharedP95Dominance(t *testing.T) {
	w := testWorkload(t, 15, 50, 4, 3)
	ss := []*schedule.Schedule{heftSchedule(t, w)}
	opt := Options{Realizations: 4000, Workers: 2, LoadCOV: 0.5}
	p95 := func(corr Correlation) float64 {
		o := opt
		o.Corr = corr
		ms, err := EvaluateAll(ss, o, rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		return ms[0].P95
	}
	shared, indep := p95(CorrShared), p95(CorrIndep)
	ratio := shared / indep
	t.Logf("P95 shared=%.4f indep=%.4f ratio=%.4f", shared, indep, ratio)
	if ratio <= 1.05 {
		t.Errorf("correlated-load P95 %.4f does not dominate independent P95 %.4f (ratio %.4f, want > 1.05)",
			shared, indep, ratio)
	}
}
