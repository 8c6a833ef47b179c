package sim

import (
	"fmt"
	"math"
	"testing"

	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// refMirrored reflects every uniform draw of the wrapped source across its
// interval midpoint — the antithetic counterpart stream, as the pre-batching
// scalar engine implemented it.
type refMirrored struct {
	src *rng.Source
}

func (m refMirrored) Uniform(a, b float64) float64 {
	return a + b - m.src.Uniform(a, b)
}

// refMakespans is an independent reimplementation of the pre-batching scalar
// engine: one realization at a time, full n×m matrix sampled, one
// MakespanInto pass per schedule. The uniform model samples through
// Workload.SampleDuration; every other model (or correlation mode) through
// refGeneralMatrix. The batched engine must reproduce it bit for bit for
// every worker count and batch width.
func refMakespans(tb testing.TB, ss []*schedule.Schedule, opt Options, root *rng.Source) [][]float64 {
	tb.Helper()
	w := ss[0].Workload()
	n, m := w.N(), w.M()
	seeds := make([]uint64, opt.Realizations)
	for i := range seeds {
		if opt.Antithetic && i%2 == 1 {
			seeds[i] = seeds[i-1]
		} else {
			seeds[i] = root.Uint64()
		}
	}
	out := make([][]float64, len(ss))
	for j := range out {
		out[j] = make([]float64, opt.Realizations)
	}
	durs := make([]float64, n*m)
	dur := make([]float64, n)
	startBuf := make([]float64, n)
	finishBuf := make([]float64, n)
	for i := 0; i < opt.Realizations; i++ {
		refMatrix(durs, w, opt, rng.New(seeds[i]), opt.Antithetic && i%2 == 1)
		for j, s := range ss {
			for t := 0; t < n; t++ {
				dur[t] = durs[t*m+s.Proc(t)]
			}
			out[j][i] = s.MakespanInto(dur, startBuf, finishBuf)
		}
	}
	return out
}

// refMatrix samples one full n×m duration matrix, row-major, as the scalar
// engine did: through Workload.SampleDuration (midpoint-mirrored when
// mirrored) under the uniform model, through refGeneralMatrix otherwise.
func refMatrix(durs []float64, w *platform.Workload, opt Options, r *rng.Source, mirrored bool) {
	if opt.Model != ModelUniform || opt.Corr != CorrNone {
		refGeneralMatrix(durs, w, opt, r, mirrored)
		return
	}
	var src interface{ Uniform(a, b float64) float64 } = r
	if mirrored {
		src = refMirrored{r}
	}
	m := w.M()
	for k := range durs {
		durs[k] = w.SampleDuration(k/m, k%m, src)
	}
}

// refGeneralMatrix samples one full n×m duration matrix under opt's model
// and correlation mode, straight from the specification: the realization's
// whole uniform block (load-factor draws — m under CorrShared, n·m under
// CorrIndep — then one draw per non-degenerate pair in pair order) is drawn
// with one rng.Float64s call and, when mirrored, every draw becomes 1−u.
// Every pair is transformed with the public quantile functions, then
// multiplied by its mean-1 lognormal load factor.
func refGeneralMatrix(durs []float64, w *platform.Workload, opt Options, r *rng.Source, mirrored bool) {
	n, m := w.N(), w.M()
	loadDraws := 0
	switch opt.Corr {
	case CorrShared:
		loadDraws = m
	case CorrIndep:
		loadDraws = n * m
	}
	draws := 0
	for k := 0; k < n*m; k++ {
		b := w.BCET.At(k/m, k%m)
		if (2*w.UL.At(k/m, k%m)-1)*b > b {
			draws++
		}
	}
	u := make([]float64, loadDraws+draws)
	r.Float64s(u)
	if mirrored {
		for i := range u {
			u[i] = 1 - u[i]
		}
	}
	s2 := math.Log(1 + opt.LoadCOV*opt.LoadCOV)
	loadMu, loadSigma := -s2/2, math.Sqrt(s2)
	j := loadDraws
	for k := 0; k < n*m; k++ {
		b := w.BCET.At(k/m, k%m)
		hi := (2*w.UL.At(k/m, k%m) - 1) * b
		v := b
		if hi > b {
			uu := u[j]
			j++
			switch opt.Model {
			case ModelUniform:
				v = b + (hi-b)*uu
			case ModelLognormal:
				mean := (b + hi) / 2
				variance := (hi - b) * (hi - b) / 12
				ls2 := math.Log(1 + variance/(mean*mean))
				v = rng.LogNormalQuantile(math.Log(mean)-ls2/2, math.Sqrt(ls2), uu)
			case ModelBoundedPareto:
				// The support's upper end is lo + width, as the engine
				// stores it; it can differ from hi in the last bit.
				v = rng.BoundedParetoQuantile(b, b+(hi-b), opt.ParetoShape, uu)
			}
		}
		switch opt.Corr {
		case CorrShared:
			v *= rng.LogNormalQuantile(loadMu, loadSigma, u[k%m])
		case CorrIndep:
			v *= rng.LogNormalQuantile(loadMu, loadSigma, u[k])
		}
		durs[k] = v
	}
}

// equivSchedules builds a small family of schedules over one workload: HEFT
// plus deterministic round-robin variants.
func equivSchedules(tb testing.TB, w *platform.Workload, count int) []*schedule.Schedule {
	return benchSchedules(tb, w, count)
}

// TestBatchedMatchesScalar is the batched-vs-scalar equivalence property:
// over random workloads (including one with mean UL 1, whose many
// degenerate pairs exercise the no-draw sampling path), the uniform model
// and every modelCases() entry, batch widths 1, 3, 8 and 17, several worker
// counts and antithetic on/off, every per-realization makespan and every
// metric field must be bit-identical to the scalar reference pass.
func TestBatchedMatchesScalar(t *testing.T) {
	workloads := []*platform.Workload{
		testWorkload(t, 101, 30, 4, 4),
		testWorkload(t, 103, 57, 3, 2),
		testWorkload(t, 105, 100, 8, 6),
		testWorkload(t, 107, 23, 5, 1), // UL == 1: degenerate distributions
	}
	const realizations = 101 // odd: tail batch + an unpaired antithetic draw
	for _, model := range append([]Options{{}}, modelCases()...) {
		for wi, w := range workloads {
			ss := equivSchedules(t, w, 3)
			for _, anti := range []bool{false, true} {
				base := model
				base.Realizations = realizations
				base.Antithetic = anti
				ref := refMakespans(t, ss, base, rng.New(uint64(900+wi)))
				refMetrics, err := EvaluateAll(ss, withWB(base, 1, 1), rng.New(uint64(900+wi)))
				if err != nil {
					t.Fatal(err)
				}
				for _, batch := range []int{1, 3, 8, 17} {
					for _, workers := range []int{1, 2, 5} {
						opt := withWB(base, workers, batch)
						label := fmt.Sprintf("model=%s-%s workload=%d anti=%v batch=%d workers=%d",
							model.Model, model.Corr, wi, anti, batch, workers)
						mks, err := RealizeAll(ss, opt, rng.New(uint64(900+wi)))
						if err != nil {
							t.Fatal(err)
						}
						for j := range ss {
							for i := range mks[j] {
								if mks[j][i] != ref[j][i] {
									t.Fatalf("%s: schedule %d realization %d: batched %v != scalar %v",
										label, j, i, mks[j][i], ref[j][i])
								}
							}
						}
						ms, err := EvaluateAll(ss, opt, rng.New(uint64(900+wi)))
						if err != nil {
							t.Fatal(err)
						}
						for j := range ss {
							if !metricsIdentical(ms[j], refMetrics[j]) {
								t.Fatalf("%s: schedule %d metrics diverged:\n%+v\n%+v",
									label, j, ms[j], refMetrics[j])
							}
						}
					}
				}
			}
		}
	}
}

// TestSharedEngineViews: CVaR and DeadlineForConfidence are views over the
// same batched engine, so with equal Options and root seed they must be
// exactly consistent with Evaluate's sample — the 95% confidence deadline
// IS the P95 order statistic, and CVaR at q is at least the q-quantile —
// for every worker count, batch width and antithetic setting.
func TestSharedEngineViews(t *testing.T) {
	w := testWorkload(t, 111, 40, 4, 4)
	s := heftSchedule(t, w)
	for _, workers := range []int{1, 4} {
		for _, anti := range []bool{false, true} {
			opt := Options{Realizations: 400, Workers: workers, Antithetic: anti, BatchSize: 8}
			m, err := Evaluate(s, opt, rng.New(13))
			if err != nil {
				t.Fatal(err)
			}
			d95, err := DeadlineForConfidence(s, 0.95, opt, rng.New(13))
			if err != nil {
				t.Fatal(err)
			}
			if d95 != m.P95 {
				t.Errorf("workers=%d anti=%v: DeadlineForConfidence(0.95) %v != P95 %v",
					workers, anti, d95, m.P95)
			}
			cvar95, err := CVaR(s, 0.95, opt, rng.New(13))
			if err != nil {
				t.Fatal(err)
			}
			if cvar95 < m.P95 || cvar95 > m.MaxMakespan {
				t.Errorf("workers=%d anti=%v: CVaR95 %v outside [P95 %v, max %v]",
					workers, anti, cvar95, m.P95, m.MaxMakespan)
			}
			// Worker-independence of the derived views themselves.
			d95Serial, err := DeadlineForConfidence(s, 0.95, Options{Realizations: 400, Workers: 1, Antithetic: anti, BatchSize: 3}, rng.New(13))
			if err != nil {
				t.Fatal(err)
			}
			if d95 != d95Serial {
				t.Errorf("anti=%v: deadline varies with workers/batch: %v vs %v", anti, d95, d95Serial)
			}
		}
	}
}
