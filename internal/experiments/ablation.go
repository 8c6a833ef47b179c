package experiments

import (
	"fmt"

	"robsched/internal/dynamic"
	"robsched/internal/heft"
	"robsched/internal/platform"
	"robsched/internal/repair"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/schedule"
	"robsched/internal/stats"
	"robsched/internal/stoch"
)

// AblationSeed measures what the HEFT seed chromosome buys the
// ε-constraint GA (Section 4.2.2 prescribes seeding): for each uncertainty
// level, the mean expected makespan (relative to HEFT) and mean slack of
// the final schedule with and without the seed, at the configured GA
// budget. Returned series (x = UL): "seeded,M0/MHEFT", "seeded,slack",
// "unseeded,M0/MHEFT", "unseeded,slack".
func (c Config) AblationSeed() ([]Series, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	seeded := c.ablationOptions()
	unseeded := seeded
	unseeded.NoHEFTSeed = true
	names := []string{"seeded,M0/MHEFT", "seeded,slack", "unseeded,M0/MHEFT", "unseeded,slack"}
	return c.ulSeries(names, stats.Mean, func(seed uint64, w *platform.Workload) ([]float64, error) {
		var row []float64
		for _, opt := range []robust.Options{seeded, unseeded} {
			res, err := robust.Solve(w, opt, rng.New(seed^0xab1))
			if err != nil {
				return nil, err
			}
			row = append(row, res.Schedule.Makespan()/res.MHEFT, res.Schedule.AvgSlack())
		}
		return row, nil
	})
}

// AblationSlackMetric compares the paper's average-slack surrogate with
// the minimum-slack variant under the ε-constraint GA: realized R1 and R2
// per uncertainty level. Returned series (x = UL): "avg,lnR1", "avg,lnR2",
// "min,lnR1", "min,lnR2". The minimum slack of every schedule is 0 up to
// rounding, so the "min" runs search on rounding residue rather than on
// robustness (see robust.MinSlack).
func (c Config) AblationSlackMetric() ([]Series, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	avgOpt := c.ablationOptions()
	avgOpt.SlackMetric = robust.AvgSlack
	minOpt := avgOpt
	minOpt.SlackMetric = robust.MinSlack
	names := []string{"avg,lnR1", "avg,lnR2", "min,lnR1", "min,lnR2"}
	return c.ulSeries(names, meanFinite, func(seed uint64, w *platform.Workload) ([]float64, error) {
		var row []float64
		for _, opt := range []robust.Options{avgOpt, minOpt} {
			res, err := robust.Solve(w, opt, rng.New(seed^0xab2))
			if err != nil {
				return nil, err
			}
			ms, err := c.evaluateAll([]*schedule.Schedule{res.Schedule}, c.simOptions(), rng.New(seed^0xab3))
			if err != nil {
				return nil, err
			}
			// Capped ln R1 and ln R2.
			row = append(row, stats.LogRatio(ms[0].R1, 1), stats.LogRatio(ms[0].R2, 1))
		}
		return row, nil
	})
}

// AblationRiskFactor sweeps the variance-aware HEFT's risk factor k
// (durations E[c] + k·σ) and reports the mean relative change versus plain
// HEFT of realized mean makespan and mean tardiness, averaged over graphs,
// per uncertainty level. Returned series (x = k): one pair of series per
// UL.
func (c Config) AblationRiskFactor(ks []float64) ([]Series, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if len(ks) == 0 {
		ks = []float64{0, 0.5, 1, 2, 3}
	}
	nk := len(ks)
	var out []Series
	for u, ul := range c.ULs {
		// Per graph: the relative change of the realized mean makespan at
		// every k, then that of the mean tardiness.
		rows, err := c.perGraph(u, ul, func(seed uint64, w *platform.Workload) ([]float64, error) {
			plain, err := heft.HEFT(w, heft.Options{})
			if err != nil {
				return nil, err
			}
			schedules := []*schedule.Schedule{plain}
			for _, k := range ks {
				s, err := stoch.HEFT(w, k)
				if err != nil {
					return nil, err
				}
				schedules = append(schedules, s)
			}
			ms, err := c.evaluateAll(schedules, c.simOptions(), rng.New(seed^0xab4))
			if err != nil {
				return nil, err
			}
			row := make([]float64, 2*nk)
			for ki := range ks {
				row[ki] = (ms[ki+1].MeanMakespan - ms[0].MeanMakespan) / ms[0].MeanMakespan
				if ms[0].MeanTardiness > 0 {
					row[nk+ki] = (ms[ki+1].MeanTardiness - ms[0].MeanTardiness) / ms[0].MeanTardiness
				}
			}
			return row, nil
		})
		if err != nil {
			return nil, err
		}
		m := columnMeans(rows, stats.Mean)
		out = append(out,
			Series{Name: fmtUL(ul) + ",ΔreMean", X: append([]float64(nil), ks...), Y: m[:nk:nk]},
			Series{Name: fmtUL(ul) + ",Δtardiness", X: append([]float64(nil), ks...), Y: m[nk:]})
	}
	return out, nil
}

// AblationGAParams sweeps the GA's crossover and mutation rates on a grid
// and reports, per (pc, pm) pair, the mean final slack of the ε-constraint
// GA (at the first configured UL) relative to the paper's setting
// pc=0.9, pm=0.1. Returned series: one per pc value with x = pm.
func (c Config) AblationGAParams(pcs, pms []float64) ([]Series, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if len(pcs) == 0 {
		pcs = []float64{0.5, 0.9}
	}
	if len(pms) == 0 {
		pms = []float64{0.02, 0.1, 0.3}
	}
	base := c.ablationOptions()
	// slacks returns every graph's final average slack at rates (pc, pm).
	slacks := func(pc, pm float64, salt uint64) ([][]float64, error) {
		opt := base
		opt.CrossoverRate, opt.MutationRate = pc, pm
		return c.perGraph(7, c.ULs[0], func(seed uint64, w *platform.Workload) ([]float64, error) {
			res, err := robust.Solve(w, opt, rng.New(seed^salt))
			if err != nil {
				return nil, err
			}
			return []float64{res.Schedule.AvgSlack()}, nil
		})
	}
	// Reference slack at the paper's rates, per graph.
	ref, err := slacks(0.9, 0.1, 0xab7)
	if err != nil {
		return nil, err
	}
	var out []Series
	for _, pc := range pcs {
		y := make([]float64, len(pms))
		for pi, pm := range pms {
			rows, err := slacks(pc, pm, 0xab8)
			if err != nil {
				return nil, err
			}
			vals := make([]float64, c.Graphs)
			for g, row := range rows {
				vals[g] = 1
				if ref[g][0] > 0 {
					vals[g] = row[0] / ref[g][0]
				}
			}
			y[pi] = stats.Mean(vals)
		}
		out = append(out, Series{Name: fmt.Sprintf("pc=%.2g", pc), X: append([]float64(nil), pms...), Y: y})
	}
	return out, nil
}

// PolicyComparison pits the four execution strategies against each other
// across the uncertainty levels, all on identical workloads: static HEFT
// (right-shift), reactive repair of the HEFT schedule, the fully dynamic
// dispatcher, and the paper's ε-constraint robust GA schedule. One
// evaluation seed gives every strategy the same duration matrix per
// realization, under the configured scenario's model. Reported per
// strategy: the realized mean makespan normalized by static HEFT's
// (x = UL). Values below 1 beat the static baseline.
func (c Config) PolicyComparison(eps, repairThreshold float64) ([]Series, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if eps <= 0 {
		eps = 1.4
	}
	if repairThreshold <= 0 {
		repairThreshold = 0.05
	}
	opt := c.epsOptions(eps)
	names := []string{"static-heft", "repair", "dynamic", "robust-ga"}
	return c.ulSeries(names, stats.Mean, func(seed uint64, w *platform.Workload) ([]float64, error) {
		hs, err := heft.HEFT(w, heft.Options{})
		if err != nil {
			return nil, err
		}
		res, err := robust.Solve(w, opt, rng.New(seed^0xab5))
		if err != nil {
			return nil, err
		}
		simOpt := c.simOptions()
		evalSeed := seed ^ 0xab6
		static, err := c.evaluateAll([]*schedule.Schedule{hs, res.Schedule}, simOpt, rng.New(evalSeed))
		if err != nil {
			return nil, err
		}
		rep, err := repair.Evaluate(hs, repair.Policy{Threshold: repairThreshold}, simOpt, rng.New(evalSeed))
		if err != nil {
			return nil, err
		}
		dyn, err := dynamic.Evaluate(w, simOpt, rng.New(evalSeed))
		if err != nil {
			return nil, err
		}
		baseMean := static[0].MeanMakespan
		return []float64{
			1,
			rep.MeanMakespan / baseMean,
			dyn.MeanMakespan / baseMean,
			static[1].MeanMakespan / baseMean,
		}, nil
	})
}
