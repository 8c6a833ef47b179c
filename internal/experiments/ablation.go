package experiments

import (
	"fmt"

	"robsched/internal/dynamic"
	"robsched/internal/heft"
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
// budget. Returned series (x = UL): "seeded,M0/MHEFT", "unseeded,M0/MHEFT",
// "seeded,slack", "unseeded,slack".
func (c Config) AblationSeed() ([]Series, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	base := c.gaOptions()
	base.Mode = robust.EpsilonConstraint
	if base.Eps == 0 {
		base.Eps = 1.5
	}
	kinds := []struct {
		name   string
		noSeed bool
	}{{"seeded", false}, {"unseeded", true}}
	x := append([]float64(nil), c.ULs...)
	series := make([]Series, 0, 4)
	results := make([][][2]float64, len(kinds)) // [kind][ul] -> (relM0, slack)
	for ki, kind := range kinds {
		results[ki] = make([][2]float64, len(c.ULs))
		for u, ul := range c.ULs {
			relM0 := make([]float64, c.Graphs)
			slack := make([]float64, c.Graphs)
			err := c.parallelFor(c.Graphs, func(g int) error {
				w, err := c.workload(u, g, ul)
				if err != nil {
					return err
				}
				opt := base
				opt.NoHEFTSeed = kind.noSeed
				res, err := robust.Solve(w, opt, rng.New(c.graphSeed(u, g)^0xab1))
				if err != nil {
					return err
				}
				relM0[g] = res.Schedule.Makespan() / res.MHEFT
				slack[g] = res.Schedule.AvgSlack()
				return nil
			})
			if err != nil {
				return nil, err
			}
			results[ki][u] = [2]float64{stats.Mean(relM0), stats.Mean(slack)}
		}
	}
	for ki, kind := range kinds {
		m0s := make([]float64, len(c.ULs))
		sls := make([]float64, len(c.ULs))
		for u := range c.ULs {
			m0s[u] = results[ki][u][0]
			sls[u] = results[ki][u][1]
		}
		series = append(series,
			Series{Name: kind.name + ",M0/MHEFT", X: x, Y: m0s},
			Series{Name: kind.name + ",slack", X: x, Y: sls})
	}
	return series, nil
}

// AblationSlackMetric compares the paper's average-slack surrogate with
// the minimum-slack variant under the ε-constraint GA: realized R1 and R2
// per uncertainty level. Returned series (x = UL): "avg,R1", "min,R1",
// "avg,R2", "min,R2". The minimum slack of every schedule is 0 up to
// rounding, so the "min" runs search on rounding residue rather than on
// robustness (see robust.MinSlack).
func (c Config) AblationSlackMetric() ([]Series, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	base := c.gaOptions()
	base.Mode = robust.EpsilonConstraint
	if base.Eps == 0 {
		base.Eps = 1.5
	}
	metrics := []struct {
		name string
		m    robust.SlackMetric
	}{{"avg", robust.AvgSlack}, {"min", robust.MinSlack}}
	x := append([]float64(nil), c.ULs...)
	r1s := make([][]float64, len(metrics))
	r2s := make([][]float64, len(metrics))
	for mi, metric := range metrics {
		r1s[mi] = make([]float64, len(c.ULs))
		r2s[mi] = make([]float64, len(c.ULs))
		for u, ul := range c.ULs {
			gr1 := make([]float64, c.Graphs)
			gr2 := make([]float64, c.Graphs)
			err := c.parallelFor(c.Graphs, func(g int) error {
				w, err := c.workload(u, g, ul)
				if err != nil {
					return err
				}
				opt := base
				opt.SlackMetric = metric.m
				res, err := robust.Solve(w, opt, rng.New(c.graphSeed(u, g)^0xab2))
				if err != nil {
					return err
				}
				ms, err := c.evaluateAll([]*schedule.Schedule{res.Schedule}, c.simOptions(), rng.New(c.graphSeed(u, g)^0xab3))
				if err != nil {
					return err
				}
				gr1[g] = stats.LogRatio(ms[0].R1, 1) // capped ln R1
				gr2[g] = stats.LogRatio(ms[0].R2, 1)
				return nil
			})
			if err != nil {
				return nil, err
			}
			r1s[mi][u] = meanFinite(gr1)
			r2s[mi][u] = meanFinite(gr2)
		}
	}
	var out []Series
	for mi, metric := range metrics {
		out = append(out,
			Series{Name: metric.name + ",lnR1", X: x, Y: r1s[mi]},
			Series{Name: metric.name + ",lnR2", X: x, Y: r2s[mi]})
	}
	return out, nil
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
	var out []Series
	for u, ul := range c.ULs {
		meanY := make([]float64, len(ks))
		tardY := make([]float64, len(ks))
		type row struct{ dMean, dTard []float64 }
		rows := make([]row, c.Graphs)
		err := c.parallelFor(c.Graphs, func(g int) error {
			w, err := c.workload(u, g, ul)
			if err != nil {
				return err
			}
			plain, err := heft.HEFT(w, heft.Options{})
			if err != nil {
				return err
			}
			schedules := []*schedule.Schedule{plain}
			for _, k := range ks {
				s, err := stoch.HEFT(w, k)
				if err != nil {
					return err
				}
				schedules = append(schedules, s)
			}
			ms, err := c.evaluateAll(schedules, c.simOptions(), rng.New(c.graphSeed(u, g)^0xab4))
			if err != nil {
				return err
			}
			rows[g] = row{dMean: make([]float64, len(ks)), dTard: make([]float64, len(ks))}
			for ki := range ks {
				rows[g].dMean[ki] = (ms[ki+1].MeanMakespan - ms[0].MeanMakespan) / ms[0].MeanMakespan
				if ms[0].MeanTardiness > 0 {
					rows[g].dTard[ki] = (ms[ki+1].MeanTardiness - ms[0].MeanTardiness) / ms[0].MeanTardiness
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for ki := range ks {
			mv := make([]float64, c.Graphs)
			tv := make([]float64, c.Graphs)
			for g := 0; g < c.Graphs; g++ {
				mv[g] = rows[g].dMean[ki]
				tv[g] = rows[g].dTard[ki]
			}
			meanY[ki] = stats.Mean(mv)
			tardY[ki] = stats.Mean(tv)
		}
		out = append(out,
			Series{Name: fmtUL(ul) + ",ΔreMean", X: append([]float64(nil), ks...), Y: meanY},
			Series{Name: fmtUL(ul) + ",Δtardiness", X: append([]float64(nil), ks...), Y: tardY})
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
	ul := c.ULs[0]
	base := c.gaOptions()
	base.Mode = robust.EpsilonConstraint
	if base.Eps == 0 {
		base.Eps = 1.5
	}
	// Reference slack at the paper's rates, per graph.
	ref := make([]float64, c.Graphs)
	err := c.parallelFor(c.Graphs, func(g int) error {
		w, err := c.workload(7, g, ul)
		if err != nil {
			return err
		}
		opt := base
		opt.CrossoverRate, opt.MutationRate = 0.9, 0.1
		res, err := robust.Solve(w, opt, rng.New(c.graphSeed(7, g)^0xab7))
		if err != nil {
			return err
		}
		ref[g] = res.Schedule.AvgSlack()
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []Series
	for _, pc := range pcs {
		y := make([]float64, len(pms))
		for pi, pm := range pms {
			vals := make([]float64, c.Graphs)
			err := c.parallelFor(c.Graphs, func(g int) error {
				w, err := c.workload(7, g, ul)
				if err != nil {
					return err
				}
				opt := base
				opt.CrossoverRate, opt.MutationRate = pc, pm
				res, err := robust.Solve(w, opt, rng.New(c.graphSeed(7, g)^0xab8))
				if err != nil {
					return err
				}
				if ref[g] > 0 {
					vals[g] = res.Schedule.AvgSlack() / ref[g]
				} else {
					vals[g] = 1
				}
				return nil
			})
			if err != nil {
				return nil, err
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
// dispatcher, and the paper's ε-constraint robust GA schedule. Reported per
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
	base := c.gaOptions()
	base.Mode = robust.EpsilonConstraint
	base.Eps = eps
	names := []string{"static-heft", "repair", "dynamic", "robust-ga"}
	x := append([]float64(nil), c.ULs...)
	ys := make([][]float64, len(names))
	for i := range ys {
		ys[i] = make([]float64, len(c.ULs))
	}
	for u, ul := range c.ULs {
		rows := make([][]float64, c.Graphs)
		err := c.parallelFor(c.Graphs, func(g int) error {
			w, err := c.workload(u, g, ul)
			if err != nil {
				return err
			}
			hs, err := heft.HEFT(w, heft.Options{})
			if err != nil {
				return err
			}
			res, err := robust.Solve(w, base, rng.New(c.graphSeed(u, g)^0xab5))
			if err != nil {
				return err
			}
			simOpt := c.simOptions()
			seed := c.graphSeed(u, g) ^ 0xab6
			static, err := c.evaluateAll([]*schedule.Schedule{hs, res.Schedule}, simOpt, rng.New(seed))
			if err != nil {
				return err
			}
			rep, err := repair.Evaluate(hs, repair.Policy{Threshold: repairThreshold}, simOpt, rng.New(seed))
			if err != nil {
				return err
			}
			dyn, err := dynamic.Evaluate(w, simOpt, rng.New(seed))
			if err != nil {
				return err
			}
			baseMean := static[0].MeanMakespan
			rows[g] = []float64{
				1,
				rep.MeanMakespan / baseMean,
				dyn.MeanMakespan / baseMean,
				static[1].MeanMakespan / baseMean,
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i := range names {
			vals := make([]float64, c.Graphs)
			for g := 0; g < c.Graphs; g++ {
				vals[g] = rows[g][i]
			}
			ys[i][u] = stats.Mean(vals)
		}
	}
	out := make([]Series, len(names))
	for i, name := range names {
		out[i] = Series{Name: name, X: x, Y: ys[i]}
	}
	return out, nil
}
