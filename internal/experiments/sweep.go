package experiments

import (
	"fmt"
	"math"

	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/schedule"
	"robsched/internal/sim"
	"robsched/internal/stats"
)

// Point is one schedule's outcome on one workload: its expected makespan,
// slack and Monte-Carlo metrics.
type Point struct {
	M0       float64
	AvgSlack float64
	Sim      sim.Metrics
}

// Sweep holds the full UL × ε × graph grid of GA outcomes plus the per-
// graph HEFT baselines, all evaluated under common random numbers. It is
// the shared substrate of Figs. 4–8.
type Sweep struct {
	Cfg  Config
	ULs  []float64
	Eps  []float64
	GA   [][][]Point // [ul][eps][graph]
	HEFT [][]Point   // [ul][graph]
}

// RunSweep runs the ε-constraint GA for every uncertainty level, every ε
// and every graph, evaluating each schedule against the HEFT baseline on
// identical Monte-Carlo realizations. The ε runs of a graph share its HEFT
// baseline but no metrics cache: each Solve keeps the private cache it
// gets when Options.Cache is nil, as runs at different ε meet almost no
// genotype twice.
func (c Config) RunSweep() (*Sweep, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if len(c.Eps) == 0 {
		return nil, fmt.Errorf("experiments: empty ε grid")
	}
	sw := &Sweep{Cfg: c, ULs: c.ULs, Eps: c.Eps}
	sw.GA = make([][][]Point, len(c.ULs))
	sw.HEFT = make([][]Point, len(c.ULs))
	for u := range c.ULs {
		sw.GA[u] = make([][]Point, len(c.Eps))
		for e := range c.Eps {
			sw.GA[u][e] = make([]Point, c.Graphs)
		}
		sw.HEFT[u] = make([]Point, c.Graphs)
	}
	// One flat UL × graph job list: a single parallelFor with no barrier
	// between uncertainty levels, so workers that finish one level's graphs
	// early immediately start on the next level instead of idling at a
	// per-UL join. Every job writes only its own sw.GA[u][·][g] and
	// sw.HEFT[u][g] cells, so the flattening cannot change any result.
	err := c.parallelFor(len(c.ULs)*c.Graphs, func(idx int) error {
		u, g := idx/c.Graphs, idx%c.Graphs
		ul := c.ULs[u]
		w, err := c.workload(u, g, ul)
		if err != nil {
			return err
		}
		// The HEFT baseline is ε-independent, so it is computed once per
		// graph and threaded through Options.HEFT instead of re-derived by
		// every Solve on the ε grid; HEFT is deterministic, so this changes
		// no number.
		heftSched, err := robust.HEFTBaseline(w)
		if err != nil {
			return err
		}
		// One GA run per ε; all schedules (plus HEFT) evaluated on the
		// same realizations.
		schedules := make([]*schedule.Schedule, 0, len(c.Eps)+1)
		for e, eps := range c.Eps {
			opt := c.epsOptions(eps)
			opt.HEFT = heftSched
			res, err := robust.Solve(w, opt, rng.New(c.graphSeed(u, g)^uint64(0x1111*(e+1))))
			if err != nil {
				return err
			}
			schedules = append(schedules, res.Schedule)
		}
		schedules = append(schedules, heftSched)
		ms, err := c.evaluateAll(schedules, c.simOptions(), rng.New(c.graphSeed(u, g)^0x7777))
		if err != nil {
			return err
		}
		for e := range c.Eps {
			sw.GA[u][e][g] = Point{
				M0:       schedules[e].Makespan(),
				AvgSlack: schedules[e].AvgSlack(),
				Sim:      ms[e],
			}
		}
		h := len(c.Eps)
		sw.HEFT[u][g] = Point{
			M0:       heftSched.Makespan(),
			AvgSlack: heftSched.AvgSlack(),
			Sim:      ms[h],
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sw, nil
}

// epsIndex returns the grid index of ε (exact match).
func (s *Sweep) epsIndex(eps float64) (int, error) {
	for i, e := range s.Eps {
		if e == eps {
			return i, nil
		}
	}
	return 0, fmt.Errorf("experiments: ε=%g not in sweep grid %v", eps, s.Eps)
}

// Fig4 reproduces Fig. 4: at ε = 1.0, the mean natural-log ratio of the
// GA's realized mean makespan improvement, R1 improvement and R2
// improvement over HEFT, as a function of the uncertainty level.
// Positive values mean the GA wins.
func (s *Sweep) Fig4() ([]Series, error) {
	e0, err := s.epsIndex(1.0)
	if err != nil {
		return nil, err
	}
	x := append([]float64(nil), s.ULs...)
	mk := make([]float64, len(s.ULs))
	r1 := make([]float64, len(s.ULs))
	r2 := make([]float64, len(s.ULs))
	for u := range s.ULs {
		n := len(s.GA[u][e0])
		mks := make([]float64, n)
		r1s := make([]float64, n)
		r2s := make([]float64, n)
		for g := 0; g < n; g++ {
			ga, heft := s.GA[u][e0][g], s.HEFT[u][g]
			// Makespan improvement: HEFT's realized mean over the GA's —
			// larger is better for the GA.
			mks[g] = stats.LogRatio(heft.Sim.MeanMakespan, ga.Sim.MeanMakespan)
			r1s[g] = stats.LogRatio(ga.Sim.R1, heft.Sim.R1)
			r2s[g] = stats.LogRatio(ga.Sim.R2, heft.Sim.R2)
		}
		mk[u] = meanFinite(mks)
		r1[u] = meanFinite(r1s)
		r2[u] = meanFinite(r2s)
	}
	return []Series{
		{Name: "Makespan", X: x, Y: mk},
		{Name: "R1", X: x, Y: r1},
		{Name: "R2", X: x, Y: r2},
	}, nil
}

// FigEpsImprovement reproduces Figs. 5 and 6: for each uncertainty level,
// the mean relative improvement of the chosen robustness metric at each
// ε > 1.0 over the same graph's ε = 1.0 result:
//
//	improvement(ε) = mean over graphs of R(ε)/R(1.0) − 1.
func (s *Sweep) FigEpsImprovement(m Metric) ([]Series, error) {
	e0, err := s.epsIndex(1.0)
	if err != nil {
		return nil, err
	}
	var x []float64
	var idx []int
	for e, eps := range s.Eps {
		if eps > 1.0 {
			x = append(x, eps)
			idx = append(idx, e)
		}
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("experiments: ε grid has no values above 1.0")
	}
	out := make([]Series, 0, len(s.ULs))
	for u, ul := range s.ULs {
		y := make([]float64, len(idx))
		for k, e := range idx {
			vals := make([]float64, len(s.GA[u][e]))
			for g := range vals {
				vals[g] = stats.SafeRatio(metricOf(s.GA[u][e][g].Sim, m), metricOf(s.GA[u][e0][g].Sim, m)) - 1
			}
			y[k] = meanFinite(vals)
		}
		out = append(out, Series{Name: fmtUL(ul), X: x, Y: y})
	}
	return out, nil
}

// FigBestEps reproduces Figs. 7 and 8: for each uncertainty level and each
// weight r, the ε in the sweep grid that maximizes the mean overall
// performance P(s) (Eqn. 9) built from the realized mean makespan and the
// chosen robustness metric.
func (s *Sweep) FigBestEps(m Metric) ([]Series, error) {
	rGrid := s.Cfg.RGrid
	if len(rGrid) == 0 {
		return nil, fmt.Errorf("experiments: empty r grid")
	}
	out := make([]Series, 0, len(s.ULs))
	for u, ul := range s.ULs {
		y := make([]float64, len(rGrid))
		for k, r := range rGrid {
			bestEps, bestP := math.NaN(), math.Inf(-1)
			for e, eps := range s.Eps {
				vals := make([]float64, len(s.GA[u][e]))
				for g := range vals {
					ga, heft := s.GA[u][e][g], s.HEFT[u][g]
					vals[g] = stats.OverallPerformance(r,
						ga.Sim.MeanMakespan, heft.Sim.MeanMakespan,
						metricOf(ga.Sim, m), metricOf(heft.Sim, m))
				}
				if p := meanFinite(vals); p > bestP {
					bestP, bestEps = p, eps
				}
			}
			y[k] = bestEps
		}
		out = append(out, Series{Name: fmtUL(ul), X: append([]float64(nil), rGrid...), Y: y})
	}
	return out, nil
}
