package robust

import (
	"fmt"
	"math"

	"robsched/internal/heft"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// AnnealOptions configures the simulated-annealing comparator. The paper
// lists simulated annealing next to genetic algorithms among the guided
// random search methods for task scheduling (Section 1); this solver runs
// SA over the same chromosome and neighbourhood (the GA's mutation
// operator) and the same ε-constraint objective, isolating the
// search-strategy choice from everything else.
type AnnealOptions struct {
	// Eps is the makespan bound M0 ≤ Eps·M_HEFT.
	Eps float64
	// SlackMetric selects the robustness surrogate (paper: AvgSlack).
	SlackMetric SlackMetric
	// Steps is the number of proposals (default 20000).
	Steps int
	// InitialTemp and FinalTemp bound the geometric cooling schedule,
	// expressed as fractions of the initial solution's slack scale.
	// Defaults: 1.0 and 1e-3.
	InitialTemp, FinalTemp float64
	// NoHEFTSeed starts from a random chromosome instead of HEFT's.
	NoHEFTSeed bool
}

// PaperishAnnealOptions returns an SA budget comparable to the paper's GA
// (Np=20 × 1000 generations = 20000 evaluations).
func PaperishAnnealOptions(eps float64) AnnealOptions {
	return AnnealOptions{Eps: eps, Steps: 20000, InitialTemp: 1, FinalTemp: 1e-3}
}

// SolveAnneal runs simulated annealing under the ε-constraint objective:
// maximize slack with infeasible states penalized by their violation. The
// energy of a state s is
//
//	E(s) = −slack(s)            if M0(s) ≤ ε·M_HEFT
//	E(s) = violation·scale      otherwise
//
// so every feasible state has lower energy than every infeasible one.
func SolveAnneal(w *platform.Workload, opt AnnealOptions, r *rng.Source) (*Result, error) {
	// Each float check is written so that NaN fails it; an Eps of +Inf
	// means no constraint.
	if !(opt.Eps > 0) {
		return nil, fmt.Errorf("robust: SolveAnneal needs Eps > 0, got %g", opt.Eps)
	}
	if opt.Steps == 0 {
		opt.Steps = 20000
	}
	if opt.Steps < 1 {
		return nil, fmt.Errorf("robust: Steps=%d must be >= 1", opt.Steps)
	}
	if opt.InitialTemp == 0 {
		opt.InitialTemp = 1
	}
	if opt.FinalTemp == 0 {
		opt.FinalTemp = 1e-3
	}
	if !(opt.FinalTemp > 0) {
		return nil, fmt.Errorf("robust: FinalTemp=%g must be > 0", opt.FinalTemp)
	}
	if !(opt.InitialTemp >= opt.FinalTemp) || math.IsInf(opt.InitialTemp, 1) {
		return nil, fmt.Errorf("robust: InitialTemp=%g must be finite and >= FinalTemp=%g", opt.InitialTemp, opt.FinalTemp)
	}
	hs, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		return nil, err
	}
	mheft := hs.Makespan()
	bound := opt.Eps * mheft
	// Energy: feasible states rank by slack; infeasible ones sit above any
	// feasible energy by construction (violation scaled by M_HEFT keeps
	// the units comparable). A state's energy needs only its metrics
	// triple, so no state's schedule is built until the best one's at the
	// end.
	dec := schedule.NewDecoder(w)
	energy := func(c *Chromosome) (float64, error) {
		m, err := c.metrics(dec, math.Inf(1))
		if err != nil {
			return 0, err
		}
		if m.m0 <= bound {
			return -m.slack(opt.SlackMetric), nil
		}
		return (m.m0 - bound) / mheft * (1 + mheft), nil
	}

	var cur *Chromosome
	if opt.NoHEFTSeed {
		cur = Random(w, r)
	} else {
		cur = FromSchedule(hs)
	}
	curE, err := energy(cur)
	if err != nil {
		return nil, err
	}
	best, bestE := cur, curE

	// Temperature scale anchored to the makespan bound so acceptance
	// probabilities are dimensionless across instances.
	scale := mheft
	cooling := math.Pow(opt.FinalTemp/opt.InitialTemp, 1/float64(opt.Steps))
	temp := opt.InitialTemp * scale
	for step := 0; step < opt.Steps; step++ {
		next := Mutate(w, cur, r)
		nextE, err := energy(next)
		if err != nil {
			return nil, err
		}
		if nextE <= curE || r.Float64() < math.Exp((curE-nextE)/temp) {
			cur, curE = next, nextE
			if curE < bestE {
				best, bestE = cur, curE
			}
		}
		temp *= cooling
	}
	bestS, err := best.Decode(w)
	if err != nil {
		return nil, err
	}
	return &Result{
		Schedule:    bestS,
		HEFT:        hs,
		MHEFT:       mheft,
		Generations: opt.Steps,
	}, nil
}
