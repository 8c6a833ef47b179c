package robust

import (
	"fmt"
	"math"
	"sort"

	"robsched/internal/ga"
	"robsched/internal/heft"
	"robsched/internal/pareto"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// ParetoOptions configures the NSGA-II front solver, an alternative to the
// paper's ε-constraint method (its Section 4 cites Deb's book, from which
// both approaches come): instead of one slack-maximal schedule under a
// makespan bound, it returns the whole approximated Pareto front of
// (minimize makespan, maximize slack).
type ParetoOptions struct {
	PopSize        int
	CrossoverRate  float64
	MutationRate   float64
	MaxGenerations int
	SlackMetric    SlackMetric
	// NoHEFTSeed drops the HEFT chromosome from the initial population.
	NoHEFTSeed bool
}

// PaperParetoOptions mirrors the paper's GA parameters for the front solver.
func PaperParetoOptions() ParetoOptions {
	return ParetoOptions{PopSize: 40, CrossoverRate: 0.9, MutationRate: 0.1, MaxGenerations: 250}
}

// ParetoPoint is one non-dominated schedule of the final front.
type ParetoPoint struct {
	Schedule *schedule.Schedule
	Makespan float64
	Slack    float64
}

// SolvePareto runs NSGA-II (fast non-dominated sorting, crowding-distance
// selection, elitist (µ+λ) survival) over the scheduling chromosome and
// returns the final front sorted by increasing makespan, deduplicated by
// objective values.
func SolvePareto(w *platform.Workload, opt ParetoOptions, r *rng.Source) ([]ParetoPoint, error) {
	if opt.PopSize < 4 {
		return nil, fmt.Errorf("robust: NSGA-II needs PopSize >= 4, got %d", opt.PopSize)
	}
	if opt.PopSize%2 != 0 {
		return nil, fmt.Errorf("robust: NSGA-II needs an even PopSize, got %d", opt.PopSize)
	}
	if opt.MaxGenerations < 1 {
		return nil, fmt.Errorf("robust: MaxGenerations=%d must be >= 1", opt.MaxGenerations)
	}
	if !(opt.CrossoverRate >= 0 && opt.CrossoverRate <= 1) {
		return nil, fmt.Errorf("robust: CrossoverRate=%g out of [0,1]", opt.CrossoverRate)
	}
	if !(opt.MutationRate >= 0 && opt.MutationRate <= 1) {
		return nil, fmt.Errorf("robust: MutationRate=%g out of [0,1]", opt.MutationRate)
	}

	// Objectives are minimized: (makespan, -slack), read off each
	// chromosome's metrics memo. No metrics cache: only about a quarter of
	// the offspring repeat a genotype, too few to pay for the inserts.
	eval := newEvaluator(w, Options{NoMetricsCache: true}, 0, nil, math.Inf(1))
	objectives := func(pop []*Chromosome) [][]float64 {
		eval.ensureMetrics(pop)
		objs := make([][]float64, len(pop))
		for i, c := range pop {
			objs[i] = []float64{c.metr.m0, -c.metr.slack(opt.SlackMetric)}
		}
		return objs
	}

	pop := make([]*Chromosome, 0, opt.PopSize)
	if !opt.NoHEFTSeed {
		hs, err := heft.HEFT(w, heft.Options{})
		if err != nil {
			return nil, err
		}
		pop = append(pop, FromSchedule(hs))
	}
	for len(pop) < opt.PopSize {
		pop = append(pop, Random(w, r))
	}
	objs := objectives(pop)
	rank, crowd := rankAndCrowd(objs)

	for gen := 0; gen < opt.MaxGenerations; gen++ {
		// Binary tournaments on (rank, crowding) produce the mating pool;
		// crossover/mutation produce λ = µ offspring.
		offspring := make([]*Chromosome, 0, opt.PopSize)
		pick := func() int {
			a, b := r.Intn(len(pop)), r.Intn(len(pop))
			if rank[a] < rank[b] || (rank[a] == rank[b] && crowd[a] > crowd[b]) {
				return a
			}
			return b
		}
		for len(offspring) < opt.PopSize {
			pa, pb := pop[pick()], pop[pick()]
			var c1, c2 *Chromosome
			if r.Float64() < opt.CrossoverRate {
				c1, c2 = Crossover(pa, pb, r)
			} else {
				c1, c2 = pa.Clone(), pb.Clone()
			}
			if r.Float64() < opt.MutationRate {
				c1 = Mutate(w, c1, r)
			}
			if r.Float64() < opt.MutationRate {
				c2 = Mutate(w, c2, r)
			}
			offspring = append(offspring, c1, c2)
		}
		// (µ+λ) survival by front rank, then crowding.
		combined := append(append([]*Chromosome{}, pop...), offspring...)
		cobjs := objectives(combined)
		fronts := pareto.NonDominatedSort(cobjs)
		next := make([]*Chromosome, 0, opt.PopSize)
		nextObjs := make([][]float64, 0, opt.PopSize)
		for _, f := range fronts {
			if len(next)+len(f) <= opt.PopSize {
				for _, i := range f {
					next = append(next, combined[i])
					nextObjs = append(nextObjs, cobjs[i])
				}
				continue
			}
			// Partial front: keep the most crowded-out (largest distance).
			cd := pareto.CrowdingDistance(cobjs, f)
			order := make([]int, len(f))
			for i := range order {
				order[i] = i
			}
			sort.SliceStable(order, func(a, b int) bool { return cd[order[a]] > cd[order[b]] })
			for _, oi := range order {
				if len(next) == opt.PopSize {
					break
				}
				next = append(next, combined[f[oi]])
				nextObjs = append(nextObjs, cobjs[f[oi]])
			}
			break
		}
		pop, objs = next, nextObjs
		rank, crowd = rankAndCrowd(objs)
	}

	// Final front, sorted by makespan, deduplicated on objective values.
	front := pareto.Filter(objs)
	sort.Slice(front, func(a, b int) bool { return objs[front[a]][0] < objs[front[b]][0] })
	var out []ParetoPoint
	for _, i := range front {
		s, err := pop[i].Decode(w)
		if err != nil {
			return nil, err
		}
		p := ParetoPoint{Schedule: s, Makespan: objs[i][0], Slack: -objs[i][1]}
		if len(out) > 0 && nearlyEqual(out[len(out)-1].Makespan, p.Makespan) && nearlyEqual(out[len(out)-1].Slack, p.Slack) {
			continue
		}
		out = append(out, p)
	}
	return out, nil
}

func nearlyEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// rankAndCrowd returns each individual's front rank and crowding distance.
func rankAndCrowd(objs [][]float64) ([]int, []float64) {
	n := len(objs)
	rank := make([]int, n)
	crowd := make([]float64, n)
	for fi, f := range pareto.NonDominatedSort(objs) {
		cd := pareto.CrowdingDistance(objs, f)
		for k, i := range f {
			rank[i] = fi
			crowd[i] = cd[k]
		}
	}
	return rank, crowd
}

// SolveWeightedSum is the classical scalarization comparator to the
// ε-constraint method: it maximizes
//
//	weight·(M_HEFT/M0) + (1−weight)·(slack/M_HEFT)
//
// with the single-objective GA engine, normalizing both objectives by the
// HEFT makespan so the weight is dimensionless. weight = 1 reduces to
// makespan minimization, weight = 0 to slack maximization. The run is
// built as NewEngine builds Solve's, with this fitness in place of the
// mode's, and is always a single population.
func SolveWeightedSum(w *platform.Workload, weight float64, opt Options, r *rng.Source) (*Result, error) {
	if !(weight >= 0 && weight <= 1) {
		return nil, fmt.Errorf("robust: weight %g out of [0,1]", weight)
	}
	eng, err := newEngine(w, opt, func(m schedMetrics, mheft float64) float64 {
		return weight*(mheft/m.m0) + (1-weight)*(m.slack(opt.SlackMetric)/mheft)
	})
	if err != nil {
		return nil, err
	}
	res, err := ga.Run(eng.cfg, r)
	if err != nil {
		return nil, err
	}
	return eng.Result(res)
}
