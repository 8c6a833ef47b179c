package robust

import (
	"fmt"
	"math"

	"robsched/internal/ga"
	"robsched/internal/heft"
	"robsched/internal/obs"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// Mode selects the GA objective.
type Mode int

const (
	// EpsilonConstraint maximizes slack subject to M0(s) <= ε·M_HEFT
	// (Eqn. 7/8) — the paper's bi-objective method.
	EpsilonConstraint Mode = iota
	// MinMakespan minimizes the expected makespan, the classical GA
	// objective used for the Fig. 2 experiment.
	MinMakespan
	// MaxSlack maximizes slack with no makespan constraint, used for the
	// Fig. 3 experiment.
	MaxSlack
)

func (m Mode) String() string {
	switch m {
	case EpsilonConstraint:
		return "epsilon-constraint"
	case MinMakespan:
		return "min-makespan"
	case MaxSlack:
		return "max-slack"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// SlackMetric selects the robustness surrogate maximized by the GA.
type SlackMetric int

const (
	// AvgSlack is the paper's surrogate (Eqn. 3).
	AvgSlack SlackMetric = iota
	// MinSlack is a more conservative extension: the smallest task slack.
	MinSlack
)

// Options configures the robust scheduler. ZeroOptions-with-PaperDefaults is
// the paper's configuration.
type Options struct {
	Mode        Mode
	Eps         float64     // ε of the constraint method (paper sweeps 1.0..2.0)
	SlackMetric SlackMetric // robustness surrogate (paper: AvgSlack)

	// GA parameters (Section 5: Np=20, pc=0.9, pm=0.1, 1000 generations,
	// 100-generation stagnation window).
	PopSize        int
	CrossoverRate  float64
	MutationRate   float64
	MaxGenerations int
	Stagnation     int

	// NoHEFTSeed drops the HEFT chromosome from the initial population
	// (ablation; the paper always seeds it).
	NoHEFTSeed bool
	// Islands > 1 runs that many populations in parallel goroutines with
	// ring migration every MigrationEvery generations — an island-model
	// extension of the paper's single-population GA. Incompatible with
	// OnGeneration.
	Islands        int
	MigrationEvery int

	// Workers is ignored: a population's cache misses are decoded on the
	// calling goroutine, and the only parallelism inside a solve is
	// Islands. The field remains so that callers which set it, such as the
	// benchmark harness in bench/, still compile.
	Workers int

	// HEFT supplies a precomputed baseline schedule for this exact
	// workload; nil makes Solve compute it. Threading the baseline through
	// lets experiments.RunSweep run HEFT once per graph instead of once per
	// (graph, ε) — the result is identical because HEFT is deterministic.
	HEFT *schedule.Schedule

	// Cache, if non-nil, is the genotype→metrics cache consulted before any
	// chromosome decode and filled after it. It may be shared across Solve
	// calls on the same workload (metrics are independent of Mode, ε and
	// SlackMetric) but never across workloads. Nil gives the run a private
	// cache; sharing only changes speed, never any result.
	Cache *MetricsCache

	// NoMetricsCache disables the metrics cache entirely (ablation and
	// property tests). The GA trajectory is bit-identical either way — the
	// cache only skips redundant decodes.
	NoMetricsCache bool

	// OnGeneration, if set, observes the best schedule of each generation
	// (generation 0 is the initial population). Used to trace Figs. 2–3.
	// The schedule is the callback's to keep.
	OnGeneration func(gen int, best *schedule.Schedule)

	// Obs, if non-nil, receives solver telemetry: per-generation engine
	// counters/gauges (ga.generations, ga.crossovers, ga.mutations,
	// ga.best_fitness, ga.mean_fitness, ga.diversity) and the metrics-cache
	// traffic of this run (cache.hits/misses/collisions/evictions). Every
	// registry value is a deterministic count over the GA trajectory —
	// independent of wall-clock — so snapshots reproduce across runs; the
	// one exception is the hit/miss split of an island run (see
	// MetricsCache). Nil disables with zero overhead.
	Obs *obs.Registry
	// Trace, if non-nil, receives structured records: one "ga/generation"
	// event per evaluated generation, a "cache/stats" event, and a
	// "robust/solve" span. Span durations are wall-clock and therefore not
	// reproducible (unlike Obs).
	Trace *obs.Tracer
	// Observer, if non-nil, receives the raw per-generation ga.GenStats.
	// Composes with Obs/Trace; supported with Islands (unlike OnGeneration),
	// with a trajectory that is bit-identical and identically ordered
	// across runs.
	Observer ga.Observer
}

// PaperOptions returns the paper's GA configuration for the given mode and ε.
func PaperOptions(mode Mode, eps float64) Options {
	return Options{
		Mode: mode, Eps: eps,
		PopSize: 20, CrossoverRate: 0.9, MutationRate: 0.1,
		MaxGenerations: 1000, Stagnation: 100,
	}
}

// Result is the outcome of a robust scheduling run.
type Result struct {
	// Schedule is the best schedule found by the GA.
	Schedule *schedule.Schedule
	// HEFT is the baseline schedule (also the GA seed unless disabled).
	HEFT *schedule.Schedule
	// MHEFT is the baseline's expected makespan (the constraint anchor).
	MHEFT float64
	// Generations actually evolved, and whether the stagnation window
	// triggered.
	Generations int
	Stagnated   bool
}

// HEFTBaseline computes the deterministic HEFT baseline schedule that
// anchors the ε-constraint and seeds the GA. Callers running several solves
// on the same workload (e.g. an ε grid) compute it once and thread it
// through Options.HEFT.
func HEFTBaseline(w *platform.Workload) (*schedule.Schedule, error) {
	hs, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		return nil, fmt.Errorf("robust: HEFT baseline failed: %w", err)
	}
	return hs, nil
}

// Solve runs the bi-objective GA on the workload and returns the best
// schedule under the selected objective.
func Solve(w *platform.Workload, opt Options, r *rng.Source) (*Result, error) {
	eng, err := NewEngine(w, opt)
	if err != nil {
		return nil, err
	}
	opt = eng.Opt
	eval := eng.eval
	cfg := eng.cfg
	if opt.OnGeneration != nil {
		cfg.OnGeneration = bestScheduleHook(eng.w, opt.OnGeneration)
	}
	if opt.Trace != nil {
		defer opt.Trace.Scope("robust").Span("solve",
			obs.F("mode", float64(opt.Mode)),
			obs.F("pop", float64(opt.PopSize)),
			obs.F("max_generations", float64(opt.MaxGenerations)),
		)()
	}
	cachePre := eval.cache.Stats()
	var res ga.Result[*Chromosome]
	if opt.Islands > 1 {
		res, err = ga.RunIslands(ga.IslandConfig[*Chromosome]{
			Base:           cfg,
			Islands:        opt.Islands,
			MigrationEvery: opt.MigrationEvery,
		}, r)
	} else {
		res, err = ga.Run(cfg, r)
	}
	if err != nil {
		return nil, err
	}
	if eval.cache != nil && (opt.Obs != nil || opt.Trace != nil) {
		recordCacheStats(opt.Obs, opt.Trace, eval.cache.Stats().Sub(cachePre))
	}
	return eng.Result(res)
}

// bestScheduleHook adapts Options.OnGeneration to the engine's hook: each
// generation's best individual is decoded into a new schedule the callback
// keeps. The individual may be recycled once the hook returns, so the hook
// remembers the genotype it last decoded, not the pointer, and hands the
// same schedule on while the best genotype stays the same.
func bestScheduleHook(w *platform.Workload, on func(gen int, best *schedule.Schedule)) func(int, []*Chromosome, []float64) {
	var last *schedule.Schedule
	var lastGenes []int32
	return func(gen int, pop []*Chromosome, fit []float64) {
		best := 0
		for i, f := range fit {
			if f > fit[best] {
				best = i
			}
		}
		c := pop[best]
		if last == nil || !genoEqual(lastGenes, c.Order, c.Proc) {
			s, err := c.Decode(w)
			if err != nil {
				panic(err) // operators guarantee validity
			}
			last, lastGenes = s, packGenes(lastGenes[:0], c)
		}
		on(gen, last)
	}
}

// runCustomFitness evolves the standard chromosome with a fitness combined
// from each schedule's metrics triple (larger is better). Used by the
// weighted-sum comparator; the ε-constraint path goes through Solve
// because its fitness is population-relative.
//
// Of opt it reads the GA parameters, NoHEFTSeed, Cache and NoMetricsCache:
// the run is always a single population (unlike Solve, which spawns
// islands), and it consults the metrics cache as Solve does.
func runCustomFitness(w *platform.Workload, opt Options, r *rng.Source, seed *schedule.Schedule, fitness func(schedMetrics) float64) (*Result, error) {
	eval := newEvaluator(w, opt, 0)
	cfg := ga.Config[*Chromosome]{
		PopSize:        opt.PopSize,
		CrossoverRate:  opt.CrossoverRate,
		MutationRate:   opt.MutationRate,
		MaxGenerations: opt.MaxGenerations,
		Stagnation:     opt.Stagnation,
		EvaluateInto: func(pop []*Chromosome, fit []float64) {
			eval.ensureMetrics(pop)
			for i, c := range pop {
				fit[i] = fitness(c.metr)
			}
		},
		EvaluateOne: func(c *Chromosome) float64 { return fitness(eval.metricsOf(c)) },
	}
	setOperators(&cfg, w)
	if seed != nil && !opt.NoHEFTSeed {
		cfg.Seeds = []*Chromosome{FromSchedule(seed)}
	}
	res, err := ga.Run(cfg, r)
	if err != nil {
		return nil, err
	}
	s, err := res.Best.Decode(w)
	if err != nil {
		return nil, err
	}
	return &Result{Schedule: s, Generations: res.Generations, Stagnated: res.Stagnated}, nil
}

// evaluator computes the population fitness for each mode, decoding on the
// calling goroutine. It is reentrant — islands evaluate concurrently. Each
// chromosome carries its own metrics memo, the metrics cache is
// mutex-striped, and the mutable scratch is taken per call from a free
// list, so no two goroutines share any.
type evaluator struct {
	w     *platform.Workload
	opt   Options
	mheft float64
	dec   *schedule.Decoder
	// cache is the genotype→metrics cache; nil when Options.NoMetricsCache
	// disabled it.
	cache *MetricsCache

	scratch freeList[evalScratch]
}

// newEvaluator builds the evaluator of one run on w, with the metrics cache
// opt asks for: opt.Cache, a private one, or none under NoMetricsCache.
// mheft anchors the ε-constraint; runs that do not use it pass 0.
func newEvaluator(w *platform.Workload, opt Options, mheft float64) *evaluator {
	e := &evaluator{w: w, opt: opt, mheft: mheft, dec: schedule.NewDecoder(w)}
	if !opt.NoMetricsCache {
		e.cache = opt.Cache
		if e.cache == nil {
			e.cache = NewMetricsCache()
		}
	}
	return e
}

// evalScratch is the working state of one evaluator call, reused across
// generations: ensureMetrics' dedup map, pending list and cache keys, and
// the schedule each miss is decoded into.
type evalScratch struct {
	seen    map[*Chromosome]struct{}
	pending []*Chromosome
	keys    []uint64
	sched   schedule.Schedule
}

// metricsOf returns the chromosome's metrics triple, through ensureMetrics
// when it has none yet. Not safe for concurrent calls on the same
// chromosome; the GA's evaluation paths only reach it serially.
func (e *evaluator) metricsOf(c *Chromosome) schedMetrics {
	if !c.hasMetr {
		e.ensureMetrics([]*Chromosome{c})
	}
	return c.metr
}

// pendingOf collects pop's entries without a metrics memo into sc.pending,
// deduplicated by pointer — selection and elitism alias chromosomes, so the
// same pointer can fill several slots.
func (sc *evalScratch) pendingOf(pop []*Chromosome) []*Chromosome {
	if sc.seen == nil {
		sc.seen = make(map[*Chromosome]struct{}, len(pop))
	}
	clear(sc.seen)
	pending := sc.pending[:0]
	for _, c := range pop {
		if c.hasMetr {
			continue
		}
		if _, dup := sc.seen[c]; dup {
			continue
		}
		sc.seen[c] = struct{}{}
		pending = append(pending, c)
	}
	sc.pending = pending
	return pending
}

// ensureMetrics guarantees every chromosome of pop carries its metrics
// triple, decoding only genuinely novel genotypes: memoized chromosomes are
// free, cache hits (genotype-equal to any previously decoded individual,
// across generations, islands and — via a shared Options.Cache — sibling
// Solve runs) skip the decode entirely, and only the misses are decoded,
// one after another into the call's scratch schedule, each inserting its
// metrics into the cache.
func (e *evaluator) ensureMetrics(pop []*Chromosome) {
	sc := e.scratch.get()
	defer e.scratch.put(sc)
	pending := sc.pendingOf(pop)
	// Look every pending chromosome up before decoding any miss: two
	// chromosomes of one generation sharing a new genotype both miss. Cache
	// counters of pinned runs depend on that order.
	misses := pending
	var keys []uint64
	if e.cache != nil {
		misses = pending[:0]
		keys = sc.keys[:0]
		for _, c := range pending {
			k := e.cache.key(c)
			if met, ok := e.cache.lookup(k, c); ok {
				c.metr, c.hasMetr = met, true
				continue
			}
			misses = append(misses, c)
			keys = append(keys, k)
		}
		sc.keys = keys
	}
	for i, c := range misses {
		if err := c.decodeInto(e.dec, &sc.sched); err != nil {
			panic(err) // operators guarantee validity
		}
		c.metr, c.hasMetr = metricsFromSchedule(&sc.sched), true
		if e.cache != nil {
			e.cache.insert(keys[i], c, c.metr)
		}
	}
}

// evaluateInto implements the three objectives over the metrics triples,
// writing the fitness into fit (the GA engine's reusable arena). The novel
// genotypes are decoded first; the fitness combination is deterministic,
// so the values — and the whole GA trajectory — are bit-identical with the
// cache on or off.
func (e *evaluator) evaluateInto(pop []*Chromosome, fit []float64) {
	e.ensureMetrics(pop)
	switch e.opt.Mode {
	case MinMakespan:
		for i, c := range pop {
			fit[i] = -e.metricsOf(c).m0
		}
	case MaxSlack:
		for i, c := range pop {
			fit[i] = e.metricsOf(c).slack(e.opt.SlackMetric)
		}
	case EpsilonConstraint:
		// Eqn. 8. Feasible individuals score their slack; infeasible ones
		// score min(feasible fitness) · ε·M_HEFT / M0, which is strictly
		// below every feasible score and decreases with the violation.
		bound := e.opt.Eps * e.mheft
		minFeasible := math.Inf(1)
		for _, c := range pop {
			m := e.metricsOf(c)
			if slack := m.slack(e.opt.SlackMetric); m.m0 <= bound && slack < minFeasible {
				minFeasible = slack
			}
		}
		for i, c := range pop {
			m := e.metricsOf(c)
			switch {
			case m.m0 <= bound:
				fit[i] = m.slack(e.opt.SlackMetric)
			case math.IsInf(minFeasible, 1):
				// No feasible individual this generation — a case the
				// paper leaves unspecified. Rank purely by (inverse)
				// constraint violation, shifted below any plausible
				// feasible score.
				fit[i] = -m.m0 / bound
			default:
				fit[i] = minFeasible * bound / m.m0
			}
		}
	default:
		panic(fmt.Sprintf("robust: unknown mode %d", e.opt.Mode))
	}
}
