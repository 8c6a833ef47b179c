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
	// MinSlack is an extension: the smallest task slack. It is 0 up to
	// rounding on every schedule (a critical path's tasks have zero
	// slack), so under it Eqn. 8 scores every feasible individual about 0
	// and every infeasible one about minFeasible·ε·M_HEFT/M0 ≈ 0:
	// selection follows rounding residue.
	MinSlack
)

// Options configures the robust scheduler. A zero GA block (PopSize and
// MaxGenerations both 0) takes the paper's parameters, as PaperOptions
// spells them.
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

	// Workers is ignored: a population's cache misses are computed on the
	// calling goroutine, and the only parallelism inside a solve is
	// Islands. The field remains so that callers which set it, such as the
	// benchmark harness in bench/, still compile.
	Workers int

	// HEFT supplies a precomputed baseline schedule for this exact
	// workload; nil makes Solve compute it. Threading the baseline through
	// lets experiments.RunSweep run HEFT once per graph instead of once per
	// (graph, ε) — the result is identical because HEFT is deterministic.
	HEFT *schedule.Schedule

	// Cache, if non-nil, is the genotype→metrics cache consulted before a
	// chromosome's metrics are computed and filled after. It may be shared
	// across Solve calls on the same workload (metrics are independent of
	// Mode, ε and SlackMetric) but never across workloads. Nil gives the
	// run a private cache; sharing only changes speed, never any result.
	Cache *MetricsCache

	// NoMetricsCache disables the metrics cache entirely (ablation and
	// property tests). The GA trajectory is bit-identical either way — the
	// cache only skips recomputing the metrics of genotypes already seen.
	NoMetricsCache bool

	// OnGeneration, if set, observes the best chromosome of each
	// generation, the first with the highest fitness (generation 0 is the
	// initial population). Used to trace Figs. 2–3. The chromosome belongs
	// to the engine, which may recycle it once the callback returns: a
	// callback that keeps the schedule decodes it (best.Decode), and one
	// that keeps the genes copies them (best.Genes).
	OnGeneration func(gen int, best *Chromosome)

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
	opt := Options{Mode: mode, Eps: eps}
	opt.paperGA()
	return opt
}

// paperGA sets the GA parameters of Section 5: Np=20, pc=0.9, pm=0.1, 1000
// generations and a 100-generation stagnation window.
func (o *Options) paperGA() {
	o.PopSize, o.CrossoverRate, o.MutationRate = 20, 0.9, 0.1
	o.MaxGenerations, o.Stagnation = 1000, 100
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
	if on := opt.OnGeneration; on != nil {
		cfg.OnGeneration = func(gen int, pop []*Chromosome, fit []float64) {
			best := 0
			for i, f := range fit {
				if f > fit[best] {
					best = i
				}
			}
			on(gen, pop[best])
		}
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

// evaluator computes the population fitness, computing the metrics of
// novel genotypes on the calling goroutine. It is reentrant — islands
// evaluate concurrently. Each chromosome carries its own metrics memo, the
// metrics cache is mutex-striped, and the mutable scratch is taken per call
// from a free list, so no two goroutines share any.
type evaluator struct {
	opt   Options
	mheft float64
	// score is the fitness of one metrics triple under a
	// population-independent objective; nil selects Eqn. 8.
	score func(m schedMetrics, mheft float64) float64
	// upTo is the makespan up to which the objective reads a triple's
	// slacks: a miss above it is scored M0-only (Decoder.MetricsUpTo).
	// Under Eqn. 8 it is ε·M_HEFT, the feasibility bound evaluateInto
	// tests.
	upTo float64
	dec  *schedule.Decoder
	// cache is the genotype→metrics cache; nil when Options.NoMetricsCache
	// disabled it.
	cache *MetricsCache

	scratch freeList[evalScratch]
}

// newEvaluator builds the evaluator of one run on w, with the metrics cache
// opt asks for: opt.Cache, a private one, or none under NoMetricsCache. A
// run that only reads metrics, never fitness, passes mheft 0, no score and
// an upTo of +Inf.
func newEvaluator(w *platform.Workload, opt Options, mheft float64, score func(schedMetrics, float64) float64, upTo float64) *evaluator {
	e := &evaluator{opt: opt, mheft: mheft, score: score, upTo: upTo, dec: schedule.NewDecoder(w)}
	if !opt.NoMetricsCache {
		e.cache = opt.Cache
		if e.cache == nil {
			e.cache = NewMetricsCache()
		}
	}
	return e
}

// evalScratch is the working state of one evaluator call, reused across
// generations: ensureMetrics' dedup map, pending list, and the cache keys
// and packed genotypes of its misses.
type evalScratch struct {
	seen    map[*Chromosome]struct{}
	pending []*Chromosome
	keys    []uint64
	genes   []byte // the misses' packed genotypes, back to back
	ends    []int  // miss i's packed genotype ends at genes[ends[i]]
}

// packed returns miss i's packed genotype.
func (sc *evalScratch) packed(i int) []byte {
	start := 0
	if i > 0 {
		start = sc.ends[i-1]
	}
	return sc.genes[start:sc.ends[i]]
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
// triple, computing it only for genuinely novel genotypes: memoized
// chromosomes are free, cache hits (genotype-equal to any individual seen
// before, across generations, islands and — via a shared Options.Cache —
// sibling Solve runs) cost a lookup, and only the misses run the
// metrics-only decode (schedule.Decoder.MetricsUpTo at the evaluator's
// bound), one after another, each inserting its triple into the cache. A
// miss with the genotype of an earlier miss of the same call copies that
// miss's triple. No schedule is built.
//
// A hit on an M0-only entry whose M0 is within the bound — an entry a run
// with a lower bound left in a shared cache — computes the full triple and
// completes the entry in place. It still counts as a hit.
func (e *evaluator) ensureMetrics(pop []*Chromosome) {
	sc := e.scratch.get()
	defer e.scratch.put(sc)
	pending := sc.pendingOf(pop)
	// Look every pending chromosome up before computing any miss: two
	// chromosomes of one generation sharing a new genotype both miss. Cache
	// counters of pinned runs depend on that order.
	misses := pending
	if e.cache != nil {
		misses = pending[:0]
		keys, genes, ends := sc.keys[:0], sc.genes[:0], sc.ends[:0]
		for _, c := range pending {
			start := len(genes)
			var k uint64
			genes, k = e.cache.pack(genes, c)
			met, ok := e.cache.lookup(k, genes[start:])
			if !ok {
				misses = append(misses, c)
				keys = append(keys, k)
				ends = append(ends, len(genes))
				continue
			}
			if !met.covers(e.upTo) {
				met = e.metrics(c)
				e.cache.complete(k, genes[start:], met)
			}
			genes = genes[:start]
			c.metr, c.hasMetr = met, true
		}
		sc.keys, sc.genes, sc.ends = keys, genes, ends
	}
	for i, c := range misses {
		c.metr = e.copyOrCompute(sc, misses, i)
		c.hasMetr = true
		if e.cache != nil {
			// Insert the copies too: the insert's capacity check can
			// evict, and the cache counters of pinned runs count that.
			e.cache.insert(sc.keys[i], sc.packed(i), c.metr)
		}
	}
}

// copyOrCompute returns the metrics of misses[i]: the triple of an earlier
// miss with its genotype, or a new one. With a cache, sc holds the packed
// genotype of every miss; with none, the miss is computed.
func (e *evaluator) copyOrCompute(sc *evalScratch, misses []*Chromosome, i int) schedMetrics {
	if e.cache != nil {
		g := sc.packed(i)
		for j, d := range misses[:i] {
			if string(sc.packed(j)) == string(g) {
				return d.metr
			}
		}
	}
	return e.metrics(misses[i])
}

// metrics computes c's triple at the evaluator's bound.
func (e *evaluator) metrics(c *Chromosome) schedMetrics {
	met, err := c.metrics(e.dec, e.upTo)
	if err != nil {
		panic(err) // operators guarantee validity
	}
	return met
}

// evaluateInto writes the population's fitness into fit (the GA engine's
// reusable arena): score applied to each metrics triple, or Eqn. 8 when
// score is nil. The metrics of novel genotypes are computed first; the
// fitness combination is deterministic, so the values — and the whole GA
// trajectory — are bit-identical with the cache on or off.
func (e *evaluator) evaluateInto(pop []*Chromosome, fit []float64) {
	e.ensureMetrics(pop)
	if e.score != nil {
		for i, c := range pop {
			fit[i] = e.score(c.metr, e.mheft)
		}
		return
	}
	// Eqn. 8. Feasible individuals score their slack; infeasible ones
	// score min(feasible fitness) · ε·M_HEFT / M0, which is strictly below
	// every feasible score and decreases with the violation. The bound is
	// the evaluator's, so every feasible triple carries its slacks.
	bound := e.upTo
	minFeasible := math.Inf(1)
	for _, c := range pop {
		if slack := c.metr.slack(e.opt.SlackMetric); c.metr.m0 <= bound && slack < minFeasible {
			minFeasible = slack
		}
	}
	for i, c := range pop {
		m := c.metr
		switch {
		case m.m0 <= bound:
			fit[i] = m.slack(e.opt.SlackMetric)
		case math.IsInf(minFeasible, 1):
			// No feasible individual this generation — a case the paper
			// leaves unspecified. Rank purely by (inverse) constraint
			// violation, shifted below any plausible feasible score.
			fit[i] = -m.m0 / bound
		default:
			fit[i] = minFeasible * bound / m.m0
		}
	}
}

// evaluateOne scores one chromosome under a population-independent
// objective: the engine's re-score of the slot elitism replaced.
func (e *evaluator) evaluateOne(c *Chromosome) float64 { return e.score(e.metricsOf(c), e.mheft) }
