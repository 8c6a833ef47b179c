package robust

import (
	"fmt"

	"robsched/internal/ga"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// Engine is the reusable core of Solve: the normalized options, the HEFT
// baseline, and the fully-wired GA configuration for one workload. Solve
// builds one per call; the multi-process island coordinator (internal/dist)
// builds an identical Engine inside each worker process — HEFT and the
// option normalization are deterministic, so every process derives the same
// baseline, the same ε anchor and the same ga.Config, and an out-of-process
// island evolves the exact trajectory its in-process counterpart would.
type Engine struct {
	// Opt is the effective configuration after paper-default normalization.
	Opt Options
	// HEFT is the baseline schedule (also the GA seed unless disabled) and
	// MHEFT its expected makespan, the ε-constraint anchor.
	HEFT  *schedule.Schedule
	MHEFT float64

	w    *platform.Workload
	eval *evaluator
	cfg  ga.Config[*Chromosome]
}

// NewEngine normalizes the options (a zero GA block takes the paper's
// configuration), computes or adopts the HEFT baseline, and wires the
// evaluator into a ga.Config. It performs no evolution; callers hand the
// Config to ga.Run, ga.RunIslands or ga.NewIsland.
func NewEngine(w *platform.Workload, opt Options) (*Engine, error) {
	if opt.PopSize == 0 && opt.MaxGenerations == 0 {
		def := PaperOptions(opt.Mode, opt.Eps)
		def.SlackMetric = opt.SlackMetric
		def.NoHEFTSeed = opt.NoHEFTSeed
		def.OnGeneration = opt.OnGeneration
		def.Workers = opt.Workers
		def.HEFT = opt.HEFT
		def.Cache = opt.Cache
		def.NoMetricsCache = opt.NoMetricsCache
		def.Islands = opt.Islands
		def.MigrationEvery = opt.MigrationEvery
		def.Obs = opt.Obs
		def.Trace = opt.Trace
		def.Observer = opt.Observer
		opt = def
	}
	if opt.Mode == EpsilonConstraint && opt.Eps <= 0 {
		return nil, fmt.Errorf("robust: epsilon-constraint mode needs Eps > 0, got %g", opt.Eps)
	}
	hs := opt.HEFT
	if hs == nil {
		var err error
		hs, err = HEFTBaseline(w)
		if err != nil {
			return nil, err
		}
	}
	mheft := hs.Makespan()

	eval := &evaluator{w: w, opt: opt, mheft: mheft, dec: schedule.NewDecoder(w)}
	if !opt.NoMetricsCache {
		eval.cache = opt.Cache
		if eval.cache == nil {
			eval.cache = NewMetricsCache()
		}
	}
	cfg := ga.Config[*Chromosome]{
		PopSize:        opt.PopSize,
		CrossoverRate:  opt.CrossoverRate,
		MutationRate:   opt.MutationRate,
		MaxGenerations: opt.MaxGenerations,
		Stagnation:     opt.Stagnation,
		Random:         func(r *rng.Source) *Chromosome { return Random(w, r) },
		Crossover:      Crossover,
		Mutate:         func(c *Chromosome, r *rng.Source) *Chromosome { return Mutate(w, c, r) },
		Evaluate:       eval.evaluate,
		EvaluateInto:   eval.evaluateInto,
		Key:            (*Chromosome).Key,
		Observer:       ga.MultiObserver(opt.Observer, telemetryObserver(opt.Obs, opt.Trace)),
	}
	// The two single-objective modes are population-independent, so the
	// engine's post-elitism pass only needs the replaced slot re-scored. The
	// ε-constraint fitness (Eqn. 8) is population-relative and keeps the
	// full re-evaluation — which the metrics cache turns into a pure
	// recombination over already-known metrics.
	switch opt.Mode {
	case MinMakespan:
		cfg.EvaluateOne = func(c *Chromosome) float64 { return -eval.metricsOf(c).m0 }
	case MaxSlack:
		cfg.EvaluateOne = func(c *Chromosome) float64 { return eval.slackMet(eval.metricsOf(c)) }
	}
	if !opt.NoHEFTSeed {
		cfg.Seeds = []*Chromosome{FromSchedule(hs)}
	}
	return &Engine{Opt: opt, HEFT: hs, MHEFT: mheft, w: w, eval: eval, cfg: cfg}, nil
}

// Config returns the engine's GA configuration. The returned value shares
// the engine's evaluator (reentrant — islands call it concurrently); callers
// may adjust the copy's hooks (e.g. OnGeneration) without affecting the
// engine.
func (e *Engine) Config() ga.Config[*Chromosome] { return e.cfg }

// Result decodes a finished GA run into the solver's result type.
func (e *Engine) Result(res ga.Result[*Chromosome]) (*Result, error) {
	s, err := res.Best.Decode(e.w)
	if err != nil {
		return nil, err
	}
	return &Result{
		Schedule:    s,
		HEFT:        e.HEFT,
		MHEFT:       e.MHEFT,
		Generations: res.Generations,
		Stagnated:   res.Stagnated,
	}, nil
}
