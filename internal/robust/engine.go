package robust

import (
	"fmt"
	"math"
	"sync"

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
	return newEngine(w, opt, nil)
}

// newEngine is NewEngine with an optional objective of the caller's: a
// non-nil score replaces the fitness opt.Mode selects. SolveWeightedSum
// passes its scalarization.
func newEngine(w *platform.Workload, opt Options, score func(m schedMetrics, mheft float64) float64) (*Engine, error) {
	if opt.PopSize == 0 && opt.MaxGenerations == 0 {
		opt.paperGA()
	}
	// A population-independent objective scores each metrics triple on
	// its own, so the engine's post-elitism pass only re-scores the
	// replaced slot. The ε-constraint fitness (Eqn. 8) is
	// population-relative (score stays nil) and keeps the full
	// re-evaluation — which the metrics cache turns into a pure
	// recombination over already-known metrics. upTo is the makespan up
	// to which the objective reads a triple's slacks: never under
	// MinMakespan, up to ε·M_HEFT under Eqn. 8, always otherwise.
	upTo := math.Inf(1)
	switch {
	case score != nil:
	case opt.Mode == MinMakespan:
		score = func(m schedMetrics, _ float64) float64 { return -m.m0 }
		upTo = math.Inf(-1)
	case opt.Mode == MaxSlack:
		score = func(m schedMetrics, _ float64) float64 { return m.slack(opt.SlackMetric) }
	case opt.Mode == EpsilonConstraint:
		if opt.Eps <= 0 {
			return nil, fmt.Errorf("robust: epsilon-constraint mode needs Eps > 0, got %g", opt.Eps)
		}
	default:
		return nil, fmt.Errorf("robust: unknown mode %d", opt.Mode)
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
	if score == nil {
		upTo = opt.Eps * mheft
	}

	eval := newEvaluator(w, opt, mheft, score, upTo)
	cfg := ga.Config[*Chromosome]{
		PopSize:        opt.PopSize,
		CrossoverRate:  opt.CrossoverRate,
		MutationRate:   opt.MutationRate,
		MaxGenerations: opt.MaxGenerations,
		Stagnation:     opt.Stagnation,
		EvaluateInto:   eval.evaluateInto,
		Observer:       ga.MultiObserver(opt.Observer, telemetryObserver(opt.Obs, opt.Trace)),
	}
	setOperators(&cfg, w)
	if score != nil {
		cfg.EvaluateOne = eval.evaluateOne
	}
	if !opt.NoHEFTSeed {
		cfg.Seeds = []*Chromosome{FromSchedule(hs)}
	}
	return &Engine{Opt: opt, HEFT: hs, MHEFT: mheft, w: w, eval: eval, cfg: cfg}, nil
}

// Config returns the engine's GA configuration. The returned value shares
// the engine's evaluator (reentrant — islands call it concurrently) and its
// free list of dropped chromosomes; callers may adjust the copy's hooks
// (e.g. OnGeneration) without affecting the engine.
func (e *Engine) Config() ga.Config[*Chromosome] { return e.cfg }

// Validate reports an error when c does not decode on the engine's
// workload: a wrong length, a non-permutation, a processor out of range or
// a precedence inversion. Chromosomes from outside the engine's own
// operators — migrants read off the wire — must pass it before they reach
// the evaluator, which treats a decode failure as a bug.
func (e *Engine) Validate(c *Chromosome) error {
	_, err := c.metrics(e.eval.dec, math.Inf(1))
	return err
}

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

// setOperators wires the paper's operators into cfg. The chromosomes a
// generation drops go to one free list, which the crossover and mutation
// hooks overwrite before they allocate; every island the config runs
// shares the list under its mutex.
func setOperators(cfg *ga.Config[*Chromosome], w *platform.Workload) {
	free := new(freeList[Chromosome])
	cfg.Random = func(r *rng.Source) *Chromosome { return Random(w, r) }
	cfg.Crossover = func(a, b *Chromosome, r *rng.Source) (*Chromosome, *Chromosome) {
		return crossoverInto(free.get(), free.get(), a, b, r)
	}
	cfg.Mutate = func(c *Chromosome, r *rng.Source) *Chromosome { return mutateInto(free.get(), w, c, r) }
	cfg.Recycle = free.put
	cfg.Key = (*Chromosome).Key
}

// freeList is a mutex-guarded stack of reusable values, shared by the
// goroutines of one engine: islands breed and evaluate concurrently.
type freeList[T any] struct {
	mu    sync.Mutex
	items []*T
}

// get pops a value, or returns a new zero one when the list is empty.
func (f *freeList[T]) get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.items)
	if n == 0 {
		return new(T)
	}
	x := f.items[n-1]
	f.items = f.items[:n-1]
	return x
}

// put pushes a value nothing refers to any more.
func (f *freeList[T]) put(x *T) {
	f.mu.Lock()
	f.items = append(f.items, x)
	f.mu.Unlock()
}
