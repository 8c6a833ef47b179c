package main

import (
	"sync/atomic"
	"time"

	"robsched/internal/ga"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/schedule"
	"robsched/internal/sim"
)

// clock accumulates the wall time and the number of calls into one layer.
// Hooks may run on several goroutines at once, so both are atomic.
type clock struct{ ns, calls atomic.Int64 }

func (c *clock) add(t0 time.Time) {
	c.ns.Add(int64(time.Since(t0)))
	c.calls.Add(1)
}

func (c *clock) sec() float64 { return float64(c.ns.Load()) / 1e9 }
func (c *clock) n() int64     { return c.calls.Load() }

// layers times the calls a request makes into each layer's public
// functions, from outside the program: a traced request goes through the
// wrappers below instead of the one-call entry points (robust.Solve,
// sim.EvaluateAll), which compose exactly the same public functions and so
// return bit-identical results.
type layers struct {
	// robust / ga / heft: the hooks of the engine's ga.Config.
	heft, gaRun, evaluate, crossover, mutate, random clock
	hits, misses                                     atomic.Int64

	// sim: the SeedVector / RealizeSeeded / MetricsFromSamples split of
	// sim.EvaluateAll, and the count of (task, realization) pairs realized
	// per schedule.
	seed, realize, reduce clock
	schedReal, taskReal   atomic.Int64

	// mc is the wall time of every Monte-Carlo call on the request path,
	// whatever serves it (in process or over the dist wire).
	mc clock

	// dist: sharded calls on the request path and their in-process twins.
	distSolve, distEval, localSolve, localEval clock
}

// wrap returns cfg with every hook timed.
func (l *layers) wrap(cfg ga.Config[*robust.Chromosome]) ga.Config[*robust.Chromosome] {
	evalInto, evalOne := cfg.EvaluateInto, cfg.EvaluateOne
	cross, mut, rnd := cfg.Crossover, cfg.Mutate, cfg.Random
	cfg.EvaluateInto = func(pop []*robust.Chromosome, fit []float64) {
		t := time.Now()
		evalInto(pop, fit)
		l.evaluate.add(t)
	}
	if evalOne != nil {
		cfg.EvaluateOne = func(c *robust.Chromosome) float64 {
			t := time.Now()
			f := evalOne(c)
			l.evaluate.add(t)
			return f
		}
	}
	cfg.Crossover = func(a, b *robust.Chromosome, r *rng.Source) (*robust.Chromosome, *robust.Chromosome) {
		t := time.Now()
		x, y := cross(a, b, r)
		l.crossover.add(t)
		return x, y
	}
	cfg.Mutate = func(c *robust.Chromosome, r *rng.Source) *robust.Chromosome {
		t := time.Now()
		out := mut(c, r)
		l.mutate.add(t)
		return out
	}
	cfg.Random = func(r *rng.Source) *robust.Chromosome {
		t := time.Now()
		out := rnd(r)
		l.random.add(t)
		return out
	}
	return cfg
}

// solve is robust.Solve for a single population taken apart at its public
// seams — HEFTBaseline, NewEngine, the engine's Config with timed hooks,
// ga.Run and Engine.Result — with a metrics cache of its own whose Stats
// give the cache traffic.
func (l *layers) solve(w *platform.Workload, opt robust.Options, r *rng.Source) (*robust.Result, error) {
	if opt.HEFT == nil {
		t := time.Now()
		hs, err := robust.HEFTBaseline(w)
		l.heft.add(t)
		if err != nil {
			return nil, err
		}
		opt.HEFT = hs
	}
	cache := robust.NewMetricsCache()
	opt.Cache = cache
	eng, err := robust.NewEngine(w, opt)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	res, err := ga.Run(l.wrap(eng.Config()), r)
	l.gaRun.add(t)
	if err != nil {
		return nil, err
	}
	st := cache.Stats()
	l.hits.Add(st.Hits)
	l.misses.Add(st.Misses)
	return eng.Result(res)
}

// evaluateAll is sim.EvaluateAll split into its three stages.
func (l *layers) evaluateAll(ss []*schedule.Schedule, opt sim.Options, root *rng.Source) ([]sim.Metrics, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	t := time.Now()
	seeds := sim.SeedVector(opt.Realizations, opt.Antithetic, root)
	l.seed.add(t)
	t = time.Now()
	mks, err := sim.RealizeSeeded(ss, opt, seeds, 0)
	l.realize.add(t)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	out := make([]sim.Metrics, len(ss))
	for j, s := range ss {
		out[j] = sim.MetricsFromSamples(s.Makespan(), mks[j], opt.Deadline)
	}
	l.reduce.add(t)
	l.schedReal.Add(int64(len(ss) * opt.Realizations))
	l.taskReal.Add(int64(len(ss) * opt.Realizations * ss[0].Workload().N()))
	return out, nil
}
