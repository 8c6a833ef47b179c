// Package experiments reproduces the paper's evaluation (Section 5). Each
// figure of the paper maps to a runner here:
//
//	Fig. 2  EvolutionTrace with robust.MinMakespan — makespan/slack/R1
//	        log-ratio trajectories of a GA minimizing the makespan.
//	Fig. 3  EvolutionTrace with robust.MaxSlack — the same trajectories
//	        when maximizing slack.
//	Fig. 4  Sweep.Fig4 — improvement over HEFT at ε = 1.0 versus UL.
//	Fig. 5  Sweep.FigEpsImprovement(R1) — R1 improvement over ε = 1.0.
//	Fig. 6  Sweep.FigEpsImprovement(R2) — R2 improvement over ε = 1.0.
//	Fig. 7  Sweep.FigBestEps(R1) — ε maximizing overall performance vs r.
//	Fig. 8  Sweep.FigBestEps(R2) — same with R2.
//
// A single Sweep (GA runs over the UL × ε grid plus a HEFT baseline per
// graph, all Monte-Carlo evaluated under common random numbers) feeds
// figures 4–8, mirroring how the paper reuses one set of runs.
//
// Scale: the paper uses 100 random graphs × 1000 realizations × 1000 GA
// generations. Default() is scaled down to run in seconds; PaperScale()
// restores the published parameters.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"robsched/internal/gen"
	"robsched/internal/obs"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/scenario"
	"robsched/internal/schedule"
	"robsched/internal/sim"
)

// Config parameterizes every experiment runner.
type Config struct {
	// Seed anchors all randomness; the same seed regenerates every table.
	Seed uint64
	// Graphs is the number of random task graphs averaged per data point
	// (paper: 100).
	Graphs int
	// Realizations is the Monte-Carlo sample count per schedule
	// (paper: 1000).
	Realizations int
	// Gen generates the workloads; MeanUL is overridden by ULs.
	Gen gen.Params
	// ULs is the uncertainty-level grid (paper: 2, 4, 6, 8).
	ULs []float64
	// Eps is the ε grid for the constraint sweeps (paper: 1.0 .. 2.0).
	Eps []float64
	// RGrid is the overall-performance weight grid for Figs. 7–8.
	RGrid []float64
	// GA carries the genetic-algorithm parameters (mode and ε are set by
	// each runner).
	GA robust.Options
	// TraceEvery samples the evolution traces of Figs. 2–3 every k
	// generations (the endpoints are always included).
	TraceEvery int
	// Workers caps experiment-level parallelism; 0 means GOMAXPROCS.
	Workers int
	// Obs and Trace, when non-nil, are threaded into every solver, fault
	// executor and Monte-Carlo engine call the runners make, aggregating
	// the whole experiment's telemetry into one registry/trace. Counter
	// totals stay deterministic — graphs run in parallel but each graph's
	// counts are fixed and counter addition commutes.
	Obs   *obs.Registry
	Trace *obs.Tracer
	// Sim, when non-nil, replaces sim.EvaluateAll as the Monte-Carlo
	// evaluator every runner calls — the hook dist.Coordinator.EvaluateAll
	// plugs into to shard realizations across worker processes. Any
	// substitute must be bit-identical to the in-process engine (the dist
	// coordinator is) or the tables change. It must be safe for concurrent
	// calls: runners evaluate several graphs at once.
	Sim func(ss []*schedule.Schedule, opt sim.Options, root *rng.Source) ([]sim.Metrics, error)
	// Scenario, when non-nil, selects the workload family every runner
	// generates (layered-random or a workflow shape) and the duration model
	// every Monte-Carlo evaluation samples from (uniform, heavy-tailed,
	// correlated — the -scenario flag of the CLIs). Nil is the paper's
	// path, bit-identical to a config that never heard of scenarios.
	Scenario *scenario.Scenario
}

// Default returns a configuration that reproduces every figure's shape in
// seconds rather than hours: fewer graphs, fewer realizations, a shorter
// GA, and a smaller ε grid.
func Default() Config {
	p := gen.PaperParams()
	p.N = 50
	p.M = 4
	ga := robust.PaperOptions(robust.EpsilonConstraint, 1.0)
	ga.PopSize = 16
	ga.MaxGenerations = 120
	ga.Stagnation = 0
	return Config{
		Seed:         1,
		Graphs:       6,
		Realizations: 300,
		Gen:          p,
		ULs:          []float64{2, 4, 6, 8},
		Eps:          []float64{1.0, 1.2, 1.4, 1.6, 1.8, 2.0},
		RGrid:        []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		GA:           ga,
		TraceEvery:   10,
	}
}

// PaperScale returns the published experimental scale (Section 5):
// n=100 tasks, 100 graphs, 1000 realizations, Np=20, 1000 generations,
// ε in {1.0, 1.2, ..., 2.0}. Expect hours of CPU time.
func PaperScale() Config {
	c := Default()
	c.Gen = gen.PaperParams()
	c.Graphs = 100
	c.Realizations = 1000
	c.GA = robust.PaperOptions(robust.EpsilonConstraint, 1.0)
	c.GA.Stagnation = 0 // traces need the full horizon
	c.TraceEvery = 50
	return c
}

func (c Config) validate() error {
	switch {
	case c.Graphs < 1:
		return fmt.Errorf("experiments: Graphs=%d must be >= 1", c.Graphs)
	case c.Realizations < 1:
		return fmt.Errorf("experiments: Realizations=%d must be >= 1", c.Realizations)
	case len(c.ULs) == 0:
		return fmt.Errorf("experiments: empty UL grid")
	case c.TraceEvery < 1:
		return fmt.Errorf("experiments: TraceEvery=%d must be >= 1", c.TraceEvery)
	}
	for _, ul := range c.ULs {
		if ul < 1 {
			return fmt.Errorf("experiments: UL=%g must be >= 1", ul)
		}
	}
	return c.Gen.Validate()
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// gaOptions returns the configured GA options with zero fields replaced by
// the paper defaults, so partially filled configs stay usable.
func (c Config) gaOptions() robust.Options {
	opt := c.GA
	def := robust.PaperOptions(robust.EpsilonConstraint, 1.0)
	if opt.PopSize == 0 {
		opt.PopSize = def.PopSize
	}
	if opt.CrossoverRate == 0 {
		opt.CrossoverRate = def.CrossoverRate
	}
	if opt.MutationRate == 0 {
		opt.MutationRate = def.MutationRate
	}
	if opt.MaxGenerations == 0 {
		opt.MaxGenerations = def.MaxGenerations
	}
	opt.Obs = c.Obs
	opt.Trace = c.Trace
	return opt
}

// epsOptions returns gaOptions in ε-constraint mode at eps.
func (c Config) epsOptions(eps float64) robust.Options {
	opt := c.gaOptions()
	opt.Mode = robust.EpsilonConstraint
	opt.Eps = eps
	return opt
}

// ablationOptions returns the ε-constraint GA options the ablations run:
// at the configured GA.Eps, or at 1.5 when it is unset.
func (c Config) ablationOptions() robust.Options {
	if c.GA.Eps == 0 {
		return c.epsOptions(1.5)
	}
	return c.epsOptions(c.GA.Eps)
}

// simOptions returns the Monte-Carlo options every runner evaluates with,
// carrying the experiment-wide telemetry sinks and, when a scenario is
// configured, its duration-model overlay.
func (c Config) simOptions() sim.Options {
	opt := sim.Options{Realizations: c.Realizations, Obs: c.Obs, Trace: c.Trace}
	if c.Scenario != nil {
		opt = c.Scenario.Apply(opt)
	}
	return opt
}

// evaluateAll runs the Monte-Carlo evaluation through the configured Sim
// hook, defaulting to the in-process engine.
func (c Config) evaluateAll(ss []*schedule.Schedule, opt sim.Options, root *rng.Source) ([]sim.Metrics, error) {
	if c.Sim != nil {
		return c.Sim(ss, opt, root)
	}
	return sim.EvaluateAll(ss, opt, root)
}

// graphSeed derives the deterministic workload seed for graph g at
// uncertainty level index u, independent of scheduling order.
func (c Config) graphSeed(u, g int) uint64 {
	return c.Seed ^ (uint64(u+1) * 0x9e3779b97f4a7c15) ^ (uint64(g+1) * 0xc2b2ae3d27d4eb4f)
}

// workload builds the g-th workload at the given mean uncertainty level,
// routed through the configured scenario's family generator (nil and the
// "random" family both mean gen.Random, same draws, bit for bit).
func (c Config) workload(u, g int, ul float64) (*platform.Workload, error) {
	p := c.Gen
	p.MeanUL = ul
	r := rng.New(c.graphSeed(u, g))
	if c.Scenario != nil {
		return c.Scenario.Workload(p, r)
	}
	return gen.Random(p, r)
}

// Series is one named curve: aligned X and Y vectors.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// parallelFor runs f(i) for i in [0, n) across the configured workers and
// returns the first error.
func (c Config) parallelFor(n int, f func(i int) error) error {
	nw := c.workers()
	if nw > n {
		nw = n
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < nw; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += nw {
				errs[i] = f(i)
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// perGraph runs f on the workload of every graph at uncertainty level
// index u (mean UL ul), passing the graph's seed, and returns f's rows in
// graph order: the one per-graph loop of every runner that averages over
// graphs. It returns the first error by graph index.
func (c Config) perGraph(u int, ul float64, f func(seed uint64, w *platform.Workload) ([]float64, error)) ([][]float64, error) {
	rows := make([][]float64, c.Graphs)
	err := c.parallelFor(c.Graphs, func(g int) error {
		w, err := c.workload(u, g, ul)
		if err != nil {
			return err
		}
		rows[g], err = f(c.graphSeed(u, g), w)
		return err
	})
	return rows, err
}

// ulSeries runs f on every graph at every uncertainty level and returns
// one series per name over x = UL: series k at level u is the mean of
// column k of that level's rows.
func (c Config) ulSeries(names []string, mean func([]float64) float64, f func(seed uint64, w *platform.Workload) ([]float64, error)) ([]Series, error) {
	x := append([]float64(nil), c.ULs...)
	out := make([]Series, len(names))
	for k, name := range names {
		out[k] = Series{Name: name, X: x, Y: make([]float64, len(c.ULs))}
	}
	for u, ul := range c.ULs {
		rows, err := c.perGraph(u, ul, f)
		if err != nil {
			return nil, err
		}
		for k, m := range columnMeans(rows, mean) {
			out[k].Y[u] = m
		}
	}
	return out, nil
}

// columnMeans averages rows column by column with mean (meanFinite or
// stats.Mean), summing each column in graph order.
func columnMeans(rows [][]float64, mean func([]float64) float64) []float64 {
	out := make([]float64, len(rows[0]))
	for k := range out {
		out[k] = mean(column(rows, k))
	}
	return out
}

// column returns entry k of every row, in graph order.
func column(rows [][]float64, k int) []float64 {
	col := make([]float64, len(rows))
	for g, row := range rows {
		col[g] = row[k]
	}
	return col
}

// meanFinite averages xs ignoring NaN; returns NaN if nothing remains.
func meanFinite(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if !math.IsNaN(x) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Metric selects which robustness metric a figure reports.
type Metric int

const (
	R1 Metric = iota // inverse expected relative tardiness (Def. 3.6)
	R2               // inverse miss rate (Def. 3.7)
)

func (m Metric) String() string {
	if m == R2 {
		return "R2"
	}
	return "R1"
}

func metricOf(ms sim.Metrics, m Metric) float64 {
	if m == R2 {
		return ms.R2
	}
	return ms.R1
}

func fmtUL(ul float64) string { return fmt.Sprintf("UL=%.1f", ul) }
