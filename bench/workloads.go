package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"time"

	"robsched/internal/dist"
	"robsched/internal/experiments"
	"robsched/internal/gen"
	"robsched/internal/heft"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/scenario"
	"robsched/internal/schedule"
	"robsched/internal/sim"
	"robsched/internal/stoch"
)

// product is one named output of a request. The benchmark compares its
// SHA-256 with the stored digests and with the other paths' outputs.
type product struct {
	name string
	data []byte
}

// server is one workload instance: inputs built from the seed, ready to
// serve a closed loop of requests from a single client.
type server interface {
	// serve runs request i. With lt non-nil the request goes through the
	// timed wrappers of layers.go, which must not change a single output.
	serve(i int, lt *layers) ([]product, error)
	// reference recomputes request i on an independent path (other
	// parallelism, other batching, in process instead of sharded) that must
	// produce the same bytes.
	reference(i int, lt *layers) ([]product, error)
	// sample is one input graph, on which the traced pass probes the
	// layers the requests do not reach.
	sample() *platform.Workload
	// workers is the worker subprocess set, nil when all work is in process.
	workers() *workerSet
	close() error
}

type workload struct {
	name, why string
	setup     func(seed uint64, sc scale, traced bool) (server, error)
}

var workloads = []workload{
	{"fig_all", "the experiments -fig all pipeline users rerun, one graph per request; GA bound, Monte-Carlo a minority", setupFigAll},
	{"solve_paper", "one robsched solve at paper options plus its 1000-realization evaluation; single-solve GA latency", setupSolvePaper},
	{"mc_uniform", "7 schedules x 1000 realizations per request under the uniform model; no GA, batched sampling fast path", setupMCUniform},
	{"mc_heavytail", "one HEFT schedule under lognormal or bounded-Pareto durations (3:1); inverse-CDF transforms dominate", setupMCHeavyTail},
	{"sharded_solve", "an island solve and its evaluation over 2 worker processes; the only workload crossing the dist wire", setupSharded},
}

func lookupWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// scale sizes every workload: full is what the benchmark measures, the
// tests run a tiny one.
type scale struct {
	n, m         int // tasks and processors per generated graph
	realizations int // Monte-Carlo realizations per evaluation

	// fig_all: the recorded config of experiments -fig all.
	figRealizations, figGenerations int

	solvePool, mcPool, heavyPool, shardPool int // distinct input graphs

	generations, shardGenerations, migrateEvery int
}

var full = scale{
	n: 100, m: 8, realizations: 1000,
	figRealizations: 500, figGenerations: 300,
	solvePool: 64, mcPool: 50, heavyPool: 32, shardPool: 16,
	generations: 1000, shardGenerations: 500, migrateEvery: 50,
}

// solveEps is the ε of every solve the benchmark runs.
const solveEps = 1.4

// Streams of seedOf: each kind of input draws from its own stream.
const (
	graphStream = iota + 1
	scheduleStream
	gaStream
	simStream
)

// seedOf derives the seed of item i of a stream from the workload seed with
// the SplitMix64 finalizer, so every input and request is a pure function
// of -seed.
func seedOf(seed uint64, stream, i int) uint64 {
	z := seed + uint64(stream)*0xd1b54a32d192ed03 + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// graph generates graph j of a pool with the paper's generator, the mean
// uncertainty level cycling through the paper's 2, 4, 6, 8.
func graph(seed uint64, sc scale, j int) (*platform.Workload, error) {
	p := gen.PaperParams()
	p.N, p.M = sc.n, sc.m
	p.MeanUL = float64(2 + 2*(j%4))
	return gen.Random(p, rng.New(seedOf(seed, graphStream, j)))
}

func graphs(seed uint64, sc scale, n int) ([]*platform.Workload, error) {
	ws := make([]*platform.Workload, n)
	for j := range ws {
		w, err := graph(seed, sc, j)
		if err != nil {
			return nil, err
		}
		ws[j] = w
	}
	return ws, nil
}

// encode renders values exactly — floats in shortest round-trip form,
// ±Inf and NaN included — as one product.
func encode(name string, vals ...any) product {
	var b bytes.Buffer
	for _, v := range vals {
		fmt.Fprintf(&b, "%v\n", v)
	}
	return product{name, b.Bytes()}
}

// schedBytes identifies a schedule: the processor of every task and the
// task order on every processor.
func schedBytes(s *schedule.Schedule) string {
	var b bytes.Buffer
	fmt.Fprint(&b, s.ProcAssignment())
	for p := 0; p < s.Workload().M(); p++ {
		fmt.Fprint(&b, s.ProcOrder(p))
	}
	return b.String()
}

// checkMetrics verifies what any correct Monte-Carlo evaluation of s must
// satisfy: the sample count, the planned makespan, ordered statistics and,
// for the bounded duration models, every realized makespan between the
// makespans at all-best-case and all-worst-case durations (the makespan is
// monotone in every duration).
func checkMetrics(s *schedule.Schedule, m sim.Metrics, opt sim.Options) error {
	switch {
	case m.Realizations != opt.Realizations:
		return fmt.Errorf("%d realizations, want %d", m.Realizations, opt.Realizations)
	case m.M0 != s.Makespan():
		return fmt.Errorf("M0 %g, schedule makespan %g", m.M0, s.Makespan())
	case !(m.MinMakespan > 0 && m.MinMakespan <= m.P50 && m.P50 <= m.P95 && m.P95 <= m.P99 &&
		m.P99 <= m.MaxMakespan && m.MinMakespan <= m.MeanMakespan && m.MeanMakespan <= m.MaxMakespan):
		return fmt.Errorf("unordered makespan statistics %+v", m)
	}
	if opt.Model == sim.ModelLognormal || opt.Corr != sim.CorrNone {
		return nil
	}
	w := s.Workload()
	best, worst := make([]float64, w.N()), make([]float64, w.N())
	for t := range best {
		b := w.BCET.At(t, s.Proc(t))
		best[t], worst[t] = b, (2*w.UL.At(t, s.Proc(t))-1)*b
	}
	lo, hi := s.MakespanWith(best), s.MakespanWith(worst)
	if m.MinMakespan < lo*(1-1e-9) || m.MaxMakespan > hi*(1+1e-9) {
		return fmt.Errorf("realized makespans [%g, %g] outside the support [%g, %g]", m.MinMakespan, m.MaxMakespan, lo, hi)
	}
	return nil
}

// solveProducts checks a solve and its evaluation and encodes them: the
// best schedule must be valid, meet the ε-constraint, and have at least the
// average slack of the HEFT schedule the GA was seeded with (elitism never
// loses a feasible individual's slack).
func solveProducts(res *robust.Result, ms []sim.Metrics, opt sim.Options) ([]product, error) {
	s := res.Schedule
	if err := schedule.Validate(s); err != nil {
		return nil, err
	}
	if s.Makespan() > solveEps*res.MHEFT {
		return nil, fmt.Errorf("best schedule violates the ε-constraint: M0 %g > %g·%g", s.Makespan(), solveEps, res.MHEFT)
	}
	if s.AvgSlack() < res.HEFT.AvgSlack() {
		return nil, fmt.Errorf("best schedule's slack %g is below HEFT's %g", s.AvgSlack(), res.HEFT.AvgSlack())
	}
	for j, t := range []*schedule.Schedule{s, res.HEFT} {
		if err := checkMetrics(t, ms[j], opt); err != nil {
			return nil, err
		}
	}
	return []product{encode("result", schedBytes(s), res.Generations, ms[0], ms[1])}, nil
}

// ---- fig_all ---------------------------------------------------------

// A fig_all request is the whole `experiments -fig all` pipeline at the
// recorded config (n=100, m=8, 500 realizations, 300 generations) on one
// graph per uncertainty level, seeded per request: twenty requests do the
// work of the recorded 20-graph run, which TestRecordedFigAll pins to the
// CSVs of cmd/experiments.
type figAll struct {
	seed uint64
	sc   scale
	w    *platform.Workload
}

func figConfig(seed uint64, sc scale, graphs, workers int) experiments.Config {
	cfg := experiments.Default()
	cfg.Seed, cfg.Graphs, cfg.Workers = seed, graphs, workers
	cfg.Realizations, cfg.GA.MaxGenerations = sc.figRealizations, sc.figGenerations
	cfg.Gen.N, cfg.Gen.M = sc.n, sc.m
	return cfg
}

// setupFigAll warms the pipeline with one pass at a tiny config.
func setupFigAll(seed uint64, sc scale, _ bool) (server, error) {
	warm := scale{n: 16, m: 3, figRealizations: 20, figGenerations: 10}
	if _, err := figProducts(figConfig(seed, warm, 1, 1)); err != nil {
		return nil, err
	}
	w, err := graph(seed, sc, 0)
	return &figAll{seed: seed, sc: sc, w: w}, err
}

func (f *figAll) serve(i int, lt *layers) ([]product, error) {
	cfg := figConfig(seedOf(f.seed, graphStream, i), f.sc, 1, 1)
	if lt != nil {
		cfg.Sim = func(ss []*schedule.Schedule, opt sim.Options, root *rng.Source) ([]sim.Metrics, error) {
			t := time.Now()
			defer lt.mc.add(t)
			return lt.evaluateAll(ss, opt, root)
		}
	}
	return figProducts(cfg)
}

// reference runs the pipeline's graph jobs on four interleaved workers.
func (f *figAll) reference(i int, _ *layers) ([]product, error) {
	return figProducts(figConfig(seedOf(f.seed, graphStream, i), f.sc, 1, 4))
}

// figProducts runs every figure of the pipeline, as cmd/experiments does,
// returning Fig. 1's text and the CSV bytes of Figs. 2–8. Two invariants
// hold for any seed: the evolution traces are log ratios against
// generation 0, so their first row is zero, and Figs. 7–8 pick ε values
// from the grid.
func figProducts(cfg experiments.Config) ([]product, error) {
	fig1, err := experiments.Fig1(cfg.Seed)
	if err != nil {
		return nil, err
	}
	ps := []product{{"fig1.txt", []byte(fig1)}}
	emit := func(name, xlabel string, series []experiments.Series) error {
		var b bytes.Buffer
		if err := experiments.WriteCSV(&b, xlabel, series); err != nil {
			return err
		}
		ps = append(ps, product{name, b.Bytes()})
		return nil
	}
	for _, fm := range []struct {
		name string
		mode robust.Mode
	}{{"fig2.csv", robust.MinMakespan}, {"fig3.csv", robust.MaxSlack}} {
		tr, err := cfg.EvolutionTrace(fm.mode)
		if err != nil {
			return nil, err
		}
		series := tr.Series()
		for _, s := range series {
			if y := s.Y[0]; y != 0 && !math.IsNaN(y) {
				return nil, fmt.Errorf("%s: %s starts at %g, want 0", fm.name, s.Name, y)
			}
		}
		if err := emit(fm.name, "step", series); err != nil {
			return nil, err
		}
	}
	sw, err := cfg.RunSweep()
	if err != nil {
		return nil, err
	}
	figs := []struct {
		name, xlabel string
		run          func() ([]experiments.Series, error)
	}{
		{"fig4.csv", "UL", sw.Fig4},
		{"fig5.csv", "eps", func() ([]experiments.Series, error) { return sw.FigEpsImprovement(experiments.R1) }},
		{"fig6.csv", "eps", func() ([]experiments.Series, error) { return sw.FigEpsImprovement(experiments.R2) }},
		{"fig7.csv", "r", func() ([]experiments.Series, error) { return sw.FigBestEps(experiments.R1) }},
		{"fig8.csv", "r", func() ([]experiments.Series, error) { return sw.FigBestEps(experiments.R2) }},
	}
	for k, fg := range figs {
		series, err := fg.run()
		if err != nil {
			return nil, err
		}
		if k >= 3 {
			for _, s := range series {
				for _, y := range s.Y {
					if !inGrid(y, cfg.Eps) && !math.IsNaN(y) {
						return nil, fmt.Errorf("%s: best ε %g is not on the grid %v", fg.name, y, cfg.Eps)
					}
				}
			}
		}
		if err := emit(fg.name, fg.xlabel, series); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

func inGrid(x float64, grid []float64) bool {
	for _, g := range grid {
		if x == g {
			return true
		}
	}
	return false
}

func (f *figAll) sample() *platform.Workload { return f.w }
func (f *figAll) workers() *workerSet        { return nil }
func (f *figAll) close() error               { return nil }

// ---- solve_paper -----------------------------------------------------

type solvePaper struct {
	seed uint64
	sc   scale
	pool []*platform.Workload
}

func setupSolvePaper(seed uint64, sc scale, _ bool) (server, error) {
	pool, err := graphs(seed, sc, sc.solvePool)
	if err != nil {
		return nil, err
	}
	s := &solvePaper{seed: seed, sc: sc, pool: pool}
	return s, warmUp(s)
}

// warmUp serves one request on the first input with streams no measured
// request uses, so the first timed request does not pay for cold caches.
func warmUp(s server) error {
	_, err := s.serve(-1, nil)
	return err
}

func (s *solvePaper) opt() robust.Options {
	opt := robust.PaperOptions(robust.EpsilonConstraint, solveEps)
	opt.Stagnation = 0
	opt.MaxGenerations = s.sc.generations
	return opt
}

func (s *solvePaper) input(i int) (*platform.Workload, *rng.Source, *rng.Source) {
	j := i % len(s.pool)
	if j < 0 {
		j = 0
	}
	return s.pool[j], rng.New(seedOf(s.seed, gaStream, i)), rng.New(seedOf(s.seed, simStream, i))
}

func (s *solvePaper) serve(i int, lt *layers) ([]product, error) {
	w, gr, sr := s.input(i)
	so := sim.Options{Realizations: s.sc.realizations}
	if lt == nil {
		res, err := robust.Solve(w, s.opt(), gr)
		if err != nil {
			return nil, err
		}
		ms, err := sim.EvaluateAll([]*schedule.Schedule{res.Schedule, res.HEFT}, so, sr)
		if err != nil {
			return nil, err
		}
		return solveProducts(res, ms, so)
	}
	res, err := lt.solve(w, s.opt(), gr)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	ms, err := lt.evaluateAll([]*schedule.Schedule{res.Schedule, res.HEFT}, so, sr)
	lt.mc.add(t)
	if err != nil {
		return nil, err
	}
	return solveProducts(res, ms, so)
}

// reference decodes and samples on a single goroutine.
func (s *solvePaper) reference(i int, _ *layers) ([]product, error) {
	w, gr, sr := s.input(i)
	opt := s.opt()
	opt.Workers = 1
	res, err := robust.Solve(w, opt, gr)
	if err != nil {
		return nil, err
	}
	so := sim.Options{Realizations: s.sc.realizations, Workers: 1}
	ms, err := sim.EvaluateAll([]*schedule.Schedule{res.Schedule, res.HEFT}, so, sr)
	if err != nil {
		return nil, err
	}
	return solveProducts(res, ms, so)
}

func (s *solvePaper) sample() *platform.Workload { return s.pool[0] }
func (s *solvePaper) workers() *workerSet        { return nil }
func (s *solvePaper) close() error               { return nil }

// ---- mc_uniform ------------------------------------------------------

type mcUniform struct {
	seed uint64
	sc   scale
	sets [][]*schedule.Schedule
}

// setupMCUniform builds the pool and seven real schedules of every graph:
// HEFT, CPOP, PEFT, MinMin, MaxMin, risk-adjusted HEFT (k=1) and a random
// valid schedule.
func setupMCUniform(seed uint64, sc scale, _ bool) (server, error) {
	pool, err := graphs(seed, sc, sc.mcPool)
	if err != nil {
		return nil, err
	}
	m := &mcUniform{seed: seed, sc: sc}
	for j, w := range pool {
		var ss []*schedule.Schedule
		for _, build := range []func() (*schedule.Schedule, error){
			func() (*schedule.Schedule, error) { return heft.HEFT(w, heft.Options{}) },
			func() (*schedule.Schedule, error) { return heft.CPOP(w, heft.Options{}) },
			func() (*schedule.Schedule, error) { return heft.PEFT(w, heft.Options{}) },
			func() (*schedule.Schedule, error) { return heft.Batch(w, heft.MinMin) },
			func() (*schedule.Schedule, error) { return heft.Batch(w, heft.MaxMin) },
			func() (*schedule.Schedule, error) { return stoch.HEFT(w, 1) },
			func() (*schedule.Schedule, error) {
				return heft.RandomSchedule(w, rng.New(seedOf(seed, scheduleStream, j)))
			},
		} {
			s, err := build()
			if err != nil {
				return nil, err
			}
			ss = append(ss, s)
		}
		m.sets = append(m.sets, ss)
	}
	return m, warmUp(m)
}

func (m *mcUniform) input(i int) ([]*schedule.Schedule, sim.Options, uint64) {
	j := i % len(m.sets)
	if j < 0 {
		j = 0
	}
	return m.sets[j], sim.Options{Realizations: m.sc.realizations}, seedOf(m.seed, simStream, i)
}

func (m *mcUniform) serve(i int, lt *layers) ([]product, error) {
	ss, so, seed := m.input(i)
	var ms []sim.Metrics
	var err error
	if lt == nil {
		ms, err = sim.EvaluateAll(ss, so, rng.New(seed))
	} else {
		t := time.Now()
		ms, err = lt.evaluateAll(ss, so, rng.New(seed))
		lt.mc.add(t)
	}
	if err != nil {
		return nil, err
	}
	return metricProducts(ss, ms, so)
}

// reference evaluates each schedule on its own, serially: under common
// random numbers a schedule's samples do not depend on its batch mates.
func (m *mcUniform) reference(i int, _ *layers) ([]product, error) {
	ss, so, seed := m.input(i)
	so.Workers = 1
	ms := make([]sim.Metrics, len(ss))
	for j, s := range ss {
		var err error
		if ms[j], err = sim.Evaluate(s, so, rng.New(seed)); err != nil {
			return nil, err
		}
	}
	return metricProducts(ss, ms, so)
}

func metricProducts(ss []*schedule.Schedule, ms []sim.Metrics, opt sim.Options) ([]product, error) {
	vals := make([]any, len(ms))
	for j, s := range ss {
		if err := checkMetrics(s, ms[j], opt); err != nil {
			return nil, err
		}
		vals[j] = ms[j]
	}
	return []product{encode("metrics", vals...)}, nil
}

func (m *mcUniform) sample() *platform.Workload { return m.sets[0][0].Workload() }
func (m *mcUniform) workers() *workerSet        { return nil }
func (m *mcUniform) close() error               { return nil }

// ---- mc_heavytail ----------------------------------------------------

type mcHeavy struct {
	seed uint64
	heft []*schedule.Schedule
	opts []sim.Options
}

var families = []string{"random", "montage", "epigenomics", "cybershake"}

// setupMCHeavyTail builds the pool across the four workload families, in
// blocks of four graphs of one family of which the last is evaluated under
// bounded-Pareto durations and the others under lognormal ones. Requests
// cycle through the pool, so every four consecutive requests mix the models
// 3:1.
func setupMCHeavyTail(seed uint64, sc scale, _ bool) (server, error) {
	m := &mcHeavy{seed: seed}
	for j := 0; j < sc.heavyPool; j++ {
		model := "lognormal"
		if j%4 == 3 {
			model = "pareto"
		}
		scen, err := scenario.Lookup(families[(j/4)%len(families)] + "-" + model)
		if err != nil {
			return nil, err
		}
		p := gen.PaperParams()
		p.N, p.M = sc.n, sc.m
		w, err := scen.Workload(p, rng.New(seedOf(seed, graphStream, j)))
		if err != nil {
			return nil, err
		}
		h, err := heft.HEFT(w, heft.Options{})
		if err != nil {
			return nil, err
		}
		m.heft = append(m.heft, h)
		m.opts = append(m.opts, scen.Apply(sim.Options{Realizations: sc.realizations}))
	}
	return m, warmUp(m)
}

func (m *mcHeavy) input(i int) (*schedule.Schedule, sim.Options, uint64) {
	j := i % len(m.heft)
	if j < 0 {
		j = 0
	}
	return m.heft[j], m.opts[j], seedOf(m.seed, simStream, i)
}

func (m *mcHeavy) serve(i int, lt *layers) ([]product, error) {
	s, so, seed := m.input(i)
	ss := []*schedule.Schedule{s}
	var ms []sim.Metrics
	var err error
	if lt == nil {
		var one sim.Metrics
		one, err = sim.Evaluate(s, so, rng.New(seed))
		ms = []sim.Metrics{one}
	} else {
		t := time.Now()
		ms, err = lt.evaluateAll(ss, so, rng.New(seed))
		lt.mc.add(t)
	}
	if err != nil {
		return nil, err
	}
	return metricProducts(ss, ms, so)
}

// reference samples serially in batches of three realizations instead of
// eight; batch width and worker count never change a bit.
func (m *mcHeavy) reference(i int, _ *layers) ([]product, error) {
	s, so, seed := m.input(i)
	so.Workers, so.BatchSize = 1, 3
	ms, err := sim.EvaluateAll([]*schedule.Schedule{s}, so, rng.New(seed))
	if err != nil {
		return nil, err
	}
	return metricProducts([]*schedule.Schedule{s}, ms, so)
}

func (m *mcHeavy) sample() *platform.Workload { return m.heft[0].Workload() }
func (m *mcHeavy) workers() *workerSet        { return nil }
func (m *mcHeavy) close() error               { return nil }

// ---- sharded_solve ---------------------------------------------------

// shardWorkers is the number of worker processes: one per core of the
// 2-core machine the benchmark was calibrated on.
const shardWorkers = 2

type sharded struct {
	seed  uint64
	sc    scale
	pool  []*platform.Workload
	ws    *workerSet
	wpool *dist.Pool
	coord *dist.Coordinator
}

func setupSharded(seed uint64, sc scale, traced bool) (server, error) {
	pool, err := graphs(seed, sc, sc.shardPool)
	if err != nil {
		return nil, err
	}
	s, err := newSharded(seed, sc, pool, traced)
	if err != nil {
		return nil, err
	}
	if err := warmUp(s); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// newSharded spawns the workers — this binary's `worker` subcommand — with
// the wire counted when traced.
func newSharded(seed uint64, sc scale, pool []*platform.Workload, traced bool) (*sharded, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the worker binary: %w", err)
	}
	ws := &workerSet{exe: exe}
	if traced {
		ws.wire = &wireStats{}
	}
	t := time.Now()
	wp, err := dist.NewSpawnPool(shardWorkers, ws.spawn)
	ws.spawnTime = time.Since(t)
	if err != nil {
		return nil, err
	}
	return &sharded{seed: seed, sc: sc, pool: pool, ws: ws, wpool: wp, coord: &dist.Coordinator{Pool: wp}}, nil
}

func (s *sharded) opt() robust.Options {
	opt := robust.PaperOptions(robust.EpsilonConstraint, solveEps)
	opt.Stagnation = 0
	opt.MaxGenerations = s.sc.shardGenerations
	opt.Islands = 2
	opt.MigrationEvery = s.sc.migrateEvery
	return opt
}

func (s *sharded) input(i int) (*platform.Workload, *rng.Source, *rng.Source) {
	j := i % len(s.pool)
	if j < 0 {
		j = 0
	}
	return s.pool[j], rng.New(seedOf(s.seed, gaStream, i)), rng.New(seedOf(s.seed, simStream, i))
}

func (s *sharded) serve(i int, lt *layers) ([]product, error) {
	w, gr, sr := s.input(i)
	so := sim.Options{Realizations: s.sc.realizations}
	t := time.Now()
	res, err := s.coord.Solve(w, s.opt(), gr)
	if lt != nil {
		lt.distSolve.add(t)
	}
	if err != nil {
		return nil, err
	}
	t = time.Now()
	ms, err := s.coord.EvaluateAll([]*schedule.Schedule{res.Schedule, res.HEFT}, so, sr)
	if lt != nil {
		lt.distEval.add(t)
		lt.mc.add(t)
	}
	if err != nil {
		return nil, err
	}
	return solveProducts(res, ms, so)
}

// reference runs the same islands and evaluation in process; with lt
// non-nil it times them as the in-process twins of the sharded calls.
func (s *sharded) reference(i int, lt *layers) ([]product, error) {
	w, gr, sr := s.input(i)
	so := sim.Options{Realizations: s.sc.realizations}
	t := time.Now()
	res, err := robust.Solve(w, s.opt(), gr)
	if lt != nil {
		lt.localSolve.add(t)
	}
	if err != nil {
		return nil, err
	}
	ss := []*schedule.Schedule{res.Schedule, res.HEFT}
	var ms []sim.Metrics
	if lt == nil {
		ms, err = sim.EvaluateAll(ss, so, sr)
	} else {
		t = time.Now()
		ms, err = lt.evaluateAll(ss, so, sr)
		lt.localEval.add(t)
	}
	if err != nil {
		return nil, err
	}
	return solveProducts(res, ms, so)
}

func (s *sharded) sample() *platform.Workload { return s.pool[0] }
func (s *sharded) workers() *workerSet        { return s.ws }
func (s *sharded) close() error               { return s.wpool.Close() }
