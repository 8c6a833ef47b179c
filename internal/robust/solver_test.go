package robust

import (
	"math"
	"runtime/debug"
	"strings"
	"testing"

	"robsched/internal/ga"
	"robsched/internal/heft"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// quickOptions returns a small-but-effective GA configuration for tests.
func quickOptions(mode Mode, eps float64) Options {
	return Options{
		Mode: mode, Eps: eps,
		PopSize: 12, CrossoverRate: 0.9, MutationRate: 0.2,
		MaxGenerations: 80, Stagnation: 0,
	}
}

func TestSolveMinMakespanNeverWorseThanHEFT(t *testing.T) {
	// The HEFT chromosome seeds the population and elitism preserves the
	// best individual, so the final makespan can never exceed HEFT's.
	for seed := uint64(0); seed < 4; seed++ {
		w := testWorkload(t, 100+seed, 30, 4)
		res, err := Solve(w, quickOptions(MinMakespan, 0), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := schedule.Validate(res.Schedule); err != nil {
			t.Fatal(err)
		}
		if res.Schedule.Makespan() > res.MHEFT+1e-9 {
			t.Fatalf("seed %d: GA makespan %g worse than HEFT %g",
				seed, res.Schedule.Makespan(), res.MHEFT)
		}
	}
}

func TestSolveMinMakespanImprovesOverRandom(t *testing.T) {
	w := testWorkload(t, 200, 30, 4)
	r := rng.New(1)
	res, err := Solve(w, quickOptions(MinMakespan, 0), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := 0; i < 20; i++ {
		rs, err := heft.RandomSchedule(w, r)
		if err != nil {
			t.Fatal(err)
		}
		worst += rs.Makespan()
	}
	if avg := worst / 20; res.Schedule.Makespan() >= avg {
		t.Fatalf("GA makespan %g not better than random average %g",
			res.Schedule.Makespan(), avg)
	}
}

func TestSolveMaxSlackIncreasesSlack(t *testing.T) {
	w := testWorkload(t, 300, 30, 4)
	res, err := Solve(w, quickOptions(MaxSlack, 0), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Seeded with HEFT and elitist, so slack must be at least HEFT's, and
	// for a 30-task/4-proc instance the GA should strictly improve it.
	if res.Schedule.AvgSlack() < res.HEFT.AvgSlack()-1e-9 {
		t.Fatalf("GA slack %g below HEFT slack %g",
			res.Schedule.AvgSlack(), res.HEFT.AvgSlack())
	}
	if res.Schedule.AvgSlack() <= res.HEFT.AvgSlack() {
		t.Fatalf("GA did not improve slack at all (%g)", res.Schedule.AvgSlack())
	}
}

func TestSolveEpsilonConstraintFeasible(t *testing.T) {
	for _, eps := range []float64{1.0, 1.3, 2.0} {
		w := testWorkload(t, 400, 30, 4)
		res, err := Solve(w, quickOptions(EpsilonConstraint, eps), rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := schedule.Validate(res.Schedule); err != nil {
			t.Fatal(err)
		}
		bound := eps * res.MHEFT
		if res.Schedule.Makespan() > bound+1e-9 {
			t.Fatalf("eps=%g: result infeasible: M0 %g > bound %g",
				eps, res.Schedule.Makespan(), bound)
		}
		if res.Schedule.AvgSlack() < res.HEFT.AvgSlack()-1e-9 {
			t.Fatalf("eps=%g: slack %g below HEFT's %g",
				eps, res.Schedule.AvgSlack(), res.HEFT.AvgSlack())
		}
	}
}

func TestLargerEpsilonMoreSlack(t *testing.T) {
	// Relaxing the makespan bound can only expand the feasible set, so the
	// attained slack should (weakly, modulo search noise) increase. We
	// compare the extremes with the same seed and allow a tiny tolerance.
	w := testWorkload(t, 500, 40, 4)
	tight, err := Solve(w, quickOptions(EpsilonConstraint, 1.0), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Solve(w, quickOptions(EpsilonConstraint, 2.0), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if loose.Schedule.AvgSlack() < tight.Schedule.AvgSlack()*0.9 {
		t.Fatalf("eps=2.0 slack %g much smaller than eps=1.0 slack %g",
			loose.Schedule.AvgSlack(), tight.Schedule.AvgSlack())
	}
}

func TestSolveNoHEFTSeed(t *testing.T) {
	w := testWorkload(t, 600, 20, 3)
	opt := quickOptions(EpsilonConstraint, 1.5)
	opt.NoHEFTSeed = true
	res, err := Solve(w, opt, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule == nil || res.HEFT == nil {
		t.Fatal("missing schedules")
	}
}

func TestSolveMinSlackMetric(t *testing.T) {
	w := testWorkload(t, 650, 20, 3)
	opt := quickOptions(EpsilonConstraint, 1.5)
	opt.SlackMetric = MinSlack
	res, err := Solve(w, opt, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan() > 1.5*res.MHEFT+1e-9 {
		t.Fatal("min-slack run broke the constraint")
	}
}

func TestSolveDefaultsToPaperOptions(t *testing.T) {
	w := testWorkload(t, 700, 10, 2)
	// Zero GA parameters: Solve must substitute the paper defaults rather
	// than fail. Keep the graph tiny so the 1000-generation default (with
	// its 100-generation stagnation window) stays fast.
	res, err := Solve(w, Options{Mode: EpsilonConstraint, Eps: 1.2}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations == 0 {
		t.Fatal("no generations evolved")
	}
	if !res.Stagnated && res.Generations != 1000 {
		t.Fatalf("unexpected termination after %d generations", res.Generations)
	}
}

// TestSolveRejectsBadEps: an ε-constraint run needs ε > 0, and NaN is not
// (it would make every triple M0-only and every Eqn. 8 fitness NaN). ε =
// +Inf means no constraint and runs.
func TestSolveRejectsBadEps(t *testing.T) {
	w := testWorkload(t, 800, 10, 2)
	for _, tc := range []struct {
		eps float64
		ok  bool
	}{
		{0, false}, {-1, false}, {math.NaN(), false}, {math.Inf(-1), false},
		{1.2, true}, {math.Inf(1), true},
	} {
		_, err := Solve(w, quickOptions(EpsilonConstraint, tc.eps), rng.New(9))
		if tc.ok && err != nil {
			t.Errorf("eps=%g: %v", tc.eps, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "Eps")) {
			t.Errorf("eps=%g: err = %v, want an error naming Eps", tc.eps, err)
		}
	}
}

// TestOnGenerationObservesEveryGeneration: the callback sees every
// generation's best chromosome, the one the Observer's best fitness
// scores: under MinMakespan its decoded makespan is -GenStats.Best.
func TestOnGenerationObservesEveryGeneration(t *testing.T) {
	w := testWorkload(t, 900, 15, 3)
	opt := quickOptions(MinMakespan, 0)
	opt.MaxGenerations = 10
	var gens []int
	var spans []float64
	opt.OnGeneration = func(gen int, best *Chromosome) {
		gens = append(gens, gen)
		spans = append(spans, decodeBest(t, w, best).Makespan())
	}
	var stats []ga.GenStats
	opt.Observer = ga.ObserverFunc(func(s ga.GenStats) { stats = append(stats, s) })
	if _, err := Solve(w, opt, rng.New(10)); err != nil {
		t.Fatal(err)
	}
	// Generation 0 (initial population) plus 10 evolved generations.
	if len(gens) != 11 || len(stats) != 11 {
		t.Fatalf("callback called %d times, observer %d, want 11 each", len(gens), len(stats))
	}
	for i, g := range gens {
		if g != i || stats[i].Gen != i {
			t.Fatalf("generation sequence %v not consecutive", gens)
		}
		if spans[i] != -stats[i].Best {
			t.Fatalf("generation %d: best chromosome's makespan %v, observer's best fitness %v", i, spans[i], stats[i].Best)
		}
	}
	// In MinMakespan mode with elitism, the observed best makespan is
	// non-increasing across generations.
	for i := 1; i < len(spans); i++ {
		if spans[i] > spans[i-1]+1e-9 {
			t.Fatalf("best makespan increased at generation %d: %g -> %g",
				i, spans[i-1], spans[i])
		}
	}
	if math.IsNaN(spans[0]) {
		t.Fatal("NaN makespan observed")
	}
}

// TestUnknownModeIsAnError: an out-of-range Mode is rejected when the
// engine is built, before any evaluation could reach it.
func TestUnknownModeIsAnError(t *testing.T) {
	w := testWorkload(t, 970, 12, 3)
	opt := quickOptions(Mode(7), 1.2)
	if _, err := NewEngine(w, opt); err == nil || !strings.Contains(err.Error(), "unknown mode 7") {
		t.Fatalf("NewEngine with Mode(7): %v, want an unknown-mode error", err)
	}
	for _, islands := range []int{1, 2} {
		opt.Islands, opt.MigrationEvery = islands, 5
		if _, err := Solve(w, opt, rng.New(1)); err == nil || !strings.Contains(err.Error(), "unknown mode 7") {
			t.Fatalf("Solve with Mode(7), %d islands: %v, want an unknown-mode error", islands, err)
		}
	}
}

// TestEqn8FitnessOrdering exercises the ε-constraint fitness directly:
// feasible individuals rank by slack, infeasible ones strictly below every
// feasible one, worse with larger violation.
func TestEqn8FitnessOrdering(t *testing.T) {
	w := testWorkload(t, 950, 25, 4)
	r := rng.New(11)
	hs, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bound := 1.2 * hs.Makespan()
	eval := newEvaluator(w, Options{Mode: EpsilonConstraint, Eps: 1.2, NoMetricsCache: true}, hs.Makespan(), nil, bound)
	// Collect a population with both kinds.
	var pop []*Chromosome
	for len(pop) < 30 {
		pop = append(pop, Random(w, r))
	}
	pop = append(pop, FromSchedule(hs)) // certainly feasible
	fit := make([]float64, len(pop))
	eval.evaluateInto(pop, fit)
	minFeasible, maxInfeasible := math.Inf(1), math.Inf(-1)
	nFeas, nInfeas := 0, 0
	for i, c := range pop {
		s, err := c.Decode(w)
		if err != nil {
			t.Fatal(err)
		}
		if s.Makespan() <= bound {
			nFeas++
			if fit[i] != s.AvgSlack() {
				t.Fatalf("feasible fitness %g != slack %g", fit[i], s.AvgSlack())
			}
			if fit[i] < minFeasible {
				minFeasible = fit[i]
			}
		} else {
			nInfeas++
			if fit[i] > maxInfeasible {
				maxInfeasible = fit[i]
			}
		}
	}
	if nFeas == 0 || nInfeas == 0 {
		t.Skipf("population not mixed (feasible=%d infeasible=%d)", nFeas, nInfeas)
	}
	if maxInfeasible >= minFeasible {
		t.Fatalf("infeasible fitness %g not below feasible minimum %g",
			maxInfeasible, minFeasible)
	}
	// Larger violation → smaller fitness among infeasible individuals.
	type vi struct{ m0, f float64 }
	var vis []vi
	for i, c := range pop {
		s, _ := c.Decode(w)
		if s.Makespan() > bound {
			vis = append(vis, vi{s.Makespan(), fit[i]})
		}
	}
	for i := 0; i < len(vis); i++ {
		for j := 0; j < len(vis); j++ {
			if vis[i].m0 < vis[j].m0-1e-9 && vis[i].f < vis[j].f-1e-9 {
				t.Fatalf("violation ordering broken: M0 %g fit %g vs M0 %g fit %g",
					vis[i].m0, vis[i].f, vis[j].m0, vis[j].f)
			}
		}
	}
}

// TestEqn8NoFeasibleFallback: when no individual satisfies the constraint,
// fitness must still rank by violation (smaller M0 is better).
func TestEqn8NoFeasibleFallback(t *testing.T) {
	w := testWorkload(t, 960, 25, 4)
	r := rng.New(12)
	hs, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An absurdly tight bound makes everything infeasible.
	eval := newEvaluator(w, Options{Mode: EpsilonConstraint, Eps: 0.01, NoMetricsCache: true}, hs.Makespan(), nil, 0.01*hs.Makespan())
	var pop []*Chromosome
	for len(pop) < 10 {
		pop = append(pop, Random(w, r))
	}
	fit := make([]float64, len(pop))
	eval.evaluateInto(pop, fit)
	for i := range pop {
		for j := range pop {
			si, _ := pop[i].Decode(w)
			sj, _ := pop[j].Decode(w)
			if si.Makespan() < sj.Makespan()-1e-9 && fit[i] <= fit[j]-1e-12 {
				t.Fatalf("fallback ranking broken: M0 %g fit %g vs M0 %g fit %g",
					si.Makespan(), fit[i], sj.Makespan(), fit[j])
			}
		}
	}
}

func TestSolveWithIslands(t *testing.T) {
	w := testWorkload(t, 1100, 30, 4)
	opt := quickOptions(EpsilonConstraint, 1.4)
	opt.Islands = 3
	opt.MigrationEvery = 15
	res, err := Solve(w, opt, rng.New(20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan() > 1.4*res.MHEFT+1e-9 {
		t.Fatal("island result infeasible")
	}
	if res.Schedule.AvgSlack() < res.HEFT.AvgSlack()-1e-9 {
		t.Fatal("island result below HEFT slack (seed lost)")
	}
	// Islands must be incompatible with the trace observer.
	opt.OnGeneration = func(int, *Chromosome) {}
	if _, err := Solve(w, opt, rng.New(21)); err == nil {
		t.Fatal("islands with OnGeneration accepted")
	}
}

// TestSolveGenerationAllocatesOnlyCacheInserts pins the allocation-free
// generation: a serial ε-constraint Solve allocates more for more
// generations only through the metrics cache's inserts — per novel
// genotype its packed copy, plus a few for the map's growth.
// Decode targets, dropped chromosomes and the evaluator's scratch are all
// reused.
func TestSolveGenerationAllocatesOnlyCacheInserts(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	// A collection would empty the sync.Pools behind the decoder and the
	// operators' scratch; refilling them is set-up cost, not a generation's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w := testWorkload(t, 61, 60, 4)
	hs, err := HEFTBaseline(w)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(gens int) (allocs float64, misses int64) {
		allocs = testing.AllocsPerRun(2, func() {
			opt := PaperOptions(EpsilonConstraint, 1.3)
			opt.MaxGenerations, opt.Stagnation = gens, 0
			opt.HEFT, opt.Cache = hs, NewMetricsCache()
			if _, err := Solve(w, opt, rng.New(9)); err != nil {
				t.Fatal(err)
			}
			misses = opt.Cache.Stats().Misses
		})
		return allocs, misses
	}
	shortAllocs, shortMisses := measure(100)
	longAllocs, longMisses := measure(400)
	if longMisses <= shortMisses {
		t.Fatalf("%d misses in 400 generations, %d in 100", longMisses, shortMisses)
	}
	const mapGrowth = 16
	budget := float64(longMisses-shortMisses) + mapGrowth
	extra := longAllocs - shortAllocs
	if extra > budget {
		t.Fatalf("300 more generations allocate %.0f more times (100 gens: %.0f, 400 gens: %.0f); "+
			"their %d extra cache inserts allow %.0f", extra, shortAllocs, longAllocs, longMisses-shortMisses, budget)
	}
	t.Logf("%.0f extra allocations for %d extra misses", extra, longMisses-shortMisses)
}

// TestMinSlackIsZeroOnGASchedules pins what makes the MinSlack surrogate
// degenerate: every schedule has a critical path, whose tasks have zero
// slack, so every genotype an ε-constraint GA scores — each entry of its
// metrics cache, under either slack metric — and the best schedule of
// every generation read MinSlack 0 up to rounding.
func TestMinSlackIsZeroOnGASchedules(t *testing.T) {
	w := testWorkload(t, 71, 60, 4)
	zero := func(ctx string, v float64) {
		t.Helper()
		if math.Abs(v) > 1e-9 {
			t.Fatalf("%s: MinSlack = %v, want 0 up to rounding", ctx, v)
		}
	}
	for _, metric := range []SlackMetric{AvgSlack, MinSlack} {
		opt := quickOptions(EpsilonConstraint, 1.3)
		opt.SlackMetric = metric
		opt.Cache = NewMetricsCache()
		opt.OnGeneration = func(_ int, best *Chromosome) { zero("generation best", decodeBest(t, w, best).MinSlack()) }
		res, err := Solve(w, opt, rng.New(uint64(metric)+5))
		if err != nil {
			t.Fatal(err)
		}
		zero("result", res.Schedule.MinSlack())
		scored := 0
		for _, met := range opt.Cache.m {
			zero("cache entry", met.minSlack)
			scored++
		}
		if scored < 100 {
			t.Fatalf("only %d genotypes scored", scored)
		}
	}
}
