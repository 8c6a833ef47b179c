package robust

import (
	"math"
	"strings"
	"testing"

	"robsched/internal/heft"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

func paretoOpts() ParetoOptions {
	return ParetoOptions{PopSize: 16, CrossoverRate: 0.9, MutationRate: 0.2, MaxGenerations: 40}
}

// TestSolveParetoValidation: every invalid option is rejected with an
// error naming it, NaN rates included.
func TestSolveParetoValidation(t *testing.T) {
	w := testWorkload(t, 1000, 15, 3)
	r := rng.New(1)
	nan := math.NaN()
	bad := []struct {
		field string
		opt   ParetoOptions
	}{
		{"PopSize", ParetoOptions{PopSize: 2, CrossoverRate: 0.9, MutationRate: 0.1, MaxGenerations: 10}},
		{"PopSize", ParetoOptions{PopSize: 7, CrossoverRate: 0.9, MutationRate: 0.1, MaxGenerations: 10}},
		{"MaxGenerations", ParetoOptions{PopSize: 8, CrossoverRate: 0.9, MutationRate: 0.1, MaxGenerations: 0}},
		{"CrossoverRate", ParetoOptions{PopSize: 8, CrossoverRate: 1.9, MutationRate: 0.1, MaxGenerations: 10}},
		{"CrossoverRate", ParetoOptions{PopSize: 8, CrossoverRate: nan, MutationRate: 0.1, MaxGenerations: 10}},
		{"MutationRate", ParetoOptions{PopSize: 8, CrossoverRate: 0.9, MutationRate: -0.1, MaxGenerations: 10}},
		{"MutationRate", ParetoOptions{PopSize: 8, CrossoverRate: 0.9, MutationRate: nan, MaxGenerations: 10}},
	}
	for i, tc := range bad {
		if _, err := SolvePareto(w, tc.opt, r); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("bad options %d: err = %v, want an error naming %s", i, err, tc.field)
		}
	}
}

// TestSolveWeightedSumRejectsBadWeight: the weight must lie in [0,1], and
// NaN does not.
func TestSolveWeightedSumRejectsBadWeight(t *testing.T) {
	w := testWorkload(t, 1002, 10, 2)
	for _, weight := range []float64{-0.1, 1.1, math.NaN(), math.Inf(1)} {
		_, err := SolveWeightedSum(w, weight, quickOptions(EpsilonConstraint, 1.2), rng.New(1))
		if err == nil || !strings.Contains(err.Error(), "weight") {
			t.Errorf("weight %g: err = %v, want an error naming the weight", weight, err)
		}
	}
}

func TestSolveParetoFrontProperties(t *testing.T) {
	w := testWorkload(t, 1001, 30, 4)
	front, err := SolvePareto(w, paretoOpts(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty front")
	}
	for i := 1; i < len(front); i++ {
		a, b := front[i-1], front[i]
		// Sorted by increasing makespan.
		if b.Makespan < a.Makespan-1e-9 {
			t.Fatalf("front not sorted by makespan: %g then %g", a.Makespan, b.Makespan)
		}
		// Mutually non-dominated: along increasing makespan, slack must
		// strictly increase (otherwise the later point is dominated).
		if b.Slack <= a.Slack+1e-9 {
			t.Fatalf("front point %d dominated: (%g,%g) then (%g,%g)",
				i, a.Makespan, a.Slack, b.Makespan, b.Slack)
		}
	}
	// Every front schedule is a valid schedule of the workload.
	for _, p := range front {
		if p.Schedule.Makespan() != p.Makespan {
			t.Fatal("point metadata inconsistent with schedule")
		}
		if err := schedule.Validate(p.Schedule); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSolveParetoCoversHEFTRegion(t *testing.T) {
	// Seeded with HEFT, the front's minimum makespan can never exceed
	// HEFT's (the seed survives unless dominated by something better).
	w := testWorkload(t, 1002, 25, 4)
	hs, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	front, err := SolvePareto(w, paretoOpts(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if front[0].Makespan > hs.Makespan()+1e-9 {
		t.Fatalf("front min makespan %g exceeds HEFT %g", front[0].Makespan, hs.Makespan())
	}
	// The front should also contain something substantially slacker than
	// HEFT for this size of instance.
	best := front[len(front)-1]
	if best.Slack <= hs.AvgSlack() {
		t.Fatalf("front max slack %g does not beat HEFT %g", best.Slack, hs.AvgSlack())
	}
}

func TestSolveParetoNoSeed(t *testing.T) {
	w := testWorkload(t, 1003, 15, 3)
	opt := paretoOpts()
	opt.NoHEFTSeed = true
	front, err := SolvePareto(w, opt, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty front")
	}
}

func TestSolveWeightedSumExtremes(t *testing.T) {
	w := testWorkload(t, 1004, 25, 4)
	opt := quickOptions(EpsilonConstraint, 1) // reuse GA params
	// weight=1: pure makespan minimization; seeded with HEFT so never
	// worse.
	res1, err := SolveWeightedSum(w, 1, opt, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Schedule.Makespan() > res1.MHEFT+1e-9 {
		t.Fatalf("weight=1 worse than HEFT: %g > %g", res1.Schedule.Makespan(), res1.MHEFT)
	}
	// weight=0: pure slack maximization.
	res0, err := SolveWeightedSum(w, 0, opt, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res0.Schedule.AvgSlack() < res1.Schedule.AvgSlack() {
		t.Fatalf("weight=0 slack %g below weight=1 slack %g",
			res0.Schedule.AvgSlack(), res1.Schedule.AvgSlack())
	}
	if _, err := SolveWeightedSum(w, 1.5, opt, rng.New(5)); err == nil {
		t.Fatal("weight out of range accepted")
	}
}

// TestSolveWeightedSumCacheIdentical: the weighted-sum run consults the
// metrics cache as Solve does, and a hit returns the exact floats a decode
// would, so turning the cache off changes no result for any weight.
func TestSolveWeightedSumCacheIdentical(t *testing.T) {
	w := testWorkload(t, 1010, 30, 4)
	for _, weight := range []float64{0, 0.5, 1} {
		off := quickOptions(EpsilonConstraint, 1)
		off.NoMetricsCache = true
		want, err := SolveWeightedSum(w, weight, off, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		on := quickOptions(EpsilonConstraint, 1)
		on.Cache = NewMetricsCache()
		got, err := SolveWeightedSum(w, weight, on, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		if !eqInts(want.Schedule.Order(), got.Schedule.Order()) ||
			!eqInts(want.Schedule.ProcAssignment(), got.Schedule.ProcAssignment()) ||
			want.Schedule.Makespan() != got.Schedule.Makespan() ||
			want.Schedule.AvgSlack() != got.Schedule.AvgSlack() ||
			want.Generations != got.Generations || want.Stagnated != got.Stagnated {
			t.Fatalf("weight=%g: the run with a cache differs from the run without one", weight)
		}
		if on.Cache.Stats().Hits == 0 {
			t.Fatalf("weight=%g: the cache was never hit", weight)
		}
	}
}

func TestSolveWeightedSumDefaults(t *testing.T) {
	w := testWorkload(t, 1005, 8, 2)
	res, err := SolveWeightedSum(w, 0.5, Options{}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule == nil || res.MHEFT <= 0 {
		t.Fatal("missing results")
	}
}

// TestParetoFrontDominatesEpsilonPoints checks consistency between the two
// solvers: each ε-constraint solution should be (weakly) near the NSGA-II
// front, i.e. not strictly dominated by a front point by a wide margin in
// both objectives simultaneously. This is a sanity band, not an equality.
func TestParetoFrontVsEpsilonConstraint(t *testing.T) {
	w := testWorkload(t, 1006, 25, 4)
	opt := paretoOpts()
	opt.MaxGenerations = 60
	front, err := SolvePareto(w, opt, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	eres, err := Solve(w, quickOptions(EpsilonConstraint, 1.4), rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	em, es := eres.Schedule.Makespan(), eres.Schedule.AvgSlack()
	// The ε solution must not be dominated by any front point by more than
	// 30% in both objectives (both searches are stochastic).
	for _, p := range front {
		if p.Makespan < em*0.7 && p.Slack > es*1.3 {
			t.Fatalf("ε-constraint solution (%g, %g) far inside the NSGA-II front (point %g, %g)",
				em, es, p.Makespan, p.Slack)
		}
	}
}
