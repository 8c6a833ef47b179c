package robust

import (
	"math"
	"strings"
	"testing"

	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// TestSolveAnnealValidation: every invalid option is rejected with an
// error naming it: NaN ε and temperatures, and an infinite initial
// temperature, whose cooling factor would be 0. ε = +Inf means no
// constraint and runs.
func TestSolveAnnealValidation(t *testing.T) {
	w := testWorkload(t, 2000, 10, 2)
	r := rng.New(1)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name, field string
		opt         AnnealOptions
	}{
		{"Eps=0", "Eps", AnnealOptions{Eps: 0}},
		{"Eps=NaN", "Eps", AnnealOptions{Eps: nan}},
		{"negative steps", "Steps", AnnealOptions{Eps: 1.2, Steps: -1}},
		{"inverted temperatures", "InitialTemp", AnnealOptions{Eps: 1.2, InitialTemp: 0.001, FinalTemp: 1}},
		{"negative final", "FinalTemp", AnnealOptions{Eps: 1.2, FinalTemp: -1}},
		{"NaN initial", "InitialTemp", AnnealOptions{Eps: 1.2, InitialTemp: nan}},
		{"NaN final", "FinalTemp", AnnealOptions{Eps: 1.2, FinalTemp: nan}},
		{"infinite initial", "InitialTemp", AnnealOptions{Eps: 1.2, InitialTemp: inf}},
	} {
		if _, err := SolveAnneal(w, tc.opt, r); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: err = %v, want an error naming %s", tc.name, err, tc.field)
		}
	}
	if _, err := SolveAnneal(w, AnnealOptions{Eps: inf, Steps: 50}, r); err != nil {
		t.Errorf("Eps=+Inf: %v", err)
	}
}

func TestSolveAnnealFeasibleAndImproving(t *testing.T) {
	w := testWorkload(t, 2001, 30, 4)
	opt := PaperishAnnealOptions(1.4)
	opt.Steps = 4000
	res, err := SolveAnneal(w, opt, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(res.Schedule); err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan() > 1.4*res.MHEFT+1e-9 {
		t.Fatalf("SA result infeasible: %g > 1.4·%g", res.Schedule.Makespan(), res.MHEFT)
	}
	// Started from the HEFT seed and tracking the best feasible state, the
	// final slack can never be below HEFT's.
	if res.Schedule.AvgSlack() < res.HEFT.AvgSlack()-1e-9 {
		t.Fatalf("SA slack %g below HEFT %g", res.Schedule.AvgSlack(), res.HEFT.AvgSlack())
	}
	if res.Schedule.AvgSlack() <= res.HEFT.AvgSlack() {
		t.Fatal("SA never improved the slack at all")
	}
}

func TestSolveAnnealNoSeed(t *testing.T) {
	w := testWorkload(t, 2002, 20, 3)
	opt := PaperishAnnealOptions(1.5)
	opt.Steps = 3000
	opt.NoHEFTSeed = true
	res, err := SolveAnneal(w, opt, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule == nil {
		t.Fatal("no schedule")
	}
}

func TestSolveAnnealMinSlackMetric(t *testing.T) {
	w := testWorkload(t, 2003, 20, 3)
	opt := PaperishAnnealOptions(1.5)
	opt.Steps = 2000
	opt.SlackMetric = MinSlack
	res, err := SolveAnneal(w, opt, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan() > 1.5*res.MHEFT+1e-9 {
		t.Fatal("constraint violated")
	}
}

// TestAnnealVsGAComparableQuality: with matched evaluation budgets, SA and
// the GA should land within a modest factor of each other on the attained
// slack — neither search collapses.
func TestAnnealVsGAComparableQuality(t *testing.T) {
	w := testWorkload(t, 2004, 40, 4)
	const budget = 6000
	sa, err := SolveAnneal(w, AnnealOptions{Eps: 1.4, Steps: budget}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	gaOpt := Options{
		Mode: EpsilonConstraint, Eps: 1.4,
		PopSize: 12, CrossoverRate: 0.9, MutationRate: 0.2,
		MaxGenerations: budget / 12,
	}
	ga, err := Solve(w, gaOpt, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	saSlack, gaSlack := sa.Schedule.AvgSlack(), ga.Schedule.AvgSlack()
	if saSlack < gaSlack/4 || gaSlack < saSlack/4 {
		t.Fatalf("search strategies wildly apart: SA %g vs GA %g", saSlack, gaSlack)
	}
}
