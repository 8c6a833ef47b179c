package robsched_test

// Public-API tests for the extensions beyond the paper: Pareto fronts,
// weighted-sum scalarization, the dynamic online dispatcher, risk-adjusted
// scheduling and the tail metrics.

import (
	"math"
	"testing"

	"robsched"
)

func extWorkload(t testing.TB, seed uint64, n, m int, ul float64) *robsched.Workload {
	t.Helper()
	p := robsched.PaperWorkloadParams()
	p.N, p.M, p.MeanUL = n, m, ul
	w, err := robsched.GenerateWorkload(p, robsched.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPublicParetoFront(t *testing.T) {
	w := extWorkload(t, 1, 30, 4, 4)
	opt := robsched.PaperParetoOptions()
	opt.PopSize = 16
	opt.MaxGenerations = 40
	front, err := robsched.SolvePareto(w, opt, robsched.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 2 {
		t.Fatalf("front has %d points", len(front))
	}
	// Non-dominated and sorted.
	objs := make([][]float64, len(front))
	for i, p := range front {
		objs[i] = []float64{p.Makespan, -p.Slack}
	}
	if nd := robsched.ParetoFilter(objs); len(nd) != len(front) {
		t.Fatalf("front contains dominated points: %d of %d survive", len(nd), len(front))
	}
	// Hypervolume positive against a dominated reference.
	ref := [2]float64{front[len(front)-1].Makespan * 2, 1}
	if hv := robsched.Hypervolume2D(objs, ref); hv <= 0 {
		t.Fatalf("hypervolume = %g", hv)
	}
}

func TestPublicWeightedSum(t *testing.T) {
	w := extWorkload(t, 3, 25, 3, 3)
	opt := robsched.PaperSolveOptions(robsched.EpsilonConstraint, 1)
	opt.MaxGenerations = 60
	opt.Stagnation = 0
	res, err := robsched.SolveWeightedSum(w, 0.8, opt, robsched.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan() > res.MHEFT+1e-9 {
		// weight 0.8 strongly emphasizes makespan; HEFT seed + elitism
		// still guarantee the makespan term never regresses past HEFT when
		// weight is 1, but at 0.8 slack can buy some makespan. Just check
		// sanity bounds.
		if res.Schedule.Makespan() > 3*res.MHEFT {
			t.Fatalf("weighted-sum schedule implausibly slow: %g vs HEFT %g",
				res.Schedule.Makespan(), res.MHEFT)
		}
	}
}

func TestPublicDynamicDispatcher(t *testing.T) {
	w := extWorkload(t, 5, 30, 4, 4)
	m, err := robsched.EvaluateDynamic(w, robsched.SimOptions{Realizations: 150}, robsched.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanMakespan <= 0 || m.Realizations != 150 {
		t.Fatalf("bad dynamic metrics: %+v", m)
	}
	// Single simulated execution through the public API.
	durs := robsched.RealizeDurations(w, robsched.NewRNG(7))
	res, err := robsched.SimulateDynamic(w, durs, w.Expected(), robsched.UpwardRanks(w))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || len(res.Proc) != w.N() {
		t.Fatalf("bad dynamic result: %+v", res)
	}
}

func TestPublicRiskAdjusted(t *testing.T) {
	w := extWorkload(t, 8, 25, 3, 5)
	sigma := robsched.SigmaMatrix(w)
	if sigma.Rows() != w.N() || sigma.Cols() != w.M() {
		t.Fatal("sigma shape wrong")
	}
	view, err := robsched.RiskAdjustedWorkload(w, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	// Adjusted durations strictly exceed the plain expectations wherever
	// sigma is positive.
	grew := false
	for i := 0; i < w.N(); i++ {
		for j := 0; j < w.M(); j++ {
			if view.ExpectedAt(i, j) < w.ExpectedAt(i, j)-1e-12 {
				t.Fatal("risk adjustment shrank a duration")
			}
			if view.ExpectedAt(i, j) > w.ExpectedAt(i, j) {
				grew = true
			}
		}
	}
	if !grew {
		t.Fatal("risk adjustment had no effect at UL=5")
	}
	s, err := robsched.RiskHEFT(w, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	// The returned schedule is bound to the original workload: its M0 uses
	// plain expectations.
	if s.Workload() != w {
		t.Fatal("risk HEFT schedule not bound to the original workload")
	}
	// Rebind round trip.
	back, err := robsched.RebindSchedule(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if back.Makespan() != s.Makespan() {
		t.Fatal("rebind changed the analysis")
	}
}

func TestPublicTailMetrics(t *testing.T) {
	w := extWorkload(t, 9, 30, 4, 4)
	s, err := robsched.HEFT(w)
	if err != nil {
		t.Fatal(err)
	}
	m, err := robsched.Evaluate(s, robsched.SimOptions{Realizations: 1000, Deadline: 1e12}, robsched.NewRNG(10))
	if err != nil {
		t.Fatal(err)
	}
	if !(m.P50 <= m.P95 && m.P95 <= m.P99) {
		t.Fatalf("tail quantiles out of order: %g %g %g", m.P50, m.P95, m.P99)
	}
	if m.DeadlineMissRate != 0 {
		t.Fatalf("huge deadline missed: %g", m.DeadlineMissRate)
	}
	if math.IsNaN(m.P95) {
		t.Fatal("NaN quantile")
	}
}

func TestPublicBatchAndAnneal(t *testing.T) {
	w := extWorkload(t, 11, 25, 3, 3)
	for _, rule := range []robsched.BatchRule{robsched.MinMin, robsched.MaxMin} {
		s, err := robsched.BatchSchedule(w, rule)
		if err != nil {
			t.Fatalf("%v: %v", rule, err)
		}
		if s.Makespan() <= 0 {
			t.Fatalf("%v: bad makespan", rule)
		}
	}
	opt := robsched.PaperishAnnealOptions(1.4)
	opt.Steps = 2000
	res, err := robsched.SolveAnneal(w, opt, robsched.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan() > 1.4*res.MHEFT+1e-9 {
		t.Fatal("SA result infeasible")
	}
}

func TestPublicScheduleAnalysis(t *testing.T) {
	w := extWorkload(t, 13, 30, 4, 3)
	s, err := robsched.HEFT(w)
	if err != nil {
		t.Fatal(err)
	}
	cp := s.CriticalPath()
	if len(cp) == 0 {
		t.Fatal("empty critical path")
	}
	for _, v := range cp {
		if s.Slack(v) > 1e-9 {
			t.Fatalf("critical task %d has slack", v)
		}
	}
	util := s.ProcessorUtilization()
	if len(util) != w.M() {
		t.Fatal("utilization length wrong")
	}
	if s.TotalIdleTime() < 0 || s.LoadImbalance() < 0 {
		t.Fatal("negative idle/imbalance")
	}
}

func TestPublicRealizeAll(t *testing.T) {
	w := extWorkload(t, 17, 25, 3, 4)
	heft, err := robsched.HEFT(w)
	if err != nil {
		t.Fatal(err)
	}
	cpop, err := robsched.CPOP(w)
	if err != nil {
		t.Fatal(err)
	}
	opt := robsched.SimOptions{Realizations: 300}
	mks, err := robsched.RealizeAll([]*robsched.Schedule{heft, cpop}, opt, robsched.NewRNG(18))
	if err != nil {
		t.Fatal(err)
	}
	if len(mks) != 2 || len(mks[0]) != 300 || len(mks[1]) != 300 {
		t.Fatalf("bad sample shape: %d schedules", len(mks))
	}
	// The raw sample is the exact substrate of the metric views (same seed,
	// same realizations), and it must be independent of the parallel fan-out.
	m, err := robsched.Evaluate(heft, opt, robsched.NewRNG(18))
	if err != nil {
		t.Fatal(err)
	}
	above := 0
	for _, x := range mks[0] {
		if x <= 0 {
			t.Fatalf("non-positive makespan %g", x)
		}
		if x > m.P95 {
			above++
		}
	}
	if got := float64(above) / 300; got > 0.05+1e-12 {
		t.Errorf("%.3f of the sample exceeds its own P95", got)
	}
	par, err := robsched.RealizeAll([]*robsched.Schedule{heft, cpop},
		robsched.SimOptions{Realizations: 300, Workers: 4}, robsched.NewRNG(18))
	if err != nil {
		t.Fatal(err)
	}
	for j := range mks {
		for i := range mks[j] {
			if mks[j][i] != par[j][i] {
				t.Fatalf("schedule %d realization %d varies with workers", j, i)
			}
		}
	}
}

func TestPublicAntithetic(t *testing.T) {
	w := extWorkload(t, 15, 20, 3, 3)
	s, err := robsched.HEFT(w)
	if err != nil {
		t.Fatal(err)
	}
	m, err := robsched.Evaluate(s, robsched.SimOptions{Realizations: 200, Antithetic: true}, robsched.NewRNG(16))
	if err != nil {
		t.Fatal(err)
	}
	if m.Realizations != 200 || m.MeanMakespan <= 0 {
		t.Fatalf("bad antithetic metrics: %+v", m)
	}
}
