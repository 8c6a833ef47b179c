package repair

// Edge-case coverage for the executor: threshold 0, single-processor
// platforms (cross-checked against the online dispatcher in
// internal/dynamic) and tie-breaking determinism.

import (
	"math"
	"testing"

	"robsched/internal/dag"
	"robsched/internal/dynamic"
	"robsched/internal/gen"
	"robsched/internal/heft"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// TestThresholdZeroFiresOnAnyLateness: with threshold 0 the repair window
// is zero, so any finish strictly past the plan re-plans — under real
// uncertainty that is nearly every task; the run must stay valid and
// fire at least as often as a loose threshold on the same realization.
func TestThresholdZeroFiresOnAnyLateness(t *testing.T) {
	w := testWorkload(t, 101, 30, 4, 5)
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	durs := dynamic.RealizeMatrix(w, rng.New(102))
	zero, err := Execute(s, durs, Policy{Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	checkValidExecution(t, w, zero)
	if zero.Reschedules == 0 {
		t.Fatal("threshold 0 never fired under UL=5")
	}
	loose, err := Execute(s, durs, Policy{Threshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if zero.Reschedules < loose.Reschedules {
		t.Fatalf("threshold 0 fired %d times, looser threshold %d", zero.Reschedules, loose.Reschedules)
	}
	if zero.Reschedules >= w.N() {
		t.Fatalf("%d reschedules for %d tasks (each completion may fire at most once)", zero.Reschedules, w.N())
	}
}

// TestSingleProcessorMatchesDynamic: with m=1 there are no placement
// decisions — execution is serial, the makespan is the sum of realized
// durations, and the static executor must agree exactly with the online
// dispatcher from internal/dynamic.
func TestSingleProcessorMatchesDynamic(t *testing.T) {
	p := gen.PaperParams()
	p.N, p.M, p.MeanUL = 20, 1, 4
	w, err := gen.Random(p, rng.New(111))
	if err != nil {
		t.Fatal(err)
	}
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	durs := dynamic.RealizeMatrix(w, rng.New(112))
	o, err := Execute(s, durs, NeverReschedule())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for v := 0; v < w.N(); v++ {
		sum += durs.At(v, 0)
	}
	if math.Abs(o.Makespan-sum) > 1e-9*sum {
		t.Fatalf("serial makespan %g != duration sum %g", o.Makespan, sum)
	}
	dyn, err := dynamic.Simulate(w, durs, durs, heft.UpwardRanks(w))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(o.Makespan-dyn.Makespan) > 1e-9*sum {
		t.Fatalf("static %g != dynamic %g on one processor", o.Makespan, dyn.Makespan)
	}
	// Rescheduling cannot change anything either: there is nowhere to move.
	re, err := Execute(s, durs, Policy{Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(re.Makespan-sum) > 1e-9*sum {
		t.Fatalf("reactive serial makespan %g != %g", re.Makespan, sum)
	}
}

// twoTaskWorkload builds two independent unit tasks on two identical
// processors — the minimal instance where queue heads tie on start time.
func twoTaskWorkload(t *testing.T) *platform.Workload {
	t.Helper()
	g, err := dag.NewBuilder(2).Build()
	if err != nil {
		t.Fatal(err)
	}
	rates, err := platform.MatrixFromRows([][]float64{{1, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := platform.NewSystem(rates)
	if err != nil {
		t.Fatal(err)
	}
	bcet, err := platform.MatrixFromRows([][]float64{{1, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	ul := platform.NewMatrix(2, 2)
	ul.Fill(1)
	w, err := platform.NewWorkload(g, sys, bcet, ul)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTieBreakingDeterministic: when several queue heads share the same
// earliest feasible start, the executor must always pick the
// lowest-numbered processor, and repeated runs must agree bit for bit.
func TestTieBreakingDeterministic(t *testing.T) {
	w := twoTaskWorkload(t)
	s, err := schedule.New(w, []int{1, 0}, [][]int{{1}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	durs := platform.NewMatrix(2, 2)
	durs.Fill(1)
	first, err := Execute(s, durs, NeverReschedule())
	if err != nil {
		t.Fatal(err)
	}
	// Both heads tie at start 0: processor 0 (running task 1) must win the
	// scan, so its task starts first — observable only through determinism
	// here since both finish at 1; assert the full outcome is stable.
	for run := 0; run < 20; run++ {
		again, err := Execute(s, durs, NeverReschedule())
		if err != nil {
			t.Fatal(err)
		}
		if again.Makespan != first.Makespan {
			t.Fatalf("run %d: makespan %v != %v", run, again.Makespan, first.Makespan)
		}
		for v := 0; v < 2; v++ {
			if again.Start[v] != first.Start[v] || again.Finish[v] != first.Finish[v] || again.Proc[v] != first.Proc[v] {
				t.Fatalf("run %d: outcome differs for task %d", run, v)
			}
		}
	}
	if first.Start[0] != 0 || first.Start[1] != 0 || first.Makespan != 1 {
		t.Fatalf("independent unit tasks did not run in parallel: %+v", first)
	}

	// Larger stochastic instances: repeated reactive executions of the same
	// realization are bit-identical (no map iteration or other
	// nondeterminism in the scan and re-planner).
	for trial := 0; trial < 5; trial++ {
		w := testWorkload(t, uint64(120+trial), 30, 4, 6)
		s, err := heft.HEFT(w, heft.Options{})
		if err != nil {
			t.Fatal(err)
		}
		durs := dynamic.RealizeMatrix(w, rng.New(uint64(130+trial)))
		a, err := Execute(s, durs, Policy{Threshold: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Execute(s, durs, Policy{Threshold: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		if a.Makespan != b.Makespan || a.Reschedules != b.Reschedules {
			t.Fatalf("trial %d: repeated execution differs (%v/%d vs %v/%d)",
				trial, a.Makespan, a.Reschedules, b.Makespan, b.Reschedules)
		}
		for v := 0; v < w.N(); v++ {
			if a.Start[v] != b.Start[v] || a.Proc[v] != b.Proc[v] {
				t.Fatalf("trial %d: task %d differs between repeated runs", trial, v)
			}
		}
	}
}

// TestInfiniteDurationNeverPanics: a task that never finishes leaves its
// successors without any finite plan. Whatever the threshold, the run
// reports the stall, completes with an infinite makespan, or was re-planned
// off the processor where the task never finishes; the re-planner never
// places a task on no processor.
func TestInfiniteDurationNeverPanics(t *testing.T) {
	for _, threshold := range []float64{math.Inf(1), 0.05, 0} {
		for seed := uint64(1); seed < 40; seed++ {
			w := testWorkload(t, seed, 20, 3, 3)
			s, err := heft.HEFT(w, heft.Options{})
			if err != nil {
				t.Fatal(err)
			}
			durs := dynamic.RealizeMatrix(w, rng.New(seed))
			v := s.ProcOrder(0)[0]
			durs.Set(v, 0, math.Inf(1))
			o, err := Execute(s, durs, Policy{Threshold: threshold})
			if err == nil && o.Proc[v] == 0 && !math.IsInf(o.Makespan, 1) {
				t.Fatalf("θ=%g seed %d: finite makespan %v with a never-finishing task", threshold, seed, o.Makespan)
			}
		}
	}
}
