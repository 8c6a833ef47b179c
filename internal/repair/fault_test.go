package repair

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"robsched/internal/dynamic"
	"robsched/internal/fault"
	"robsched/internal/heft"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
	"robsched/internal/sim"
)

// TestEmptyScenarioBitIdentical is the acceptance criterion of the fault
// engine: with no faults, Execute and ExecuteFaults must perform exactly the
// floating-point operations of executeReference, the fault-oblivious event
// loop — every start, finish, assignment and reschedule count identical bit
// for bit, across repair thresholds — and stall exactly where it does.
func TestEmptyScenarioBitIdentical(t *testing.T) {
	r := rng.New(42)
	same := func(name string, threshold float64, trial int, got, want Outcome) {
		t.Helper()
		if math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) {
			t.Fatalf("%s θ=%g trial %d: makespan %v != %v", name, threshold, trial, got.Makespan, want.Makespan)
		}
		if got.Reschedules != want.Reschedules {
			t.Fatalf("%s θ=%g trial %d: reschedules %d != %d", name, threshold, trial, got.Reschedules, want.Reschedules)
		}
		for v := range want.Proc {
			if math.Float64bits(got.Start[v]) != math.Float64bits(want.Start[v]) ||
				math.Float64bits(got.Finish[v]) != math.Float64bits(want.Finish[v]) || got.Proc[v] != want.Proc[v] {
				t.Fatalf("%s θ=%g trial %d task %d: (%v,%v,p%d) != (%v,%v,p%d)", name, threshold, trial, v,
					got.Start[v], got.Finish[v], got.Proc[v], want.Start[v], want.Finish[v], want.Proc[v])
			}
		}
	}
	for _, threshold := range []float64{math.Inf(1), 0.05, 0} {
		for trial := 0; trial < 15; trial++ {
			w := testWorkload(t, uint64(500+trial), 35, 4, 5)
			s, err := heft.HEFT(w, heft.Options{})
			if err != nil {
				t.Fatal(err)
			}
			durs := dynamic.RealizeMatrix(w, r)
			base, err := executeReference(s, durs, Policy{Threshold: threshold})
			if err != nil {
				t.Fatal(err)
			}
			o, err := Execute(s, durs, Policy{Threshold: threshold})
			if err != nil {
				t.Fatal(err)
			}
			same("Execute", threshold, trial, o, base)
			fo, err := ExecuteFaults(s, durs, fault.None(), FaultPolicy{
				Policy:     Policy{Threshold: threshold},
				MaxRetries: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			same("ExecuteFaults", threshold, trial, fo.Outcome, base)
			if fo.Kills != 0 || fo.Retries != 0 || fo.Migrations != 0 || len(fo.Dropped) != 0 ||
				fo.Failed || fo.CompletionFraction != 1 {
				t.Fatalf("θ=%g trial %d: fault counters nonzero on empty scenario: %+v", threshold, trial, fo)
			}
		}
	}
	// A task that never finishes stalls its successors: both executors
	// report the stall as an error.
	w := testWorkload(t, 500, 35, 4, 5)
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	durs := dynamic.RealizeMatrix(w, r)
	v := s.ProcOrder(0)[0]
	durs.Set(v, 0, math.Inf(1))
	_, refErr := executeReference(s, durs, NeverReschedule())
	_, err = Execute(s, durs, NeverReschedule())
	if refErr == nil || err == nil {
		t.Fatalf("infinite duration: reference error %v, Execute error %v; want both to stall", refErr, err)
	}
}

// executeReference is the fault-oblivious event loop Execute ran before it
// became ExecuteFaults under the empty scenario, kept verbatim (with its
// re-planner) as the reference TestEmptyScenarioBitIdentical holds both to.
func executeReference(s *schedule.Schedule, durs platform.Matrix, pol Policy) (Outcome, error) {
	w := s.Workload()
	n, m := w.N(), w.M()
	if durs.Rows() != n || durs.Cols() != m {
		return Outcome{}, fmt.Errorf("repair: duration matrix is %dx%d, want %dx%d", durs.Rows(), durs.Cols(), n, m)
	}
	if pol.Threshold < 0 || math.IsNaN(pol.Threshold) {
		return Outcome{}, &PolicyError{"Threshold", fmt.Sprintf("%g must be >= 0", pol.Threshold)}
	}
	window := pol.Threshold * s.Makespan()

	out := Outcome{
		Proc:   s.ProcAssignment(),
		Start:  make([]float64, n),
		Finish: make([]float64, n),
	}
	// Current plan: per-processor queues of unstarted tasks plus the
	// planned finish time of every task.
	queues := make([][]int, m)
	for p := 0; p < m; p++ {
		queues[p] = s.ProcOrder(p)
	}
	planned := make([]float64, n)
	for v := 0; v < n; v++ {
		planned[v] = s.Finish(v)
	}
	completed := make([]bool, n)
	remainingPreds := make([]int, n)
	for v := 0; v < n; v++ {
		remainingPreds[v] = w.G.InDegree(v)
	}
	procFree := make([]float64, m)
	ranks := heft.UpwardRanks(w)
	done := 0
	for done < n {
		// Among processor-queue heads whose predecessors are all
		// completed, execute the one with the earliest feasible start.
		bestProc, bestStart := -1, math.Inf(1)
		for p := 0; p < m; p++ {
			if len(queues[p]) == 0 {
				continue
			}
			v := queues[p][0]
			if remainingPreds[v] > 0 {
				continue
			}
			start := procFree[p]
			for _, a := range w.G.Predecessors(v) {
				u := a.To
				if t := out.Finish[u] + w.Sys.CommCost(out.Proc[u], p, a.Data); t > start {
					start = t
				}
			}
			if start < bestStart {
				bestProc, bestStart = p, start
			}
		}
		if bestProc < 0 {
			return Outcome{}, fmt.Errorf("repair: execution stalled with %d tasks left (plan inconsistency)", n-done)
		}
		v := queues[bestProc][0]
		queues[bestProc] = queues[bestProc][1:]
		out.Start[v] = bestStart
		out.Finish[v] = bestStart + durs.At(v, bestProc)
		out.Proc[v] = bestProc
		procFree[bestProc] = out.Finish[v]
		completed[v] = true
		done++
		for _, a := range w.G.Successors(v) {
			remainingPreds[a.To]--
		}
		if out.Finish[v] > out.Makespan {
			out.Makespan = out.Finish[v]
		}
		// Repair trigger: the observed finish ran past the plan by more
		// than the window.
		if !math.IsInf(pol.Threshold, 1) && out.Finish[v]-planned[v] > window && done < n {
			replanReference(w, ranks, completed, out, procFree, queues, planned)
			out.Reschedules++
		}
	}
	return out, nil
}

// replanReference rebuilds the queues and planned finishes of every
// unstarted task with an earliest-finish-time pass over expected durations,
// seeded with the observed completions and processor availability.
func replanReference(w *platform.Workload, ranks []float64, completed []bool, out Outcome,
	procFree []float64, queues [][]int, planned []float64) {
	n, m := w.N(), w.M()
	var remaining []int
	for v := 0; v < n; v++ {
		if !completed[v] {
			remaining = append(remaining, v)
		}
	}
	// Decreasing upward rank is a topological order of the remaining
	// sub-DAG (ranks strictly decrease along edges).
	sort.SliceStable(remaining, func(a, b int) bool {
		if ranks[remaining[a]] != ranks[remaining[b]] {
			return ranks[remaining[a]] > ranks[remaining[b]]
		}
		return remaining[a] < remaining[b]
	})
	estFree := append([]float64(nil), procFree...)
	estFinish := make([]float64, n)
	estProc := make([]int, n)
	for v := 0; v < n; v++ {
		estProc[v] = out.Proc[v]
		if completed[v] {
			estFinish[v] = out.Finish[v]
		}
	}
	for p := 0; p < m; p++ {
		queues[p] = queues[p][:0]
	}
	for _, v := range remaining {
		bestProc, bestFinish := -1, math.Inf(1)
		for p := 0; p < m; p++ {
			start := estFree[p]
			for _, a := range w.G.Predecessors(v) {
				u := a.To
				if t := estFinish[u] + w.Sys.CommCost(estProc[u], p, a.Data); t > start {
					start = t
				}
			}
			if f := start + w.ExpectedAt(v, p); f < bestFinish {
				bestProc, bestFinish = p, f
			}
		}
		estProc[v] = bestProc
		estFinish[v] = bestFinish
		estFree[bestProc] = bestFinish
		queues[bestProc] = append(queues[bestProc], v)
		planned[v] = bestFinish
		out.Proc[v] = bestProc
	}
}

// TestReplanWithEveryProcessorDead: a threshold re-plan that fires when a
// task finishes exactly at its processor's failure, with no other processor
// left, has nothing to plan onto. The run abandons the remaining work
// instead of panicking.
func TestReplanWithEveryProcessorDead(t *testing.T) {
	for seed := uint64(1); seed < 50; seed++ {
		w := testWorkload(t, seed, 6, 1, 3)
		s, err := heft.HEFT(w, heft.Options{})
		if err != nil {
			t.Fatal(err)
		}
		durs := dynamic.RealizeMatrix(w, rng.New(seed))
		first := s.ProcOrder(0)[0]
		d := durs.At(first, 0)
		if d <= s.Finish(first) {
			continue // the first task must overrun its plan to trigger
		}
		sc := fault.Scenario{M: 1, FailAt: []float64{d}}
		o, err := ExecuteFaults(s, durs, sc, FaultPolicy{Policy: Policy{Threshold: 0}})
		if err != nil {
			t.Fatal(err)
		}
		if !o.Completed[first] || o.Finish[first] != d || o.Reschedules != 0 {
			t.Fatalf("first task: completed %v finish %v (want %v), reschedules %d",
				o.Completed[first], o.Finish[first], d, o.Reschedules)
		}
		if !o.Failed || len(o.Unfinished) != w.N()-1 {
			t.Fatalf("failed %v with %d unfinished, want every other task of %d unfinished",
				o.Failed, len(o.Unfinished), w.N())
		}
		return
	}
	t.Fatal("no seed overran its first task")
}

// checkValidFaultExecution verifies the fault-execution invariants:
// completed tasks obey precedence/communication/no-overlap among
// themselves, never run inside an outage, and never touch a processor at
// or past its failure time.
func checkValidFaultExecution(t *testing.T, s *schedule.Schedule, sc fault.Scenario, o FaultOutcome) {
	t.Helper()
	w := s.Workload()
	// Precedence, communication delays, no-overlap and completed-implies-
	// predecessors-completed come from the shared validator; the fault
	// scenario geometry (never run on a dead processor or inside an
	// outage) is checked here, where the scenario is known.
	if err := schedule.ValidateExecutionSubset(w, o.Proc, o.Start, o.Finish, o.Completed); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < w.N(); v++ {
		if !o.Completed[v] {
			continue
		}
		p := o.Proc[v]
		if !sc.Alive(p, o.Start[v]) {
			t.Fatalf("task %d started on dead processor %d at %g", v, p, o.Start[v])
		}
		if got := sc.NextStart(p, o.Start[v]); got != o.Start[v] {
			t.Fatalf("task %d started inside an outage on %d at %g (feasible %g)", v, p, o.Start[v], got)
		}
	}
	if o.CompletionFraction < 0 || o.CompletionFraction > 1 {
		t.Fatalf("completion fraction %g out of range", o.CompletionFraction)
	}
}

func TestRetryRecoversFromTransientOutage(t *testing.T) {
	// A blanket outage early in the run kills whatever is executing; with
	// retries the run must still complete everything.
	w := testWorkload(t, 21, 30, 3, 3)
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m0 := s.Makespan()
	sc := fault.Scenario{
		M: 3,
		Outages: [][]fault.Interval{
			{{Start: 0.2 * m0, End: 0.3 * m0}},
			{{Start: 0.25 * m0, End: 0.35 * m0}},
			nil,
		},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	durs := dynamic.RealizeMatrix(w, rng.New(22))
	o, err := ExecuteFaults(s, durs, sc, FaultPolicy{Policy: NeverReschedule(), MaxRetries: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkValidFaultExecution(t, s, sc, o)
	if o.CompletionFraction != 1 || o.Failed {
		t.Fatalf("run did not complete: %+v", o)
	}
	if o.Kills > 0 && o.Retries == 0 {
		t.Fatal("kills without retries")
	}
	if o.Makespan < m0*0.5 {
		t.Fatalf("implausible makespan %g (M0=%g)", o.Makespan, m0)
	}
}

func TestPermanentFailureMigratesWork(t *testing.T) {
	// Processor 0 dies early. With migration the run completes on the
	// survivors and no completed task ever ran on 0 past its death.
	w := testWorkload(t, 31, 40, 4, 3)
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m0 := s.Makespan()
	sc := fault.Scenario{M: 4, FailAt: []float64{0.3 * m0, math.Inf(1), math.Inf(1), math.Inf(1)}}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	durs := dynamic.RealizeMatrix(w, rng.New(32))
	o, err := ExecuteFaults(s, durs, sc, FaultPolicy{Policy: NeverReschedule(), MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkValidFaultExecution(t, s, sc, o)
	if o.CompletionFraction != 1 || o.Failed {
		t.Fatalf("migrating run did not complete: completion=%g failed=%v unfinished=%v",
			o.CompletionFraction, o.Failed, o.Unfinished)
	}
	// The dead processor had planned work (overwhelmingly likely on this
	// instance); losing it must move something.
	plannedOn0 := len(s.ProcOrder(0))
	if plannedOn0 > 1 && o.Migrations == 0 && o.Kills == 0 {
		t.Fatalf("processor 0 had %d planned tasks but nothing was killed or migrated", plannedOn0)
	}
}

func TestDeadProcessorWorkMovesToSurvivors(t *testing.T) {
	// Processor 0 is dead at t=0, so no task planned on it can start and
	// nothing is ever killed: only the stall re-plan moves that work. The
	// run must complete on the survivors, with no task on processor 0.
	w := testWorkload(t, 41, 25, 3, 2)
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ProcOrder(0)) == 0 {
		t.Fatal("HEFT planned nothing on processor 0 — test is vacuous")
	}
	sc := fault.Scenario{M: 3, FailAt: []float64{0, math.Inf(1), math.Inf(1)}}
	durs := dynamic.RealizeMatrix(w, rng.New(42))
	o, err := ExecuteFaults(s, durs, sc, FaultPolicy{Policy: NeverReschedule(), MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkValidFaultExecution(t, s, sc, o)
	if o.CompletionFraction != 1 || o.Failed {
		t.Fatalf("dead-processor work not moved: completion=%g failed=%v unfinished=%v",
			o.CompletionFraction, o.Failed, o.Unfinished)
	}
	if o.Kills != 0 {
		t.Fatalf("%d kills on a processor dead from the start", o.Kills)
	}
	for v, p := range o.Proc {
		if p == 0 {
			t.Fatalf("task %d completed on dead processor 0", v)
		}
	}
}

func TestGracefulDegradationDropsNonCritical(t *testing.T) {
	// All processors die mid-run and nothing can migrate anywhere: with
	// DropFactor set, the run must not be marked Failed — abandoned tasks
	// count as drops.
	w := testWorkload(t, 51, 30, 3, 3)
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m0 := s.Makespan()
	sc := fault.Scenario{M: 3, FailAt: []float64{0.5 * m0, 0.5 * m0, 0.5 * m0}}
	durs := dynamic.RealizeMatrix(w, rng.New(52))
	o, err := ExecuteFaults(s, durs, sc, FaultPolicy{
		Policy:     NeverReschedule(),
		MaxRetries: 2,
		DropFactor: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkValidFaultExecution(t, s, sc, o)
	if o.Failed {
		t.Fatalf("graceful-degradation run marked failed: %+v", o)
	}
	if len(o.Dropped) == 0 {
		t.Fatal("total platform death dropped nothing")
	}
	if o.CompletionFraction >= 1 {
		t.Fatal("completion fraction 1 despite drops")
	}
	// Without degradation the same scenario is a failure.
	o2, err := ExecuteFaults(s, durs, sc, FaultPolicy{Policy: NeverReschedule(), MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !o2.Failed || len(o2.Unfinished) == 0 {
		t.Fatalf("hard policy did not fail on total platform death: %+v", o2)
	}
}

func TestFaultPolicyValidation(t *testing.T) {
	w := testWorkload(t, 61, 10, 2, 2)
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	durs := dynamic.RealizeMatrix(w, rng.New(62))
	bad := []FaultPolicy{
		{Policy: Policy{Threshold: -1}},
		{Policy: Policy{Threshold: math.NaN()}},
		{Policy: NeverReschedule(), MaxRetries: -1},
		{Policy: NeverReschedule(), DropFactor: -2},
		{Policy: NeverReschedule(), DropFactor: math.NaN()},
	}
	for i, pol := range bad {
		_, err := ExecuteFaults(s, durs, fault.None(), pol)
		if err == nil {
			t.Errorf("policy %d accepted: %+v", i, pol)
			continue
		}
		var pe *PolicyError
		if !errors.As(err, &pe) {
			t.Errorf("policy %d: error %v is not a *PolicyError", i, err)
		}
	}
	// Scenario sized for the wrong platform.
	sc := fault.Scenario{M: 5, FailAt: []float64{1, 1, 1, 1, 1}}
	if _, err := ExecuteFaults(s, durs, sc, DefaultFaultPolicy()); err == nil {
		t.Error("mismatched scenario size accepted")
	} else {
		var ve *fault.ValidationError
		if !errors.As(err, &ve) {
			t.Errorf("size mismatch error %v is not a *fault.ValidationError", err)
		}
	}
}

func TestEvaluateFaultsReproducibleAcrossWorkers(t *testing.T) {
	// The second acceptance criterion: fault runs are reproducible from
	// (seed, sampler) for any worker count.
	w := testWorkload(t, 71, 30, 4, 4)
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mo := fault.Model{MTBF: 3 * s.Makespan(), OutageEvery: 2 * s.Makespan(), OutageMean: 0.1 * s.Makespan(), KeepOne: true}
	if err := mo.Validate(); err != nil {
		t.Fatal(err)
	}
	pol := FaultPolicy{
		Policy:     Policy{Threshold: 0.1},
		MaxRetries: 2,
		DropFactor: 3,
	}
	var ref FaultMetrics
	for i, workers := range []int{1, 2, 7} {
		// A positive deadline keeps DeadlineMissRate a number, so the whole
		// metrics struct stays ==-comparable.
		fm, err := EvaluateFaults(s, pol, mo, 0,
			sim.Options{Realizations: 60, Workers: workers, Deadline: 2 * s.Makespan()}, rng.New(777))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = fm
			if fm.MeanRetries == 0 {
				t.Fatal("fault model never killed anything — test is vacuous")
			}
			continue
		}
		if fm != ref {
			t.Fatalf("workers=%d: metrics differ from single-worker run:\n%+v\n%+v", workers, fm, ref)
		}
	}
}

func TestEvaluateFaultsValidation(t *testing.T) {
	w := testWorkload(t, 81, 10, 2, 2)
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateFaults(s, DefaultFaultPolicy(), fault.Fixed{}, 0,
		sim.Options{Realizations: 0}, rng.New(1)); err == nil {
		t.Error("zero realizations accepted")
	} else {
		var oe *sim.OptionError
		if !errors.As(err, &oe) {
			t.Errorf("error %v is not a *sim.OptionError", err)
		}
	}
	if _, err := EvaluateFaults(s, DefaultFaultPolicy(), fault.Fixed{}, math.Inf(1),
		sim.Options{Realizations: 5}, rng.New(1)); err == nil {
		t.Error("infinite horizon accepted")
	}
	bad := FaultPolicy{Policy: Policy{Threshold: -1}}
	if _, err := EvaluateFaults(s, bad, fault.Fixed{}, 0, sim.Options{Realizations: 5}, rng.New(1)); err == nil {
		t.Error("invalid policy accepted")
	}
}

// TestEvaluatorsRejectInvalidOptions: option sets sim.Options.Validate
// rejects are the same *sim.OptionError, naming the field, from every
// evaluator.
func TestEvaluatorsRejectInvalidOptions(t *testing.T) {
	w := testWorkload(t, 3, 20, 3, 2)
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	evaluators := []struct {
		name string
		run  func(opt sim.Options) error
	}{
		{"repair", func(opt sim.Options) error {
			_, err := Evaluate(s, NeverReschedule(), opt, rng.New(1))
			return err
		}},
		{"faults", func(opt sim.Options) error {
			_, err := EvaluateFaults(s, DefaultFaultPolicy(), fault.Fixed{}, 0, opt, rng.New(1))
			return err
		}},
		{"dynamic", func(opt sim.Options) error {
			_, err := dynamic.Evaluate(w, opt, rng.New(1))
			return err
		}},
	}
	invalid := []struct {
		name  string
		opt   sim.Options
		field string
	}{
		{"a NaN deadline", sim.Options{Realizations: 5, Deadline: math.NaN()}, "Deadline"},
		{"an infinite deadline", sim.Options{Realizations: 5, Deadline: math.Inf(1)}, "Deadline"},
		{"negative workers", sim.Options{Realizations: 5, Workers: -3}, "Workers"},
		{"an unknown model", sim.Options{Realizations: 5, Model: 9}, "Model"},
		{"a load mode without COV", sim.Options{Realizations: 5, Corr: sim.CorrShared}, "LoadCOV"},
	}
	for _, ev := range evaluators {
		for _, in := range invalid {
			err := ev.run(in.opt)
			var oe *sim.OptionError
			if !errors.As(err, &oe) || oe.Field != in.field {
				t.Errorf("%s with %s: got %v, want an *sim.OptionError on %s", ev.name, in.name, err, in.field)
			}
		}
	}
}
