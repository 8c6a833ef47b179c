package repair

import (
	"math"
	"testing"

	"robsched/internal/dynamic"
	"robsched/internal/gen"
	"robsched/internal/heft"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
	"robsched/internal/sim"
)

func testWorkload(t testing.TB, seed uint64, n, m int, ul float64) *platform.Workload {
	t.Helper()
	p := gen.PaperParams()
	p.N, p.M, p.MeanUL = n, m, ul
	w, err := gen.Random(p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestRightShiftMatchesASAPSemantics is the keystone: executing with the
// never-reschedule policy must reproduce exactly the paper's realization
// semantics, i.e. Schedule.MakespanWith on the same realized durations.
func TestRightShiftMatchesASAPSemantics(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 30; trial++ {
		w := testWorkload(t, uint64(trial), 30, 4, 4)
		s, err := heft.HEFT(w, heft.Options{})
		if err != nil {
			t.Fatal(err)
		}
		durs := dynamic.RealizeMatrix(w, r)
		o, err := Execute(s, durs, NeverReschedule())
		if err != nil {
			t.Fatal(err)
		}
		dur := make([]float64, w.N())
		for v := range dur {
			dur[v] = durs.At(v, s.Proc(v))
		}
		if want := s.MakespanWith(dur); math.Abs(o.Makespan-want) > 1e-9 {
			t.Fatalf("trial %d: right-shift makespan %g != ASAP %g", trial, o.Makespan, want)
		}
		if o.Reschedules != 0 {
			t.Fatalf("right-shift rescheduled %d times", o.Reschedules)
		}
		// Assignment untouched.
		for v := 0; v < w.N(); v++ {
			if o.Proc[v] != s.Proc(v) {
				t.Fatalf("right-shift moved task %d", v)
			}
		}
	}
}

func TestExecuteValidation(t *testing.T) {
	w := testWorkload(t, 3, 10, 2, 2)
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := platform.NewMatrix(3, 3)
	bad.Fill(1)
	if _, err := Execute(s, bad, NeverReschedule()); err == nil {
		t.Error("bad duration matrix accepted")
	}
	if _, err := Execute(s, dynamic.RealizeMatrix(w, rng.New(1)), Policy{Threshold: -1}); err == nil {
		t.Error("negative threshold accepted")
	}
}

// checkValidExecution verifies precedence, communication and no-overlap
// invariants of an outcome via the shared schedule.ValidateExecution.
func checkValidExecution(t *testing.T, w *platform.Workload, o Outcome) {
	t.Helper()
	if err := schedule.ValidateExecution(w, o.Proc, o.Start, o.Finish); err != nil {
		t.Fatal(err)
	}
}

func TestRescheduleOutcomeValid(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		w := testWorkload(t, uint64(100+trial), 30, 4, 6)
		s, err := heft.HEFT(w, heft.Options{})
		if err != nil {
			t.Fatal(err)
		}
		durs := dynamic.RealizeMatrix(w, r)
		o, err := Execute(s, durs, Policy{Threshold: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		checkValidExecution(t, w, o)
		if o.Makespan <= 0 {
			t.Fatal("bad makespan")
		}
	}
}

func TestTightThresholdTriggersReschedules(t *testing.T) {
	// Under heavy uncertainty a near-zero threshold must fire at least
	// once, and a +Inf threshold never.
	w := testWorkload(t, 7, 40, 4, 6)
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	durs := dynamic.RealizeMatrix(w, rng.New(8))
	tight, err := Execute(s, durs, Policy{Threshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Reschedules == 0 {
		t.Fatal("tight threshold never rescheduled under UL=6")
	}
	loose, err := Execute(s, durs, NeverReschedule())
	if err != nil {
		t.Fatal(err)
	}
	if loose.Reschedules != 0 {
		t.Fatal("infinite threshold rescheduled")
	}
}

func TestDeterministicDurationsNeverTrigger(t *testing.T) {
	// When reality equals the plan there is nothing to repair, even with a
	// very tight threshold.
	w := testWorkload(t, 9, 25, 3, 1)
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, m := w.N(), w.M()
	durs := platform.NewMatrix(n, m)
	for i := 0; i < n; i++ {
		for p := 0; p < m; p++ {
			durs.Set(i, p, w.ExpectedAt(i, p))
		}
	}
	o, err := Execute(s, durs, Policy{Threshold: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if o.Reschedules != 0 {
		t.Fatalf("deterministic run rescheduled %d times", o.Reschedules)
	}
	if math.Abs(o.Makespan-s.Makespan()) > 1e-6 {
		t.Fatalf("deterministic makespan %g != M0 %g", o.Makespan, s.Makespan())
	}
}

// TestRepairImprovesOverRightShift: under heavy uncertainty, reacting to
// large disruptions should reduce the realized mean makespan relative to
// rigid right-shift execution, on average across instances.
func TestRepairImprovesOverRightShift(t *testing.T) {
	var diff float64
	const instances = 6
	for k := 0; k < instances; k++ {
		w := testWorkload(t, uint64(200+k), 40, 4, 6)
		s, err := heft.HEFT(w, heft.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rigid, err := Evaluate(s, NeverReschedule(), sim.Options{Realizations: 150}, rng.New(uint64(300+k)))
		if err != nil {
			t.Fatal(err)
		}
		react, err := Evaluate(s, Policy{Threshold: 0.05}, sim.Options{Realizations: 150}, rng.New(uint64(300+k)))
		if err != nil {
			t.Fatal(err)
		}
		if react.MeanReschedules == 0 {
			t.Fatalf("instance %d: reactive policy never fired", k)
		}
		diff += (react.MeanMakespan - rigid.MeanMakespan) / rigid.MeanMakespan
	}
	if mean := diff / instances; mean >= 0 {
		t.Errorf("reactive repair did not reduce mean makespan: %+.4f", mean)
	}
}

func TestEvaluateMetricsShape(t *testing.T) {
	w := testWorkload(t, 11, 20, 3, 3)
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Evaluate(s, Policy{Threshold: 0.1}, sim.Options{Realizations: 100}, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if m.Realizations != 100 || m.M0 != s.Makespan() {
		t.Fatalf("metrics header wrong: %+v", m.Metrics)
	}
	if m.MeanReschedules < 0 {
		t.Fatalf("MeanReschedules = %g", m.MeanReschedules)
	}
	if _, err := Evaluate(s, NeverReschedule(), sim.Options{Realizations: 0}, rng.New(1)); err == nil {
		t.Error("zero realizations accepted")
	}
}

// TestExecuteRightShiftAllocs pins right-shift execution at 16 allocations
// (n=100, m=8): the outcome and the executor's per-task state. Right-shift
// never re-plans, so it must not pay for the re-planner's upward ranks,
// and an empty scenario never kills, so it must not pay for the fault
// bookkeeping.
func TestExecuteRightShiftAllocs(t *testing.T) {
	p := gen.PaperParams()
	p.N, p.M = 100, 8
	w, err := gen.Random(p, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	durs := dynamic.RealizeMatrix(w, rng.New(2))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Execute(s, durs, NeverReschedule()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("right-shift Execute costs %.0f allocations, want at most 16", allocs)
	}
}

func BenchmarkExecuteRightShift(b *testing.B) {
	p := gen.PaperParams()
	w, err := gen.Random(p, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		b.Fatal(err)
	}
	durs := dynamic.RealizeMatrix(w, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(s, durs, NeverReschedule()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteReactive(b *testing.B) {
	p := gen.PaperParams()
	p.MeanUL = 6
	w, err := gen.Random(p, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		b.Fatal(err)
	}
	durs := dynamic.RealizeMatrix(w, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(s, durs, Policy{Threshold: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}
