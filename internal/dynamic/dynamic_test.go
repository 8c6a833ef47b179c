package dynamic

import (
	"testing"

	"robsched/internal/dag"
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

// checkValidExecution verifies the physical consistency of a simulated
// run — no overlap on any processor, every task starts only after each
// predecessor's actual finish plus the communication delay — via the
// shared schedule.ValidateExecution.
func checkValidExecution(t *testing.T, w *platform.Workload, res Result) {
	t.Helper()
	if err := schedule.ValidateExecution(w, res.Proc, res.Start, res.Finish); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateValidity(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		w := testWorkload(t, uint64(trial), 30, 4, 3)
		durs := RealizeMatrix(w, r)
		res, err := Simulate(w, durs, w.Expected(), heft.UpwardRanks(w))
		if err != nil {
			t.Fatal(err)
		}
		checkValidExecution(t, w, res)
		if res.Makespan <= 0 {
			t.Fatal("non-positive makespan")
		}
	}
}

func TestSimulateInputValidation(t *testing.T) {
	w := testWorkload(t, 3, 10, 2, 2)
	good := w.Expected()
	bad := platform.NewMatrix(3, 3)
	bad.Fill(1)
	if _, err := Simulate(w, bad, good, heft.UpwardRanks(w)); err == nil {
		t.Error("bad duration matrix accepted")
	}
	if _, err := Simulate(w, good, bad, heft.UpwardRanks(w)); err == nil {
		t.Error("bad estimate matrix accepted")
	}
	if _, err := Simulate(w, good, good, []float64{1}); err == nil {
		t.Error("short ranks accepted")
	}
}

func TestDeterministicDurationsMatchStaticSemantics(t *testing.T) {
	// With durations equal to expectations, the dispatcher's run is a
	// valid static schedule; building that assignment as a Schedule and
	// evaluating it with expected durations must give a makespan no larger
	// than the dispatcher observed (ASAP can only compress).
	w := testWorkload(t, 5, 25, 3, 2)
	expected := w.Expected()
	res, err := Simulate(w, expected, expected, heft.UpwardRanks(w))
	if err != nil {
		t.Fatal(err)
	}
	checkValidExecution(t, w, res)
}

func TestClairvoyantNoWorseOnAverage(t *testing.T) {
	// Perfect knowledge of durations (estimate == reality) should beat
	// expectation-based placement on average over realizations.
	w := testWorkload(t, 7, 40, 4, 4)
	r := rng.New(11)
	ranks := heft.UpwardRanks(w)
	expected := w.Expected()
	var sumBlind, sumClair float64
	const trials = 40
	for i := 0; i < trials; i++ {
		durs := RealizeMatrix(w, r)
		blind, err := Simulate(w, durs, expected, ranks)
		if err != nil {
			t.Fatal(err)
		}
		clair, err := Simulate(w, durs, durs, ranks)
		if err != nil {
			t.Fatal(err)
		}
		sumBlind += blind.Makespan
		sumClair += clair.Makespan
	}
	if sumClair > sumBlind*1.02 {
		t.Fatalf("clairvoyant dispatcher worse on average: %g vs %g", sumClair/trials, sumBlind/trials)
	}
}

func TestEvaluateMetrics(t *testing.T) {
	w := testWorkload(t, 9, 30, 4, 3)
	m, err := Evaluate(w, sim.Options{Realizations: 200}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if m.Realizations != 200 {
		t.Errorf("Realizations = %d", m.Realizations)
	}
	if m.M0 <= 0 || m.MeanMakespan <= 0 {
		t.Fatalf("degenerate metrics: %+v", m)
	}
	if m.MinMakespan > m.P50 || m.P50 > m.P95 {
		t.Errorf("quantiles out of order: %+v", m)
	}
	if _, err := Evaluate(w, sim.Options{Realizations: 0}, rng.New(1)); err == nil {
		t.Error("zero realizations accepted")
	}
}

// TestDynamicAdaptsBetterThanStaticHEFT is the motivating comparison from
// the paper's introduction: under heavy uncertainty the online dispatcher,
// which reacts to observed finish times, should beat the *static* HEFT
// schedule's realized mean makespan on average across instances.
func TestDynamicAdaptsBetterThanStaticHEFT(t *testing.T) {
	wins := 0
	const instances = 6
	for k := 0; k < instances; k++ {
		w := testWorkload(t, uint64(100+k), 50, 4, 6)
		dyn, err := Evaluate(w, sim.Options{Realizations: 200}, rng.New(uint64(17+k)))
		if err != nil {
			t.Fatal(err)
		}
		hs, err := heft.HEFT(w, heft.Options{})
		if err != nil {
			t.Fatal(err)
		}
		stat, err := sim.Evaluate(hs, sim.Options{Realizations: 200}, rng.New(uint64(17+k)))
		if err != nil {
			t.Fatal(err)
		}
		if dyn.MeanMakespan < stat.MeanMakespan {
			wins++
		}
	}
	if wins < instances/2 {
		t.Fatalf("dynamic dispatcher beat static HEFT on only %d/%d instances", wins, instances)
	}
}

func TestSimulateSingleTask(t *testing.T) {
	g := dag.NewBuilder(1).MustBuild()
	exec := platform.NewMatrix(1, 2)
	exec.Set(0, 0, 5)
	exec.Set(0, 1, 3)
	w, err := platform.DeterministicWorkload(g, platform.UniformSystem(2, 1), exec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(w, w.Expected(), w.Expected(), heft.UpwardRanks(w))
	if err != nil {
		t.Fatal(err)
	}
	// Must pick the faster processor.
	if res.Proc[0] != 1 || res.Makespan != 3 {
		t.Fatalf("single task dispatched to %d with makespan %g", res.Proc[0], res.Makespan)
	}
}

func TestRealizeMatrixBounds(t *testing.T) {
	w := testWorkload(t, 21, 15, 3, 3)
	r := rng.New(23)
	durs := RealizeMatrix(w, r)
	for i := 0; i < w.N(); i++ {
		for p := 0; p < w.M(); p++ {
			b := w.BCET.At(i, p)
			hi := (2*w.UL.At(i, p) - 1) * b
			if durs.At(i, p) < b || durs.At(i, p) > hi {
				t.Fatalf("realized duration (%d,%d) = %g outside [%g,%g]", i, p, durs.At(i, p), b, hi)
			}
		}
	}
}

func BenchmarkSimulate100x8(b *testing.B) {
	p := gen.PaperParams()
	w, err := gen.Random(p, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	durs := RealizeMatrix(w, r)
	ranks := heft.UpwardRanks(w)
	expected := w.Expected()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(w, durs, expected, ranks); err != nil {
			b.Fatal(err)
		}
	}
}
