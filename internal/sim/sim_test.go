package sim

import (
	"errors"
	"math"
	"testing"

	"robsched/internal/dag"
	"robsched/internal/gen"
	"robsched/internal/heft"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

func testWorkload(t testing.TB, seed uint64, n, m int, meanUL float64) *platform.Workload {
	t.Helper()
	r := rng.New(seed)
	p := gen.PaperParams()
	p.N, p.M, p.MeanUL = n, m, meanUL
	w, err := gen.Random(p, r)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func heftSchedule(t testing.TB, w *platform.Workload) *schedule.Schedule {
	t.Helper()
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOptionsValidate(t *testing.T) {
	w := testWorkload(t, 1, 10, 2, 2)
	s := heftSchedule(t, w)
	if _, err := Evaluate(s, Options{Realizations: 0}, rng.New(1)); err == nil {
		t.Error("zero realizations accepted")
	}
	if _, err := Evaluate(s, Options{Realizations: 10, Workers: -1}, rng.New(1)); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := Evaluate(s, Options{Realizations: 10, BatchSize: -1}, rng.New(1)); err == nil {
		t.Error("negative batch size accepted")
	}
	if _, err := EvaluateAll(nil, PaperOptions(), rng.New(1)); err == nil {
		t.Error("empty schedule list accepted")
	}
	if _, err := RealizeAll(nil, PaperOptions(), rng.New(1)); err == nil {
		t.Error("empty schedule list accepted by RealizeAll")
	}
}

// TestOptionsValidateTyped pins down the typed-error contract: every
// invalid field yields an *OptionError naming the field, instead of a
// silent clamp or an anonymous error.
func TestOptionsValidateTyped(t *testing.T) {
	cases := []struct {
		opt   Options
		field string
	}{
		{Options{Realizations: 0}, "Realizations"},
		{Options{Realizations: -5}, "Realizations"},
		{Options{Realizations: 10, Workers: -1}, "Workers"},
		{Options{Realizations: 10, BatchSize: -3}, "BatchSize"},
		{Options{Realizations: 10, Deadline: math.NaN()}, "Deadline"},
		{Options{Realizations: 10, Deadline: math.Inf(1)}, "Deadline"},
		{Options{Realizations: 10, Deadline: math.Inf(-1)}, "Deadline"},
	}
	for i, c := range cases {
		err := c.opt.Validate()
		if err == nil {
			t.Errorf("case %d accepted: %+v", i, c.opt)
			continue
		}
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Errorf("case %d: error %v is not an *OptionError", i, err)
			continue
		}
		if oe.Field != c.field {
			t.Errorf("case %d: error names field %q, want %q", i, oe.Field, c.field)
		}
		if oe.Error() == "" {
			t.Errorf("case %d: empty error text", i)
		}
	}
	good := []Options{
		{Realizations: 1},
		{Realizations: 1000, Workers: 8, BatchSize: 64, Deadline: 123.5},
		PaperOptions(),
	}
	for i, opt := range good {
		if err := opt.Validate(); err != nil {
			t.Errorf("valid options %d rejected: %v", i, err)
		}
	}
}

func TestDeterministicWorkloadHasZeroTardiness(t *testing.T) {
	// With UL == 1 everywhere, every realization equals the expectation:
	// no tardiness, no misses, R1 and R2 infinite.
	r := rng.New(2)
	g, err := gen.RandomGraph(gen.PaperParams(), r)
	if err != nil {
		t.Fatal(err)
	}
	exec := gen.ExecMatrix(g.N(), 4, 20, 0.5, 0.5, r)
	w, err := platform.DeterministicWorkload(g, platform.UniformSystem(4, 1), exec)
	if err != nil {
		t.Fatal(err)
	}
	s := heftSchedule(t, w)
	m, err := Evaluate(s, Options{Realizations: 200}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanTardiness != 0 || m.MissRate != 0 {
		t.Fatalf("deterministic workload tardy: δ=%g α=%g", m.MeanTardiness, m.MissRate)
	}
	if !math.IsInf(m.R1, 1) || !math.IsInf(m.R2, 1) {
		t.Fatalf("R1=%g R2=%g, want +Inf", m.R1, m.R2)
	}
	if math.Abs(m.MeanMakespan-m.M0) > 1e-9 || m.StdMakespan > 1e-9 {
		t.Fatalf("makespan distribution not degenerate: mean %g std %g (M0 %g)",
			m.MeanMakespan, m.StdMakespan, m.M0)
	}
}

func TestMetricsBasicSanity(t *testing.T) {
	w := testWorkload(t, 5, 40, 4, 3)
	s := heftSchedule(t, w)
	m, err := Evaluate(s, Options{Realizations: 500}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if m.Realizations != 500 {
		t.Errorf("Realizations = %d", m.Realizations)
	}
	if m.MinMakespan > m.MeanMakespan || m.MeanMakespan > m.MaxMakespan {
		t.Errorf("makespan order broken: min %g mean %g max %g",
			m.MinMakespan, m.MeanMakespan, m.MaxMakespan)
	}
	if m.MissRate < 0 || m.MissRate > 1 {
		t.Errorf("MissRate = %g", m.MissRate)
	}
	if m.MeanTardiness < 0 {
		t.Errorf("MeanTardiness = %g", m.MeanTardiness)
	}
	if m.R1 <= 0 || m.R2 <= 0 {
		t.Errorf("R1=%g R2=%g must be positive", m.R1, m.R2)
	}
	// A tight HEFT schedule under UL=3 should actually miss sometimes.
	if m.MissRate == 0 {
		t.Error("HEFT schedule never missed under heavy uncertainty; suspicious")
	}
	// Realized makespans must be at least the best-case critical path and
	// the mean should exceed zero sanity bounds.
	if m.MinMakespan <= 0 {
		t.Errorf("MinMakespan = %g", m.MinMakespan)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	// Metrics come from the per-realization makespan vector in realization
	// order, so every field — quantiles included — must be bit-identical
	// across worker counts.
	w := testWorkload(t, 9, 60, 4, 4)
	s := heftSchedule(t, w)
	serial, err := Evaluate(s, Options{Realizations: 300, Workers: 1}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Evaluate(s, Options{Realizations: 300, Workers: 7}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if !metricsIdentical(serial, parallel) {
		t.Fatalf("parallel differs from serial:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}

// metricsIdentical reports bit-identity of every metric field, treating NaN
// as equal to NaN (DeadlineMissRate is NaN when no deadline is set).
func metricsIdentical(a, b Metrics) bool {
	eq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	return a.M0 == b.M0 && a.Realizations == b.Realizations &&
		eq(a.MeanMakespan, b.MeanMakespan) && eq(a.StdMakespan, b.StdMakespan) &&
		eq(a.MinMakespan, b.MinMakespan) && eq(a.MaxMakespan, b.MaxMakespan) &&
		eq(a.MeanTardiness, b.MeanTardiness) && eq(a.MissRate, b.MissRate) &&
		eq(a.R1, b.R1) && eq(a.R2, b.R2) &&
		eq(a.P50, b.P50) && eq(a.P95, b.P95) && eq(a.P99, b.P99) &&
		eq(a.DeadlineMissRate, b.DeadlineMissRate)
}

func TestEvaluateDeterministicPerSeed(t *testing.T) {
	w := testWorkload(t, 13, 30, 3, 2)
	s := heftSchedule(t, w)
	a, err := Evaluate(s, Options{Realizations: 100}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(s, Options{Realizations: 100}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanMakespan != b.MeanMakespan || a.StdMakespan != b.StdMakespan ||
		a.MissRate != b.MissRate || a.MeanTardiness != b.MeanTardiness ||
		a.P95 != b.P95 {
		t.Fatalf("same seed gave different metrics:\n%+v\n%+v", a, b)
	}
}

func TestEvaluateAllCommonRandomNumbers(t *testing.T) {
	w := testWorkload(t, 15, 30, 3, 2)
	s := heftSchedule(t, w)
	// The same schedule twice under common random numbers must yield
	// identical metrics.
	ms, err := EvaluateAll([]*schedule.Schedule{s, s}, Options{Realizations: 200}, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].MeanMakespan != ms[1].MeanMakespan || ms[0].MissRate != ms[1].MissRate ||
		ms[0].MeanTardiness != ms[1].MeanTardiness || ms[0].P95 != ms[1].P95 {
		t.Fatalf("identical schedules diverged under common random numbers:\n%+v\n%+v", ms[0], ms[1])
	}
	// A schedule's samples do not depend on its batch mates: evaluated
	// alone it reads only its own pairs, next to two round-robin schedules
	// the sampled read set is wider, and under every model the metrics
	// must agree bit for bit.
	ss := benchSchedules(t, w, 3)
	for _, model := range append([]Options{{}}, modelCases()...) {
		for _, anti := range []bool{false, true} {
			opt := model
			opt.Realizations = 101
			opt.Antithetic = anti
			alone, err := Evaluate(ss[0], opt, rng.New(19))
			if err != nil {
				t.Fatal(err)
			}
			all, err := EvaluateAll(ss, opt, rng.New(19))
			if err != nil {
				t.Fatal(err)
			}
			if !metricsIdentical(alone, all[0]) {
				t.Fatalf("model=%s-%s anti=%v: Evaluate(s) != EvaluateAll([s, a, b])[0]:\n%+v\n%+v",
					model.Model, model.Corr, anti, alone, all[0])
			}
		}
	}
}

func TestEvaluateAllRejectsMixedWorkloads(t *testing.T) {
	w1 := testWorkload(t, 19, 10, 2, 2)
	w2 := testWorkload(t, 20, 10, 2, 2)
	s1 := heftSchedule(t, w1)
	s2 := heftSchedule(t, w2)
	if _, err := EvaluateAll([]*schedule.Schedule{s1, s2}, Options{Realizations: 10}, rng.New(1)); err == nil {
		t.Fatal("mixed workloads accepted")
	}
}

// TestSlackImprovesRobustness is the library-level statement of the paper's
// central claim (Section 5.1): between two schedules of the same workload,
// the one with substantially larger average slack should score better on
// both robustness metrics.
func TestSlackImprovesRobustness(t *testing.T) {
	w := testWorkload(t, 21, 50, 4, 4)
	tight := heftSchedule(t, w)
	// A deliberately padded schedule: serialize everything on the fastest
	// processor ordering — large makespan, large slack? No: serial schedules
	// have zero slack. Instead, build a schedule that spreads tasks with
	// big gaps: put every task alone in topological order across
	// processors round-robin, which yields large communication stalls and
	// hence slack windows on non-critical tasks.
	order := w.G.TopologicalOrder()
	proc := make([]int, w.N())
	for i, v := range order {
		proc[v] = i % w.M()
	}
	spread, err := schedule.FromOrder(w, order, proc)
	if err != nil {
		t.Fatal(err)
	}
	if spread.AvgSlack() <= tight.AvgSlack() {
		t.Skipf("fixture failed to produce a high-slack schedule (%g <= %g)",
			spread.AvgSlack(), tight.AvgSlack())
	}
	ms, err := EvaluateAll([]*schedule.Schedule{tight, spread}, Options{Realizations: 800}, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	if ms[1].MeanTardiness >= ms[0].MeanTardiness {
		t.Errorf("higher slack did not reduce tardiness: %g >= %g",
			ms[1].MeanTardiness, ms[0].MeanTardiness)
	}
}

func TestAccumArithmetic(t *testing.T) {
	vals := []float64{3, 7, 1, 9, 4, 6}
	const m0 = 5.0
	single := newAccum()
	for _, v := range vals {
		single.add(v, m0)
	}
	got := single.metrics(m0)
	// Hand-checked values: misses are 7, 9, 6 → α = 0.5, δ = (2/5+4/5+1/5)/6.
	if got.MissRate != 0.5 {
		t.Errorf("MissRate = %g, want 0.5", got.MissRate)
	}
	if want := (2.0/5 + 4.0/5 + 1.0/5) / 6; math.Abs(got.MeanTardiness-want) > 1e-12 {
		t.Errorf("MeanTardiness = %g, want %g", got.MeanTardiness, want)
	}
	if got.R2 != 2 {
		t.Errorf("R2 = %g, want 2", got.R2)
	}
	if got.MinMakespan != 1 || got.MaxMakespan != 9 {
		t.Errorf("min/max = %g/%g", got.MinMakespan, got.MaxMakespan)
	}
}

func TestSingleRealization(t *testing.T) {
	w := testWorkload(t, 31, 10, 2, 2)
	s := heftSchedule(t, w)
	m, err := Evaluate(s, Options{Realizations: 1}, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	if m.Realizations != 1 || m.MinMakespan != m.MaxMakespan {
		t.Fatalf("single realization metrics inconsistent: %+v", m)
	}
}

// TestTardinessDiamond pins the metric arithmetic on the tiny deterministic
// diamond where realizations can be enumerated by hand via a two-point UL.
func TestTardinessDiamond(t *testing.T) {
	b := dag.NewBuilder(2)
	b.MustAddEdge(0, 1, 0)
	g := b.MustBuild()
	bcet, _ := platform.MatrixFromRows([][]float64{{10}, {10}})
	ul, _ := platform.MatrixFromRows([][]float64{{1.5}, {1.5}})
	w, err := platform.NewWorkload(g, platform.UniformSystem(1, 1), bcet, ul)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.FromOrder(w, []int{0, 1}, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Durations ~ U(10, 20) each; M0 = 15+15 = 30; M = d0+d1 with mean 30.
	if s.Makespan() != 30 {
		t.Fatalf("M0 = %g, want 30", s.Makespan())
	}
	m, err := Evaluate(s, Options{Realizations: 20000}, rng.New(35))
	if err != nil {
		t.Fatal(err)
	}
	// By symmetry the miss rate is 1/2 and E[δ] = E[max(0, S-30)]/30 where
	// S is the sum of two U(10,20): E[max(0,S-30)] = 10/6 ≈ 1.6667, so
	// E[δ] ≈ 0.05556 and R1 ≈ 18, R2 ≈ 2.
	if math.Abs(m.MissRate-0.5) > 0.02 {
		t.Errorf("MissRate = %g, want ~0.5", m.MissRate)
	}
	if math.Abs(m.MeanTardiness-1.0/18) > 0.004 {
		t.Errorf("MeanTardiness = %g, want ~%g", m.MeanTardiness, 1.0/18)
	}
	if math.Abs(m.R2-2) > 0.1 {
		t.Errorf("R2 = %g, want ~2", m.R2)
	}
}

func BenchmarkEvaluate1000x100(b *testing.B) {
	w := testWorkload(b, 1, 100, 8, 4)
	s := heftSchedule(b, w)
	opt := PaperOptions()
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(s, opt, r); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDeadlineForConfidence(t *testing.T) {
	w := testWorkload(t, 61, 40, 4, 4)
	s := heftSchedule(t, w)
	d95, err := DeadlineForConfidence(s, 0.95, Options{Realizations: 1500}, rng.New(63))
	if err != nil {
		t.Fatal(err)
	}
	d50, err := DeadlineForConfidence(s, 0.5, Options{Realizations: 1500}, rng.New(63))
	if err != nil {
		t.Fatal(err)
	}
	if d50 >= d95 {
		t.Fatalf("d50 %g >= d95 %g", d50, d95)
	}
	// Promising d95 must actually hold ~95% of the time on fresh samples.
	m, err := Evaluate(s, Options{Realizations: 1500, Deadline: d95}, rng.New(64))
	if err != nil {
		t.Fatal(err)
	}
	if m.DeadlineMissRate < 0.01 || m.DeadlineMissRate > 0.10 {
		t.Errorf("d95 deadline missed %g of the time, want ~0.05", m.DeadlineMissRate)
	}
	if _, err := DeadlineForConfidence(s, 0, Options{Realizations: 10}, rng.New(1)); err == nil {
		t.Error("confidence 0 accepted")
	}
	if _, err := DeadlineForConfidence(s, 1.5, Options{Realizations: 10}, rng.New(1)); err == nil {
		t.Error("confidence > 1 accepted")
	}
	// confidence 1 returns the sample maximum.
	dMax, err := DeadlineForConfidence(s, 1, Options{Realizations: 200}, rng.New(65))
	if err != nil {
		t.Fatal(err)
	}
	if dMax < d95 {
		t.Errorf("confidence-1 deadline %g below d95 %g", dMax, d95)
	}
}

// TestAntitheticReducesEstimatorVariance: with paired mirrored draws, the
// variance of the MeanMakespan estimator across repeated evaluations must
// drop relative to independent sampling — makespan is monotone in all
// durations, so the pairs are negatively correlated.
func TestAntitheticReducesEstimatorVariance(t *testing.T) {
	w := testWorkload(t, 71, 40, 4, 4)
	s := heftSchedule(t, w)
	const reps = 40
	const nReal = 60
	variance := func(anti bool) float64 {
		var means []float64
		for k := 0; k < reps; k++ {
			m, err := Evaluate(s, Options{Realizations: nReal, Antithetic: anti}, rng.New(uint64(1000+k)))
			if err != nil {
				t.Fatal(err)
			}
			means = append(means, m.MeanMakespan)
		}
		mu := 0.0
		for _, x := range means {
			mu += x
		}
		mu /= reps
		v := 0.0
		for _, x := range means {
			v += (x - mu) * (x - mu)
		}
		return v / reps
	}
	vPlain := variance(false)
	vAnti := variance(true)
	if vAnti >= vPlain {
		t.Fatalf("antithetic variance %g not below plain %g", vAnti, vPlain)
	}
}

// TestAntitheticPreservesMean: the estimator stays unbiased.
func TestAntitheticPreservesMean(t *testing.T) {
	w := testWorkload(t, 73, 30, 3, 3)
	s := heftSchedule(t, w)
	plain, err := Evaluate(s, Options{Realizations: 4000}, rng.New(75))
	if err != nil {
		t.Fatal(err)
	}
	anti, err := Evaluate(s, Options{Realizations: 4000, Antithetic: true}, rng.New(76))
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(anti.MeanMakespan-plain.MeanMakespan) / plain.MeanMakespan; rel > 0.01 {
		t.Fatalf("antithetic mean off by %g", rel)
	}
}

// TestMirroredUniformBounds: the reference antithetic wrapper (and hence
// the engine's mirrored sampling, which equivalence tests pin against it)
// stays inside the interval and mirrors exactly.
func TestMirroredUniformBounds(t *testing.T) {
	r1 := rng.New(77)
	r2 := rng.New(77)
	m := refMirrored{r2}
	for i := 0; i < 1000; i++ {
		u := r1.Uniform(2, 10)
		v := m.Uniform(2, 10)
		if v < 2 || v > 10 {
			t.Fatalf("mirrored draw %g outside [2,10]", v)
		}
		if math.Abs((u+v)-12) > 1e-12 {
			t.Fatalf("draws %g and %g do not mirror around the midpoint", u, v)
		}
	}
}

func TestCVaR(t *testing.T) {
	w := testWorkload(t, 81, 30, 3, 4)
	s := heftSchedule(t, w)
	cvar95, err := CVaR(s, 0.95, Options{Realizations: 2000}, rng.New(83))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Evaluate(s, Options{Realizations: 2000}, rng.New(83))
	if err != nil {
		t.Fatal(err)
	}
	// CVaR(0.95) exceeds the p95 quantile and the mean, and stays below
	// the sampled maximum.
	if cvar95 < m.P95 {
		t.Errorf("CVaR95 %g below p95 %g", cvar95, m.P95)
	}
	if cvar95 <= m.MeanMakespan {
		t.Errorf("CVaR95 %g not above mean %g", cvar95, m.MeanMakespan)
	}
	if cvar95 > m.MaxMakespan+1e-9 {
		t.Errorf("CVaR95 %g above max %g", cvar95, m.MaxMakespan)
	}
	// Monotone in q.
	cvar50, err := CVaR(s, 0.5, Options{Realizations: 2000}, rng.New(83))
	if err != nil {
		t.Fatal(err)
	}
	if cvar50 >= cvar95 {
		t.Errorf("CVaR50 %g >= CVaR95 %g", cvar50, cvar95)
	}
	if _, err := CVaR(s, 0, Options{Realizations: 10}, rng.New(1)); err == nil {
		t.Error("q=0 accepted")
	}
	if _, err := CVaR(s, 1, Options{Realizations: 10}, rng.New(1)); err == nil {
		t.Error("q=1 accepted")
	}
}
