package stats

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Errorf("Mean = %g", Mean([]float64{1, 2, 3, 4}))
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) not NaN")
	}
	if Mean([]float64{7}) != 7 {
		t.Error("Mean of singleton")
	}
}

func TestSafeRatio(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct{ a, b, want float64 }{
		{6, 3, 2},
		{inf, inf, 1},
		{inf, 5, math.Exp(RatioLogCap)},
		{5, inf, math.Exp(-RatioLogCap)},
		{5, 0, 1},
		{0, 5, 1},
		{-1, 5, 1},
	}
	for i, c := range cases {
		if got := SafeRatio(c.a, c.b); !almost(got, c.want) {
			t.Errorf("case %d: SafeRatio(%g,%g) = %g, want %g", i, c.a, c.b, got, c.want)
		}
	}
}

func TestLogRatio(t *testing.T) {
	if !almost(LogRatio(math.E, 1), 1) {
		t.Errorf("LogRatio(e,1) = %g", LogRatio(math.E, 1))
	}
	if !almost(LogRatio(1, 1), 0) {
		t.Errorf("LogRatio(1,1) = %g", LogRatio(1, 1))
	}
	inf := math.Inf(1)
	if got := LogRatio(inf, 1); got != RatioLogCap {
		t.Errorf("LogRatio(inf,1) = %g, want cap", got)
	}
	if got := LogRatio(1, inf); got != -RatioLogCap {
		t.Errorf("LogRatio(1,inf) = %g, want -cap", got)
	}
	if got := LogRatio(inf, inf); got != 0 {
		t.Errorf("LogRatio(inf,inf) = %g, want 0", got)
	}
}

func TestOverallPerformance(t *testing.T) {
	// r=1: only makespan matters. GA halves HEFT's makespan → ln 2.
	if got := OverallPerformance(1, 50, 100, 1, 1); !almost(got, math.Log(2)) {
		t.Errorf("r=1: P = %g, want ln2", got)
	}
	// r=0: only robustness matters. R doubled → ln 2.
	if got := OverallPerformance(0, 50, 100, 4, 2); !almost(got, math.Log(2)) {
		t.Errorf("r=0: P = %g, want ln2", got)
	}
	// r=0.5 blends.
	want := 0.5*math.Log(2) + 0.5*math.Log(3)
	if got := OverallPerformance(0.5, 50, 100, 6, 2); !almost(got, want) {
		t.Errorf("r=0.5: P = %g, want %g", got, want)
	}
	// Identical schedules score 0 for any r.
	for _, r := range []float64{0, 0.3, 1} {
		if got := OverallPerformance(r, 100, 100, 2, 2); !almost(got, 0) {
			t.Errorf("identical schedules: P(r=%g) = %g", r, got)
		}
	}
	if !math.IsNaN(OverallPerformance(-0.1, 1, 1, 1, 1)) || !math.IsNaN(OverallPerformance(1.1, 1, 1, 1, 1)) {
		t.Error("out-of-range r not NaN")
	}
	// Infinite robustness on both sides cancels.
	inf := math.Inf(1)
	if got := OverallPerformance(0.5, 80, 100, inf, inf); !almost(got, 0.5*math.Log(100.0/80)) {
		t.Errorf("inf/inf robustness: P = %g", got)
	}
}

func TestOverallPerformanceMonotonicity(t *testing.T) {
	// With fixed metrics, increasing robustness increases P; increasing
	// makespan decreases it.
	base := OverallPerformance(0.5, 100, 100, 2, 2)
	if OverallPerformance(0.5, 100, 100, 3, 2) <= base {
		t.Error("more robustness did not raise P")
	}
	if OverallPerformance(0.5, 120, 100, 2, 2) >= base {
		t.Error("more makespan did not lower P")
	}
}

func TestPearson(t *testing.T) {
	if got := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); !almost(got, 1) {
		t.Errorf("perfect positive = %g", got)
	}
	if got := Pearson([]float64{1, 2, 3}, []float64{6, 4, 2}); !almost(got, -1) {
		t.Errorf("perfect negative = %g", got)
	}
	if got := Pearson([]float64{1, 2, 3, 4}, []float64{1, 3, 2, 4}); got <= 0 || got >= 1 {
		t.Errorf("noisy positive = %g, want in (0,1)", got)
	}
	if !math.IsNaN(Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Error("constant sample not NaN")
	}
	if !math.IsNaN(Pearson([]float64{1}, []float64{2})) {
		t.Error("short sample not NaN")
	}
	if !math.IsNaN(Pearson([]float64{1, 2}, []float64{1, 2, 3})) {
		t.Error("mismatched lengths not NaN")
	}
}

func TestSpearman(t *testing.T) {
	// Monotone but nonlinear: Spearman 1, Pearson < 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	if got := Spearman(xs, ys); !almost(got, 1) {
		t.Errorf("monotone Spearman = %g", got)
	}
	if p := Pearson(xs, ys); p >= 1 {
		t.Errorf("nonlinear Pearson = %g, expected < 1", p)
	}
	// Ties handled via mid-ranks.
	if got := Spearman([]float64{1, 1, 2}, []float64{3, 3, 5}); !almost(got, 1) {
		t.Errorf("tied Spearman = %g", got)
	}
}

func TestRanks(t *testing.T) {
	got := ranks([]float64{30, 10, 20, 10})
	want := []float64{4, 1.5, 3, 1.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", got, want)
		}
	}
}
