package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func ablationConfig() Config {
	c := tinyConfig()
	c.ULs = []float64{2, 6}
	c.Graphs = 2
	c.Realizations = 100
	c.GA.MaxGenerations = 30
	return c
}

func TestAblationSeed(t *testing.T) {
	c := ablationConfig()
	series, err := c.AblationSeed()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("got %d series", len(series))
	}
	byName := map[string]Series{}
	for _, s := range series {
		byName[s.Name] = s
		if len(s.X) != len(c.ULs) || len(s.Y) != len(c.ULs) {
			t.Fatalf("series %q misshaped", s.Name)
		}
	}
	seeded, ok1 := byName["seeded,M0/MHEFT"]
	unseeded, ok2 := byName["unseeded,M0/MHEFT"]
	if !ok1 || !ok2 {
		t.Fatalf("missing series: %v", byName)
	}
	for u := range c.ULs {
		// The ε-constraint keeps both within the bound, but the seeded run
		// can never exceed ε; sanity: ratios positive and below ε plus
		// tolerance.
		if seeded.Y[u] <= 0 || seeded.Y[u] > 1.5+1e-9 {
			t.Errorf("seeded M0/MHEFT[%d] = %g", u, seeded.Y[u])
		}
		if unseeded.Y[u] <= 0 {
			t.Errorf("unseeded M0/MHEFT[%d] = %g", u, unseeded.Y[u])
		}
	}
}

func TestAblationSlackMetric(t *testing.T) {
	c := ablationConfig()
	series, err := c.AblationSlackMetric()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if !strings.Contains(s.Name, "lnR") {
			t.Errorf("unexpected series name %q", s.Name)
		}
	}
}

func TestAblationRiskFactor(t *testing.T) {
	c := ablationConfig()
	series, err := c.AblationRiskFactor([]float64{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Two series per UL.
	if len(series) != 2*len(c.ULs) {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if len(s.X) != 2 {
			t.Fatalf("series %q has %d points", s.Name, len(s.X))
		}
		// k = 0 is plain HEFT: relative change exactly 0.
		if s.Y[0] != 0 {
			t.Errorf("series %q at k=0: %g, want 0", s.Name, s.Y[0])
		}
	}
}

func TestPolicyComparison(t *testing.T) {
	c := ablationConfig()
	series, err := c.PolicyComparison(1.4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("got %d series", len(series))
	}
	byName := map[string]Series{}
	for _, s := range series {
		byName[s.Name] = s
	}
	static, ok := byName["static-heft"]
	if !ok {
		t.Fatal("missing static-heft")
	}
	for u := range c.ULs {
		if static.Y[u] != 1 {
			t.Fatalf("static baseline not normalized: %g", static.Y[u])
		}
	}
	// The dynamic dispatcher should beat rigid static execution at high
	// uncertainty (last UL = 6).
	last := len(c.ULs) - 1
	if dyn := byName["dynamic"]; dyn.Y[last] >= 1.05 {
		t.Errorf("dynamic dispatcher ratio %g at UL=%g; expected to be competitive",
			dyn.Y[last], c.ULs[last])
	}
	// Repair should not be (much) worse than rigid execution.
	if rep := byName["repair"]; rep.Y[last] > 1.05 {
		t.Errorf("repair ratio %g at UL=%g; expected <= ~1", rep.Y[last], c.ULs[last])
	}
}

func TestSensitivity(t *testing.T) {
	c := ablationConfig()
	c.ULs = []float64{4}
	for _, tc := range []struct {
		param SensitivityParam
		grid  []float64
	}{
		{SweepCCR, []float64{0.1, 1.0}},
		{SweepShape, []float64{0.5, 2.0}},
		{SweepProcs, []float64{2, 4}},
	} {
		series, err := c.Sensitivity(tc.param, tc.grid, 1.4)
		if err != nil {
			t.Fatalf("%v: %v", tc.param, err)
		}
		if len(series) != 2 {
			t.Fatalf("%v: got %d series", tc.param, len(series))
		}
		for _, s := range series {
			if len(s.X) != len(tc.grid) {
				t.Fatalf("%v: series %q has %d points", tc.param, s.Name, len(s.X))
			}
		}
		// The constraint must hold at every grid point.
		for i, y := range series[1].Y {
			if y > 1.4+1e-9 {
				t.Errorf("%v grid %g: M0/MHEFT = %g exceeds ε", tc.param, tc.grid[i], y)
			}
		}
	}
	if _, err := c.Sensitivity(SweepCCR, nil, 1.4); err == nil {
		t.Error("empty grid accepted")
	}
	// A processor count must be a finite integer >= 1; anything else is an
	// error naming the value, never a truncated count.
	for _, procs := range []float64{0, 2.7, math.NaN(), math.Inf(1)} {
		_, err := c.Sensitivity(SweepProcs, []float64{procs}, 1.4)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%g", procs)) {
			t.Errorf("%g processors: got error %v, want one naming the value", procs, err)
		}
	}
}

func TestAblationGAParams(t *testing.T) {
	c := ablationConfig()
	c.ULs = []float64{4}
	c.Graphs = 2
	series, err := c.AblationGAParams([]float64{0.9}, []float64{0.05, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].X) != 2 {
		t.Fatalf("series shape wrong: %+v", series)
	}
	for _, y := range series[0].Y {
		if y <= 0 {
			t.Errorf("relative slack %g not positive", y)
		}
	}
}

func TestFig1(t *testing.T) {
	out, err := Fig1(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"(a) task graph: 8 tasks",
		"(b) system: 4 fully connected processors",
		"(c) schedule (HEFT):",
		"(d) disjunctive graph",
		"digraph \"fig1a\"",
		"digraph \"fig1d\"",
		"makespan",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 output missing %q", want)
		}
	}
	// Deterministic per seed.
	out2, err := Fig1(7)
	if err != nil {
		t.Fatal(err)
	}
	if out != out2 {
		t.Error("Fig1 not deterministic")
	}
}
