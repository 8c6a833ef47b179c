package scenario

import (
	"math"
	"testing"

	"robsched/internal/gen"
	"robsched/internal/heft"
	"robsched/internal/rng"
	"robsched/internal/schedule"
	"robsched/internal/sim"
)

func TestNamesResolve(t *testing.T) {
	names := Names()
	if want := len(Families()) * len(Models()); len(names) != want {
		t.Fatalf("registry lists %d scenarios, want %d", len(names), want)
	}
	seen := map[string]bool{}
	for _, name := range names {
		s, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if s.Name != name {
			t.Errorf("Lookup(%q).Name = %q", name, s.Name)
		}
		if seen[name] {
			t.Errorf("duplicate scenario name %q", name)
		}
		seen[name] = true
		if o := s.Apply(sim.Options{Realizations: 10}); o.Validate() != nil {
			t.Errorf("%q applies invalid sim options: %v", name, o.Validate())
		}
	}
}

func TestLookupForms(t *testing.T) {
	for _, family := range Families() {
		s, err := Lookup(family)
		if err != nil {
			t.Fatalf("bare family %q rejected: %v", family, err)
		}
		if s.Name != family+"-uniform" || s.Model != sim.ModelUniform || s.Corr != sim.CorrNone {
			t.Errorf("bare family %q resolved to %+v, want uniform model", family, s)
		}
	}
	for _, bad := range []string{"", "pegasus", "montage-cauchy", "random-", "-uniform"} {
		if _, err := Lookup(bad); err == nil {
			t.Errorf("Lookup(%q) accepted", bad)
		}
	}
}

// TestDefaultIsPaperPath pins the bit-identity contract of the paper's
// scenario, random-uniform: its workload generation routes through
// gen.Random with the same draws, and its option overlay is all-zero —
// nothing the -scenario plumbing touches can perturb the default
// experiment path.
func TestDefaultIsPaperPath(t *testing.T) {
	s, err := Lookup("random-uniform")
	if err != nil {
		t.Fatal(err)
	}
	p := gen.PaperParams()
	p.N, p.M = 30, 4
	got, err := s.Workload(p, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	want, err := gen.Random(p, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("default scenario workload shape %dx%d, want %dx%d", got.N(), got.M(), want.N(), want.M())
	}
	for i := 0; i < got.N(); i++ {
		for j := 0; j < got.M(); j++ {
			if math.Float64bits(got.BCET.At(i, j)) != math.Float64bits(want.BCET.At(i, j)) {
				t.Fatalf("default scenario BCET(%d,%d) differs from gen.Random", i, j)
			}
		}
	}
	if opt := s.Apply(sim.Options{Realizations: 7}); opt != (sim.Options{Realizations: 7}) {
		t.Errorf("default scenario perturbs sim options: %+v", opt)
	}
}

// TestScenarioMatrixSmoke is the CI scenario matrix: every registered
// family × duration model generates at a small size, schedules under HEFT,
// passes the shared schedule validator, and evaluates to finite metrics.
func TestScenarioMatrixSmoke(t *testing.T) {
	p := gen.PaperParams()
	p.N, p.M = 22, 3
	for _, name := range Names() {
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := s.Workload(p, rng.New(5))
		if err != nil {
			t.Fatalf("%s: workload: %v", name, err)
		}
		if w.N() > p.N {
			t.Errorf("%s: %d tasks exceeds requested budget %d", name, w.N(), p.N)
		}
		sched, err := heft.HEFT(w, heft.Options{})
		if err != nil {
			t.Fatalf("%s: HEFT: %v", name, err)
		}
		if err := schedule.Validate(sched); err != nil {
			t.Fatalf("%s: invalid schedule: %v", name, err)
		}
		opt := s.Apply(sim.Options{Realizations: 60, Workers: 1})
		m, err := sim.Evaluate(sched, opt, rng.New(6))
		if err != nil {
			t.Fatalf("%s: evaluate: %v", name, err)
		}
		if !(m.MeanMakespan > 0) || math.IsInf(m.MeanMakespan, 0) ||
			math.IsNaN(m.P95) || m.P95 < m.P50 {
			t.Errorf("%s: degenerate metrics %+v", name, m)
		}
	}
}

// TestWidthFor pins the task-count derivation: the derived width lands the
// family's task count as close to n as possible without exceeding it (for
// n comfortably above the minimum structure).
func TestWidthFor(t *testing.T) {
	cases := []struct {
		family string
		n      int
		tasks  func(w int) int
	}{
		{"montage", 100, func(w int) int { return 3*w + 4 }},
		{"epigenomics", 50, func(w int) int { return 3*w + 4 }},
		{"cybershake", 100, func(w int) int { return 2*w + 4 }},
	}
	for _, c := range cases {
		s, err := Lookup(c.family)
		if err != nil {
			t.Fatal(err)
		}
		w := s.WidthFor(c.n)
		if got := c.tasks(w); got > c.n || c.n-got > 3 {
			t.Errorf("%s: WidthFor(%d) = %d gives %d tasks", c.family, c.n, w, got)
		}
	}
	if s, _ := Lookup("montage"); s.WidthFor(1) != 2 {
		t.Error("WidthFor must clamp to the minimum width 2")
	}
}
