package gen

import (
	"math"
	"testing"

	"robsched/internal/heft"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// wfCases enumerates the family generators with their task-count formulas.
var wfCases = []struct {
	name   string
	family func(int, Params, *rng.Source) (*platform.Workload, []stage, error)
	tasks  func(w int) int
}{
	{"montage", montage, func(w int) int { return 3*w + 4 }},
	{"epigenomics", epigenomics, func(w int) int { return 3*w + 4 }},
	{"cybershake", cybershake, func(w int) int { return 2*w + 4 }},
}

// TestWorkflowValidDAGs is the satellite property test: every family, at
// several widths and seeds, yields a workload whose DAG schedules cleanly —
// HEFT succeeds and the resulting schedule passes the shared invariant
// validator — with the advertised task count and a stage list that
// partitions the task set.
func TestWorkflowValidDAGs(t *testing.T) {
	p := PaperParams()
	for _, tc := range wfCases {
		for _, width := range []int{2, 5, 8} {
			for seed := uint64(1); seed <= 5; seed++ {
				w, stages, err := tc.family(width, p, rng.New(seed))
				if err != nil {
					t.Fatalf("%s width=%d seed=%d: %v", tc.name, width, seed, err)
				}
				if got, want := w.N(), tc.tasks(width); got != want {
					t.Fatalf("%s width=%d: %d tasks, want %d", tc.name, width, got, want)
				}
				seen := make([]bool, w.N())
				for _, st := range stages {
					for _, task := range st.Tasks {
						if task < 0 || task >= w.N() || seen[task] {
							t.Fatalf("%s width=%d: stage %q claims task %d twice or out of range", tc.name, width, st.Name, task)
						}
						seen[task] = true
					}
				}
				for task, ok := range seen {
					if !ok {
						t.Fatalf("%s width=%d: task %d not claimed by any stage", tc.name, width, task)
					}
				}
				s, err := heft.HEFT(w, heft.Options{})
				if err != nil {
					t.Fatalf("%s width=%d seed=%d: HEFT failed: %v", tc.name, width, seed, err)
				}
				if err := schedule.Validate(s); err != nil {
					t.Fatalf("%s width=%d seed=%d: invalid schedule: %v", tc.name, width, seed, err)
				}
			}
		}
	}
}

// TestWorkflowStageCCRBounds pins the per-stage CCR profile: every edge's
// data lies within [0.5, 1.5]·CC·stageCCR·Rate of its consumer's stage —
// the documented sampling bound — and entry stages receive no edges.
func TestWorkflowStageCCRBounds(t *testing.T) {
	p := PaperParams()
	p.CCR = 0.4
	for _, tc := range wfCases {
		w, stages, err := tc.family(6, p, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		stageOf := make([]int, w.N())
		for si, st := range stages {
			for _, task := range st.Tasks {
				stageOf[task] = si
			}
		}
		counts := make([]int, len(stages))
		for _, e := range w.G.Edges() {
			st := stages[stageOf[e.To]]
			counts[stageOf[e.To]]++
			if st.CCR == 0 {
				t.Fatalf("%s: edge %d→%d enters entry stage %q", tc.name, e.From, e.To, st.Name)
			}
			lo := 0.5 * p.CC * st.CCR * p.Rate
			hi := 1.5 * p.CC * st.CCR * p.Rate
			if e.Data < lo || e.Data > hi {
				t.Fatalf("%s: edge %d→%d data %g outside stage %q bounds [%g, %g]",
					tc.name, e.From, e.To, e.Data, st.Name, lo, hi)
			}
		}
		for si, st := range stages {
			if st.CCR > 0 && counts[si] == 0 {
				t.Errorf("%s: non-entry stage %q received no edges", tc.name, st.Name)
			}
		}
	}
}

// TestWorkflowDeterminism pins seed determinism: one seed yields one
// workload (edges, BCET and UL bit-identical), and different seeds differ.
func TestWorkflowDeterminism(t *testing.T) {
	p := PaperParams()
	for _, tc := range wfCases {
		a, err := WorkflowByName(tc.name, 4, p, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		b, err := WorkflowByName(tc.name, 4, p, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		c, err := WorkflowByName(tc.name, 4, p, rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		ea, eb := a.G.Edges(), b.G.Edges()
		if len(ea) != len(eb) {
			t.Fatalf("%s: edge counts differ across identical seeds", tc.name)
		}
		differs := false
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("%s: edge %d differs across identical seeds: %+v vs %+v", tc.name, i, ea[i], eb[i])
			}
		}
		for tsk := 0; tsk < a.N(); tsk++ {
			for j := 0; j < a.M(); j++ {
				if math.Float64bits(a.BCET.At(tsk, j)) != math.Float64bits(b.BCET.At(tsk, j)) {
					t.Fatalf("%s: BCET(%d,%d) differs across identical seeds", tc.name, tsk, j)
				}
				if math.Float64bits(a.UL.At(tsk, j)) != math.Float64bits(b.UL.At(tsk, j)) {
					t.Fatalf("%s: UL(%d,%d) differs across identical seeds", tc.name, tsk, j)
				}
				if a.BCET.At(tsk, j) != c.BCET.At(tsk, j) {
					differs = true
				}
			}
		}
		if !differs {
			t.Errorf("%s: seeds 3 and 4 produced identical BCET matrices", tc.name)
		}
	}
}

// TestWorkflowStageCompProfile sanity-checks the computation profile: the
// heavy stage of each family (montage add, epigenomics map, cybershake
// extract) has a larger empirical mean BCET than the light stage — the
// profile actually reaches the matrices.
func TestWorkflowStageCompProfile(t *testing.T) {
	p := PaperParams()
	heavyLight := map[string][2]string{
		"montage":     {"add", "concat"},
		"epigenomics": {"map", "convert"},
		"cybershake":  {"extract", "zip"},
	}
	for _, tc := range wfCases {
		// Average over seeds: single-task stages need a few draws for the
		// Gamma means to separate.
		var meanOf map[string]float64
		const seeds = 20
		for seed := uint64(100); seed < 100+seeds; seed++ {
			w, stages, err := tc.family(6, p, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if meanOf == nil {
				meanOf = make(map[string]float64)
			}
			for _, st := range stages {
				sum, cnt := 0.0, 0
				for _, task := range st.Tasks {
					for j := 0; j < w.M(); j++ {
						sum += w.BCET.At(task, j)
						cnt++
					}
				}
				meanOf[st.Name] += sum / float64(cnt) / seeds
			}
		}
		hl := heavyLight[tc.name]
		if meanOf[hl[0]] <= meanOf[hl[1]] {
			t.Errorf("%s: heavy stage %q mean BCET %.2f not above light stage %q %.2f",
				tc.name, hl[0], meanOf[hl[0]], hl[1], meanOf[hl[1]])
		}
	}
}

func TestWorkflowErrors(t *testing.T) {
	p := PaperParams()
	if _, err := WorkflowByName("pegasus", 4, p, rng.New(1)); err == nil {
		t.Error("unknown workflow shape accepted")
	}
	for _, name := range WorkflowShapes() {
		if _, err := WorkflowByName(name, 1, p, rng.New(1)); err == nil {
			t.Errorf("%s: width 1 accepted", name)
		}
		bad := p
		bad.CC = 0
		if _, err := WorkflowByName(name, 4, bad, rng.New(1)); err == nil {
			t.Errorf("%s: invalid params accepted", name)
		}
	}
}
