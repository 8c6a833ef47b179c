package scenario

import (
	"testing"

	"robsched/internal/gen"
	"robsched/internal/heft"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
	"robsched/internal/sim"
)

// BenchmarkScenarioEvaluateAll times the paper-scale Monte-Carlo evaluation
// (1000 realizations, ~100 tasks, 8 processors, 7 schedules under common
// random numbers) for every scenario family × duration model, so kernel
// work is measured across graph shapes and sampling paths instead of one
// layered random graph. The "random-uniform" entry is the same path internal/sim's
// BenchmarkEvaluateAll times; the others price the workflow shapes and the
// general sampling path (heavy tails, correlated load).
func BenchmarkScenarioEvaluateAll(b *testing.B) {
	for _, name := range Names() {
		s, err := Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			p := gen.PaperParams() // N=100, M=8
			w, err := s.Workload(p, rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			ss := benchSchedules(b, w, 7)
			opt := s.Apply(sim.PaperOptions())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.EvaluateAll(ss, opt, rng.New(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSchedules mirrors internal/sim's benchmark corpus: HEFT plus
// deterministic round-robin variants of one workload.
func benchSchedules(tb testing.TB, w *platform.Workload, count int) []*schedule.Schedule {
	tb.Helper()
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	ss := []*schedule.Schedule{s}
	order := w.G.TopologicalOrder()
	for k := 1; len(ss) < count; k++ {
		proc := make([]int, w.N())
		for i, v := range order {
			proc[v] = (i*k + k) % w.M()
		}
		s, err := schedule.FromOrder(w, order, proc)
		if err != nil {
			tb.Fatal(err)
		}
		ss = append(ss, s)
	}
	return ss
}
