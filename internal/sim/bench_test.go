package sim

import (
	"io"
	"testing"

	"robsched/internal/obs"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// benchSchedules builds `count` distinct valid schedules of one workload:
// the HEFT baseline plus deterministic round-robin variants, mirroring how
// EvaluateAll is used by the sweeps (a family of GA schedules plus HEFT
// under common random numbers).
func benchSchedules(tb testing.TB, w *platform.Workload, count int) []*schedule.Schedule {
	tb.Helper()
	ss := []*schedule.Schedule{heftSchedule(tb, w)}
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

// BenchmarkEvaluateAll is the paper-scale Monte-Carlo hot path: 1000
// realizations of an n=100, m=8 workload applied to 7 schedules under
// common random numbers.
func BenchmarkEvaluateAll(b *testing.B) {
	w := testWorkload(b, 1, 100, 8, 4)
	ss := benchSchedules(b, w, 7)
	opt := PaperOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvaluateAll(ss, opt, rng.New(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateAllObs is BenchmarkEvaluateAll with and without the
// registry/tracer attached: the Monte-Carlo engine instruments per batch,
// not per realization, so "on" must track "off" within noise.
func BenchmarkEvaluateAllObs(b *testing.B) {
	w := testWorkload(b, 1, 100, 8, 4)
	ss := benchSchedules(b, w, 7)
	run := func(b *testing.B, instrument bool) {
		opt := PaperOptions()
		if instrument {
			opt.Obs = obs.NewRegistry()
			opt.Trace = obs.NewTracer(io.Discard)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := EvaluateAll(ss, opt, rng.New(1)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}
