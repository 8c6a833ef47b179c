package schedule

import (
	"testing"

	"robsched/internal/dag"
	"robsched/internal/platform"
	"robsched/internal/rng"
)

// TestMakespanBatchMatchesScalar: the batched SoA sweep must reproduce the
// scalar forward pass bit for bit in every lane, for every lane count,
// across random workloads and schedules.
func TestMakespanBatchMatchesScalar(t *testing.T) {
	r := rng.New(301)
	for trial := 0; trial < 40; trial++ {
		w := randomWorkload(t, r, 2+r.Intn(60), 1+r.Intn(5))
		s := randomSchedule(t, r, w)
		n := w.N()
		for _, lanes := range []int{1, 2, 3, 8, 17} {
			dur := make([]float64, n*lanes)
			for v := 0; v < n; v++ {
				for l := 0; l < lanes; l++ {
					dur[v*lanes+l] = w.SampleDuration(v, s.Proc(v), r)
				}
			}
			out := make([]float64, lanes)
			st := make([]float64, lanes)
			finish := make([]float64, n*lanes)
			s.MakespanBatchInto(lanes, dur, st, finish, out)

			scalarDur := make([]float64, n)
			startBuf := make([]float64, n)
			finishBuf := make([]float64, n)
			for l := 0; l < lanes; l++ {
				for v := 0; v < n; v++ {
					scalarDur[v] = dur[v*lanes+l]
				}
				want := s.MakespanInto(scalarDur, startBuf, finishBuf)
				if out[l] != want {
					t.Fatalf("trial %d lanes %d: lane %d makespan %v != scalar %v",
						trial, lanes, l, out[l], want)
				}
				// Finish times are lane-exact too (downstream slack analyses
				// may build on them).
				for v := 0; v < n; v++ {
					if finish[v*lanes+l] != finishBuf[v] {
						t.Fatalf("trial %d lanes %d: lane %d finish[%d] %v != scalar %v",
							trial, lanes, l, v, finish[v*lanes+l], finishBuf[v])
					}
				}
			}
		}
	}
}

func benchWorkloadAndSchedule(b *testing.B) (*platform.Workload, *Schedule) {
	b.Helper()
	r := rng.New(7)
	n, m := 100, 8
	gb := dag.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n && v < u+12; v++ {
			if r.Float64() < 0.25 {
				gb.MustAddEdge(u, v, r.Uniform(0, 8))
			}
		}
	}
	bcet := platform.NewMatrix(n, m)
	ul := platform.NewMatrix(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			bcet.Set(i, j, r.Uniform(1, 20))
			ul.Set(i, j, r.Uniform(1, 6))
		}
	}
	w, err := platform.NewWorkload(gb.MustBuild(), platform.UniformSystem(m, 1), bcet, ul)
	if err != nil {
		b.Fatal(err)
	}
	order := w.G.RandomTopologicalOrder(r)
	proc := make([]int, n)
	for i := range proc {
		proc[i] = r.Intn(m)
	}
	s, err := FromOrder(w, order, proc)
	if err != nil {
		b.Fatal(err)
	}
	return w, s
}

// BenchmarkRealizeBatch measures the batched forward kernel: 8 lanes of an
// n=100, m=8 schedule per sweep, reported per single realization so it is
// directly comparable to BenchmarkRealizeScalar.
func BenchmarkRealizeBatch(b *testing.B) {
	w, s := benchWorkloadAndSchedule(b)
	const lanes = 8
	n := w.N()
	r := rng.New(11)
	dur := make([]float64, n*lanes)
	for i := range dur {
		dur[i] = w.SampleDuration(i/lanes, s.Proc(i/lanes), r)
	}
	st := make([]float64, lanes)
	finish := make([]float64, n*lanes)
	out := make([]float64, lanes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MakespanBatchInto(lanes, dur, st, finish, out)
	}
	// One op = lanes realizations; normalize for comparability.
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/realization")
}

// BenchmarkRealizeScalar is the per-realization scalar baseline the batched
// kernel is measured against.
func BenchmarkRealizeScalar(b *testing.B) {
	w, s := benchWorkloadAndSchedule(b)
	n := w.N()
	r := rng.New(11)
	dur := make([]float64, n)
	for i := range dur {
		dur[i] = w.SampleDuration(i, s.Proc(i), r)
	}
	startBuf := make([]float64, n)
	finishBuf := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MakespanInto(dur, startBuf, finishBuf)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/realization")
}
