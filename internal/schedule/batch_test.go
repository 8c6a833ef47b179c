package schedule

import (
	"math"
	"testing"

	"robsched/internal/dag"
	"robsched/internal/gen"
	"robsched/internal/platform"
	"robsched/internal/rng"
)

// TestMakespanBatchMatchesScalar: the batched SoA sweep must reproduce the
// scalar forward pass bit for bit in every lane, across random workloads
// and schedules.
func TestMakespanBatchMatchesScalar(t *testing.T) {
	const lanes = batchLanes
	r := rng.New(301)
	for trial := 0; trial < 40; trial++ {
		w := randomWorkload(t, r, 2+r.Intn(60), 1+r.Intn(5))
		s := randomSchedule(t, r, w)
		n := w.N()
		dur := make([]float64, n*lanes)
		for v := 0; v < n; v++ {
			for l := 0; l < lanes; l++ {
				dur[v*lanes+l] = w.SampleDuration(v, s.Proc(v), r)
			}
		}
		out := make([]float64, lanes)
		finish := make([]float64, n*lanes)
		s.MakespanBatchInto(lanes, dur, nil, finish, out)

		// The indexed form on the same durations stored in shuffled
		// blocks, two spare ones included, gives the same bits.
		idx := make([]int32, n)
		shuffled := make([]float64, (n+2)*lanes)
		for v, b := range r.Perm(n + 2)[:n] {
			idx[v] = int32(b)
			copy(shuffled[b*lanes:(b+1)*lanes], dur[v*lanes:(v+1)*lanes])
		}
		outIdx := make([]float64, lanes)
		s.MakespanBatchIndexed(shuffled, idx, make([]float64, n*lanes), outIdx)
		for l := range out {
			if !sameBits(outIdx[l], out[l]) {
				t.Fatalf("trial %d: lane %d indexed makespan %v != %v", trial, l, outIdx[l], out[l])
			}
		}

		scalarDur := make([]float64, n)
		startBuf := make([]float64, n)
		finishBuf := make([]float64, n)
		for l := 0; l < lanes; l++ {
			for v := 0; v < n; v++ {
				scalarDur[v] = dur[v*lanes+l]
			}
			want := s.MakespanInto(scalarDur, startBuf, finishBuf)
			if out[l] != want {
				t.Fatalf("trial %d: lane %d makespan %v != scalar %v", trial, l, out[l], want)
			}
			// Finish times are lane-exact too (downstream slack analyses
			// may build on them).
			for v := 0; v < n; v++ {
				if finish[v*lanes+l] != finishBuf[v] {
					t.Fatalf("trial %d: lane %d finish[%d] %v != scalar %v",
						trial, l, v, finish[v*lanes+l], finishBuf[v])
				}
			}
		}
	}
}

// TestMakespanBatchIntoRejectsOtherWidths: the batched sweep has one
// width, so MakespanBatchInto panics on any lane count but eight, before
// it reads or writes a buffer.
func TestMakespanBatchIntoRejectsOtherWidths(t *testing.T) {
	r := rng.New(303)
	w := randomWorkload(t, r, 10, 3)
	s := randomSchedule(t, r, w)
	n := w.N()
	for _, lanes := range []int{-1, 0, 1, 3, 7, 9, 16, 17} {
		buf := max(lanes, batchLanes)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("lanes %d did not panic", lanes)
				}
			}()
			s.MakespanBatchInto(lanes, make([]float64, n*buf), make([]float64, buf), make([]float64, n*buf), make([]float64, buf))
		}()
	}
}

// batchSpecials are the values on which the AVX kernel's VMAXPD and the Go
// kernel's compare-and-branch would part ways if an operand were swapped
// (NaN, signed zeros), plus infinities, subnormals and values whose sums
// overflow.
var batchSpecials = []float64{
	math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1040, 1e308, -1e308, math.MaxFloat64,
}

// TestMakespanBatch8AVXMatchesGo: the assembly kernel and makespanBatch8
// write the same bits into every finish time and every makespan, on random
// workloads (n 1–60, m 1–5) and paper-size ones, with durations and
// communication costs drawn from ordinary values mixed with NaN, −0, ±Inf,
// subnormals and huge values, and task durations read from block v (no
// index), from shuffled blocks and from repeated ones (several tasks
// reading one block). makespanBatch8 is the kernel every host without AVX
// runs, so this holds the fallback to the dispatched path's output.
func TestMakespanBatch8AVXMatchesGo(t *testing.T) {
	if !hasAVX {
		t.Skip("the CPU or OS lacks AVX, so the assembly kernel never runs on this host")
	}
	const L = batchLanes
	r := rng.New(307)
	value := func(special, ordinary float64) float64 {
		if r.Float64() < special {
			return batchSpecials[r.Intn(len(batchSpecials))]
		}
		return ordinary
	}
	check := func(ctx string, w *platform.Workload, s *Schedule) {
		t.Helper()
		n := w.N()
		for c := 0; c < 9; c++ {
			special, layout := []float64{0, 0.05, 0.3}[c%3], c/3
			for k := range s.predComm {
				s.predComm[k] = value(special, r.Uniform(0, 8))
			}
			var idx []int32
			blocks := n
			switch layout {
			case 1: // shuffled blocks, three of them spare
				blocks = n + 3
				idx = make([]int32, n)
				for v, b := range r.Perm(blocks)[:n] {
					idx[v] = int32(b)
				}
			case 2: // repeated blocks
				blocks = max(1, n/2)
				idx = make([]int32, n)
				for v := range idx {
					idx[v] = int32(r.Intn(blocks))
				}
			}
			dur := make([]float64, blocks*L)
			for i := range dur {
				dur[i] = value(special, w.SampleDuration(i/L%n, s.Proc(i/L%n), r))
			}
			// Different fill in each kernel's buffers, so an entry one of
			// them leaves unwritten cannot match by accident.
			finAsm, finGo := make([]float64, n*L), make([]float64, n*L)
			for i := range finAsm {
				finAsm[i], finGo[i] = -1, -2
			}
			outAsm, outGo := make([]float64, L), make([]float64, L)
			s.makespanBatch8AVX(n, dur, idx, finAsm, outAsm)
			s.makespanBatch8(n, dur, idx, finGo, outGo)
			for i := range finAsm {
				if !sameBits(finAsm[i], finGo[i]) {
					t.Fatalf("%s, special share %v, index %v: finish %d lane %d: go %v asm %v",
						ctx, special, idx, i/L, i%L, finGo[i], finAsm[i])
				}
			}
			for l := range outAsm {
				if !sameBits(outAsm[l], outGo[l]) {
					t.Fatalf("%s, special share %v, index %v: lane %d makespan: go %v asm %v",
						ctx, special, idx, l, outGo[l], outAsm[l])
				}
			}
		}
	}
	for trial := 0; trial < 150; trial++ {
		w := randomWorkload(t, r, 1+r.Intn(60), 1+r.Intn(5))
		check("random workload", w, randomSchedule(t, r, w))
	}
	for _, ccr := range []float64{0.1, 1, 10} {
		p := gen.PaperParams()
		p.CCR = ccr
		w, err := gen.Random(p, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 10; k++ {
			check("paper workload", w, randomSchedule(t, r, w))
		}
	}
}

// TestMakespanBatch8AVXChecksLengths: the assembly does no bounds checks, so
// its wrapper refuses inputs whose lengths disagree, and an index naming a
// block outside dur, instead of reading past a slice.
func TestMakespanBatch8AVXChecksLengths(t *testing.T) {
	r := rng.New(311)
	w := randomWorkload(t, r, 12, 3)
	s := randomSchedule(t, r, w)
	n := w.N()
	dur := make([]float64, n*batchLanes)
	idx := func(last int32) []int32 {
		x := make([]int32, n)
		x[n-1] = last
		return x
	}
	shortDpred := *s
	shortDpred.dpred = s.dpred[:n-1]
	for _, c := range []struct {
		name string
		s    *Schedule
		idx  []int32
	}{
		{"a short dpred", &shortDpred, nil},
		{"a short index", s, make([]int32, n-1)},
		{"a negative block", s, idx(-1)},
		{"a block past dur", s, idx(int32(n))},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.s.makespanBatch8AVX(n, dur, c.idx, make([]float64, n*batchLanes), make([]float64, batchLanes))
		}()
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
// directly comparable to BenchmarkRealizeScalar. The avx sub-benchmark runs
// MakespanBatchInto, which dispatches to the assembly kernel (skipped
// without AVX); go runs makespanBatch8, the kernel of every other host.
func BenchmarkRealizeBatch(b *testing.B) {
	w, s := benchWorkloadAndSchedule(b)
	const lanes = batchLanes
	n := w.N()
	r := rng.New(11)
	dur := make([]float64, n*lanes)
	for i := range dur {
		dur[i] = w.SampleDuration(i/lanes, s.Proc(i/lanes), r)
	}
	st := make([]float64, lanes)
	finish := make([]float64, n*lanes)
	out := make([]float64, lanes)
	b.Run("avx", func(b *testing.B) {
		if !hasAVX {
			b.Skip("the CPU or OS lacks AVX")
		}
		for i := 0; i < b.N; i++ {
			s.MakespanBatchInto(lanes, dur, st, finish, out)
		}
		// One op = lanes realizations; normalize for comparability.
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/realization")
	})
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.makespanBatch8(n, dur, nil, finish, out)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/realization")
	})
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
