package robust

import (
	"testing"

	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// TestEvaluateParallelMatchesSerial: for every mode, the parallel decode
// path must produce bit-identical fitness vectors to the serial one.
func TestEvaluateParallelMatchesSerial(t *testing.T) {
	modes := []Mode{EpsilonConstraint, MinMakespan, MaxSlack}
	for _, mode := range modes {
		for _, shape := range []struct{ n, m int }{{12, 2}, {40, 4}, {80, 8}} {
			w := testWorkload(t, 7, shape.n, shape.m)
			mheft := 100.0
			serial := &evaluator{w: w, opt: Options{Mode: mode, Eps: 1.3, Workers: 1}, mheft: mheft, dec: schedule.NewDecoder(w)}
			par := &evaluator{w: w, opt: Options{Mode: mode, Eps: 1.3, Workers: 0}, mheft: mheft, dec: schedule.NewDecoder(w)}

			// Two identical undecoded populations (Evaluate memoizes decode
			// state on the chromosomes, so each evaluator needs its own
			// copies), each with an aliased pointer like the engine produces.
			r := rng.New(99)
			popA := make([]*Chromosome, 0, 21)
			popB := make([]*Chromosome, 0, 21)
			for i := 0; i < 20; i++ {
				c := Random(w, r)
				popA = append(popA, c.Clone())
				popB = append(popB, c.Clone())
			}
			popA = append(popA, popA[3])
			popB = append(popB, popB[3])

			fs := serial.evaluate(popA)
			fp := par.evaluate(popB)
			for i := range fs {
				if fs[i] != fp[i] {
					t.Fatalf("mode %v n=%d: fitness[%d] parallel %v != serial %v",
						mode, shape.n, i, fp[i], fs[i])
				}
			}
		}
	}
}

// TestSolveParallelDeterminism: a full Solve run must be bit-identical
// regardless of the worker count — same best schedule, same generation
// count, same per-generation best-makespan trace.
func TestSolveParallelDeterminism(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		for _, shape := range []struct{ n, m int }{{25, 3}, {50, 5}} {
			w := testWorkload(t, seed, shape.n, shape.m)
			run := func(workers int) (*Result, []float64) {
				var trace []float64
				opt := PaperOptions(EpsilonConstraint, 1.4)
				opt.MaxGenerations = 40
				opt.Stagnation = 0
				opt.Workers = workers
				opt.OnGeneration = func(gen int, best *schedule.Schedule) {
					trace = append(trace, best.Makespan(), best.AvgSlack())
				}
				res, err := Solve(w, opt, rng.New(seed*1000+uint64(shape.n)))
				if err != nil {
					t.Fatal(err)
				}
				return res, trace
			}
			r1, t1 := run(1)
			rp, tp := run(0)
			if r1.Schedule.Makespan() != rp.Schedule.Makespan() ||
				r1.Schedule.AvgSlack() != rp.Schedule.AvgSlack() ||
				r1.Generations != rp.Generations {
				t.Fatalf("seed %d n=%d: parallel result differs from serial", seed, shape.n)
			}
			o1, op := r1.Schedule.Order(), rp.Schedule.Order()
			p1, pp := r1.Schedule.ProcAssignment(), rp.Schedule.ProcAssignment()
			for v := 0; v < shape.n; v++ {
				if o1[v] != op[v] || p1[v] != pp[v] {
					t.Fatalf("seed %d n=%d: best genotype differs at task %d", seed, shape.n, v)
				}
			}
			if len(t1) != len(tp) {
				t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(tp))
			}
			for i := range t1 {
				if t1[i] != tp[i] {
					t.Fatalf("seed %d n=%d: generation trace differs at %d", seed, shape.n, i)
				}
			}
		}
	}
}

func BenchmarkEvaluatePopulation(b *testing.B) {
	w := testWorkload(b, 5, 100, 8)
	for _, bench := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bench.name, func(b *testing.B) {
			eval := &evaluator{
				w:     w,
				opt:   Options{Mode: EpsilonConstraint, Eps: 1.4, Workers: bench.workers},
				mheft: 100,
				dec:   schedule.NewDecoder(w),
			}
			r := rng.New(1)
			template := make([]*Chromosome, 20)
			for i := range template {
				template[i] = Random(w, r)
			}
			pop := make([]*Chromosome, len(template))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j, c := range template {
					pop[j] = c.Clone() // undecoded copies each round
				}
				b.StartTimer()
				eval.evaluate(pop)
			}
		})
	}
}
