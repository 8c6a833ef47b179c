package robsched_test

// One benchmark per figure of the paper's evaluation, plus ablation
// benches for the design choices called out in DESIGN.md. Each figure
// bench runs the corresponding experiment end to end at a reduced scale —
// `go test -bench Fig -benchmem` regenerates every figure's pipeline; the
// full-scale tables come from `go run ./cmd/experiments`.

import (
	"fmt"
	"io"
	"testing"

	"robsched"
	"robsched/internal/obs"
)

// benchConfig is the reduced scale used by the figure benchmarks.
func benchConfig() robsched.ExperimentConfig {
	cfg := robsched.DefaultExperimentConfig()
	cfg.Gen.N = 30
	cfg.Gen.M = 4
	cfg.Graphs = 2
	cfg.Realizations = 100
	cfg.ULs = []float64{2, 8}
	cfg.Eps = []float64{1.0, 1.5, 2.0}
	cfg.GA.PopSize = 10
	cfg.GA.MaxGenerations = 30
	cfg.GA.Stagnation = 0
	cfg.TraceEvery = 10
	return cfg
}

func benchWorkload(b *testing.B, n, m int, ul float64) *robsched.Workload {
	b.Helper()
	p := robsched.PaperWorkloadParams()
	p.N, p.M, p.MeanUL = n, m, ul
	w, err := robsched.GenerateWorkload(p, robsched.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkFig2MinMakespanTrace regenerates Fig. 2: the evolution of
// makespan, slack and R1 when a GA minimizes the makespan.
func BenchmarkFig2MinMakespanTrace(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.EvolutionTrace(robsched.MinMakespan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3MaxSlackTrace regenerates Fig. 3: the same trajectories when
// the GA maximizes slack.
func BenchmarkFig3MaxSlackTrace(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.EvolutionTrace(robsched.MaxSlack); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4SweepAndImprovement regenerates Fig. 4: the UL×ε sweep plus
// the improvement-over-HEFT table at ε = 1.0.
func BenchmarkFig4SweepAndImprovement(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		sw, err := cfg.RunSweep()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sw.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepForFigs is shared by the Fig. 5–8 benchmarks, which post-process the
// same sweep exactly as the paper reuses one set of runs.
func sweepForFigs(b *testing.B) *robsched.Sweep {
	b.Helper()
	cfg := benchConfig()
	sw, err := cfg.RunSweep()
	if err != nil {
		b.Fatal(err)
	}
	return sw
}

// BenchmarkFig5R1EpsImprovement regenerates Fig. 5 from a prepared sweep.
func BenchmarkFig5R1EpsImprovement(b *testing.B) {
	sw := sweepForFigs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.FigEpsImprovement(robsched.MetricR1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6R2EpsImprovement regenerates Fig. 6 from a prepared sweep.
func BenchmarkFig6R2EpsImprovement(b *testing.B) {
	sw := sweepForFigs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.FigEpsImprovement(robsched.MetricR2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7BestEpsR1 regenerates Fig. 7 from a prepared sweep.
func BenchmarkFig7BestEpsR1(b *testing.B) {
	sw := sweepForFigs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.FigBestEps(robsched.MetricR1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8BestEpsR2 regenerates Fig. 8 from a prepared sweep.
func BenchmarkFig8BestEpsR2(b *testing.B) {
	sw := sweepForFigs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.FigBestEps(robsched.MetricR2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveEpsilonConstraint times one full GA run at the paper's
// problem size (100 tasks, 8 processors) with a shortened horizon.
func BenchmarkSolveEpsilonConstraint(b *testing.B) {
	w := benchWorkload(b, 100, 8, 4)
	opt := robsched.PaperSolveOptions(robsched.EpsilonConstraint, 1.4)
	opt.MaxGenerations = 50
	opt.Stagnation = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := robsched.Solve(w, opt, robsched.NewRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloPaperScale times the paper's 1000-realization
// evaluation of one 100-task schedule.
func BenchmarkMonteCarloPaperScale(b *testing.B) {
	w := benchWorkload(b, 100, 8, 4)
	s, err := robsched.HEFT(w)
	if err != nil {
		b.Fatal(err)
	}
	opt := robsched.PaperSimOptions()
	r := robsched.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := robsched.Evaluate(s, opt, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHEFTSeed compares GA convergence machinery with and
// without the HEFT seed chromosome (DESIGN.md ablation).
func BenchmarkAblationHEFTSeed(b *testing.B) {
	w := benchWorkload(b, 50, 4, 4)
	for _, seeded := range []bool{true, false} {
		name := "seeded"
		if !seeded {
			name = "unseeded"
		}
		b.Run(name, func(b *testing.B) {
			opt := robsched.PaperSolveOptions(robsched.EpsilonConstraint, 1.4)
			opt.MaxGenerations = 40
			opt.Stagnation = 0
			opt.NoHEFTSeed = !seeded
			for i := 0; i < b.N; i++ {
				if _, err := robsched.Solve(w, opt, robsched.NewRNG(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationInsertionPolicy compares HEFT's insertion-based slot
// search against the append-only policy (DESIGN.md ablation).
func BenchmarkAblationInsertionPolicy(b *testing.B) {
	w := benchWorkload(b, 100, 8, 2)
	b.Run("insertion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := robsched.HEFT(w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := robsched.HEFTNoInsertion(w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationRiskFactor sweeps the variance-aware HEFT's risk factor
// (the paper's future-work dial) and reports the realized tardiness next
// to the timing — run with -v to see the printed effect.
func BenchmarkAblationRiskFactor(b *testing.B) {
	w := benchWorkload(b, 60, 4, 6)
	for _, k := range []float64{0, 1, 2} {
		b.Run(fmt.Sprintf("k=%g", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := robsched.RiskHEFT(w, k)
				if err != nil {
					b.Fatal(err)
				}
				m, err := robsched.Evaluate(s, robsched.SimOptions{Realizations: 200}, robsched.NewRNG(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.MeanTardiness, "tardiness")
			}
		})
	}
}

// BenchmarkNSGA2Front times the NSGA-II front solver at a moderate size.
func BenchmarkNSGA2Front(b *testing.B) {
	w := benchWorkload(b, 50, 4, 4)
	opt := robsched.PaperParetoOptions()
	opt.MaxGenerations = 40
	for i := 0; i < b.N; i++ {
		if _, err := robsched.SolvePareto(w, opt, robsched.NewRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicDispatch times the online dispatcher's Monte-Carlo
// evaluation at the paper's problem size.
func BenchmarkDynamicDispatch(b *testing.B) {
	w := benchWorkload(b, 100, 8, 4)
	for i := 0; i < b.N; i++ {
		if _, err := robsched.EvaluateDynamic(w, robsched.SimOptions{Realizations: 200}, robsched.NewRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1WorkedExample regenerates the Fig. 1 walkthrough (graph,
// schedule, Gantt, disjunctive graph) — cheap, exercised mostly for the
// per-figure completeness of this harness.
func BenchmarkFig1WorkedExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := robsched.Fig1WorkedExample(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIslandGA compares single-population vs 4-island runs of the
// ε-constraint GA at a fixed total generation budget.
func BenchmarkIslandGA(b *testing.B) {
	w := benchWorkload(b, 60, 4, 4)
	for _, islands := range []int{1, 4} {
		b.Run(fmt.Sprintf("islands=%d", islands), func(b *testing.B) {
			opt := robsched.PaperSolveOptions(robsched.EpsilonConstraint, 1.4)
			opt.MaxGenerations = 60
			opt.Stagnation = 0
			opt.Islands = islands
			opt.MigrationEvery = 15
			for i := 0; i < b.N; i++ {
				res, err := robsched.Solve(w, opt, robsched.NewRNG(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Schedule.AvgSlack(), "slack")
			}
		})
	}
}

// BenchmarkListSchedulers times every deterministic scheduler at the
// paper's problem size.
func BenchmarkListSchedulers(b *testing.B) {
	w := benchWorkload(b, 100, 8, 4)
	for _, sc := range []struct {
		name string
		run  func() (*robsched.Schedule, error)
	}{
		{"heft", func() (*robsched.Schedule, error) { return robsched.HEFT(w) }},
		{"cpop", func() (*robsched.Schedule, error) { return robsched.CPOP(w) }},
		{"peft", func() (*robsched.Schedule, error) { return robsched.PEFT(w) }},
		{"minmin", func() (*robsched.Schedule, error) { return robsched.BatchSchedule(w, robsched.MinMin) }},
		{"maxmin", func() (*robsched.Schedule, error) { return robsched.BatchSchedule(w, robsched.MaxMin) }},
		{"risk-heft", func() (*robsched.Schedule, error) { return robsched.RiskHEFT(w, 1) }},
	} {
		b.Run(sc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSlackMetric compares the paper's average-slack surrogate
// against the min-slack extension (DESIGN.md ablation).
func BenchmarkAblationSlackMetric(b *testing.B) {
	w := benchWorkload(b, 50, 4, 4)
	for _, metric := range []struct {
		name string
		m    robsched.SlackMetric
	}{{"avg", robsched.AvgSlackMetric}, {"min", robsched.MinSlackMetric}} {
		b.Run(metric.name, func(b *testing.B) {
			opt := robsched.PaperSolveOptions(robsched.EpsilonConstraint, 1.4)
			opt.MaxGenerations = 40
			opt.Stagnation = 0
			opt.SlackMetric = metric.m
			for i := 0; i < b.N; i++ {
				if _, err := robsched.Solve(w, opt, robsched.NewRNG(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolvePaper times the full paper-scale ε-constraint solve (100
// tasks, 8 processors, Np=20, the full 1000-generation horizon with the
// stagnation window disabled so every run does identical work). This is the
// headline number of the BENCH_ga.json lane; the nocache variant isolates
// what the genotype→metrics cache is worth on top of the engine arenas —
// both produce bit-identical results. A single-population solve runs on
// one goroutine.
func BenchmarkSolvePaper(b *testing.B) {
	w := benchWorkload(b, 100, 8, 4)
	run := func(b *testing.B, noCache bool) {
		opt := robsched.PaperSolveOptions(robsched.EpsilonConstraint, 1.4)
		opt.MaxGenerations = 1000
		opt.Stagnation = 0
		opt.NoMetricsCache = noCache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := robsched.Solve(w, opt, robsched.NewRNG(7)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cache", func(b *testing.B) { run(b, false) })
	b.Run("nocache", func(b *testing.B) { run(b, true) })
}

// BenchmarkSolveObs measures the end-to-end observability overhead on a
// reduced solve (100 generations): "off" is the plain run — its ns/op and
// allocs/op must stay within noise of a build without the obs package at
// all — and "on" attaches the registry plus a JSONL tracer writing to
// io.Discard. Tracked in BENCH_obs.json via bench.sh.
func BenchmarkSolveObs(b *testing.B) {
	w := benchWorkload(b, 100, 8, 4)
	run := func(b *testing.B, instrument bool) {
		opt := robsched.PaperSolveOptions(robsched.EpsilonConstraint, 1.4)
		opt.MaxGenerations = 100
		opt.Stagnation = 0
		if instrument {
			opt.Obs = obs.NewRegistry()
			opt.Trace = obs.NewTracer(io.Discard, 64)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := robsched.Solve(w, opt, robsched.NewRNG(7)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}
