package experiments

import (
	"fmt"

	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/schedule"
	"robsched/internal/stats"
)

// Trace is the result of a Fig. 2 / Fig. 3 experiment: for each uncertainty
// level, the natural-log ratio (relative to generation 0) of the realized
// mean makespan, the average slack, and the robustness R1 of the best
// schedule, sampled along the GA's evolution.
type Trace struct {
	Mode  robust.Mode
	Steps []int // sampled generation indices (0 ... MaxGenerations)
	// Per uncertainty level, aligned with Steps: mean over graphs of
	// ln(metric(step)/metric(0)).
	ULs      []float64
	Makespan [][]float64
	Slack    [][]float64
	R1       [][]float64
}

// EvolutionTrace reproduces Fig. 2 (mode robust.MinMakespan) and Fig. 3
// (mode robust.MaxSlack): single-objective GAs are traced along their
// evolution and the best schedule of each sampled generation is evaluated
// in the simulated "real" environment.
func (c Config) EvolutionTrace(mode robust.Mode) (*Trace, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if mode != robust.MinMakespan && mode != robust.MaxSlack {
		return nil, fmt.Errorf("experiments: EvolutionTrace needs a single-objective mode, got %v", mode)
	}
	opt := c.gaOptions()
	opt.Mode = mode
	opt.Stagnation = 0 // traces need the full horizon
	// The paper's Fig. 2/3 trajectories span large log-ratios, which
	// requires the single-objective GAs to start from a fully random
	// population: with a HEFT seed, generation 0 is already near-optimal
	// and the evolution effect is invisible.
	opt.NoHEFTSeed = true
	steps := sampleSteps(opt.MaxGenerations, c.TraceEvery)
	n := len(steps)
	tr := &Trace{Mode: mode, Steps: steps, ULs: c.ULs}
	for u, ul := range c.ULs {
		// Per graph: the makespan, slack and R1 log-ratios at every
		// sampled step, in three blocks of n.
		rows, err := c.perGraph(u, ul, func(seed uint64, w *platform.Workload) ([]float64, error) {
			// Decode the best schedule at each sampled generation only.
			snapshots := make([]*schedule.Schedule, n)
			next := 0
			var decodeErr error
			run := opt
			run.OnGeneration = func(gen int, best *robust.Chromosome) {
				if next < n && gen == steps[next] && decodeErr == nil {
					snapshots[next], decodeErr = best.Decode(w)
					next++
				}
			}
			if _, err := robust.Solve(w, run, rng.New(seed^0xabcdef12345)); err != nil {
				return nil, err
			}
			if decodeErr != nil {
				return nil, decodeErr
			}
			// Evaluate every snapshot under common random numbers.
			ms, err := c.evaluateAll(snapshots, c.simOptions(), rng.New(seed^0x5555))
			if err != nil {
				return nil, err
			}
			row := make([]float64, 3*n)
			for i := range steps {
				row[i] = stats.LogRatio(ms[i].MeanMakespan, ms[0].MeanMakespan)
				row[n+i] = stats.LogRatio(snapshots[i].AvgSlack(), snapshots[0].AvgSlack())
				row[2*n+i] = stats.LogRatio(ms[i].R1, ms[0].R1)
			}
			return row, nil
		})
		if err != nil {
			return nil, err
		}
		m := columnMeans(rows, meanFinite)
		tr.Makespan = append(tr.Makespan, m[:n:n])
		tr.Slack = append(tr.Slack, m[n:2*n:2*n])
		tr.R1 = append(tr.R1, m[2*n:])
	}
	return tr, nil
}

// sampleSteps returns {0, every, 2·every, ..., maxGen} with maxGen always
// included.
func sampleSteps(maxGen, every int) []int {
	var steps []int
	for s := 0; s < maxGen; s += every {
		steps = append(steps, s)
	}
	return append(steps, maxGen)
}

// Series flattens the trace into named curves, three per uncertainty level,
// matching the legend of the paper's figures.
func (t *Trace) Series() []Series {
	x := make([]float64, len(t.Steps))
	for i, s := range t.Steps {
		x[i] = float64(s)
	}
	var out []Series
	for u, ul := range t.ULs {
		out = append(out,
			Series{Name: fmtUL(ul) + ",Makespan", X: x, Y: t.Makespan[u]},
			Series{Name: fmtUL(ul) + ",Slack", X: x, Y: t.Slack[u]},
			Series{Name: fmtUL(ul) + ",R1", X: x, Y: t.R1[u]},
		)
	}
	return out
}
