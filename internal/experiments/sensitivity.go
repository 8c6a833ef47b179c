package experiments

import (
	"fmt"
	"math"

	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/schedule"
	"robsched/internal/stats"
)

// SensitivityParam selects which workload knob a sensitivity sweep varies.
// The paper fixes CCR = 0.1, shape α = 1.0 and one platform; these sweeps
// answer the natural follow-up of how the robustness gains transfer.
type SensitivityParam int

const (
	// SweepCCR varies the communication-to-computation ratio.
	SweepCCR SensitivityParam = iota
	// SweepShape varies the graph shape parameter α (tall vs wide DAGs).
	SweepShape
	// SweepProcs varies the processor count.
	SweepProcs
)

func (p SensitivityParam) String() string {
	switch p {
	case SweepCCR:
		return "CCR"
	case SweepShape:
		return "shape"
	case SweepProcs:
		return "procs"
	default:
		return fmt.Sprintf("SensitivityParam(%d)", int(p))
	}
}

// Sensitivity sweeps one workload parameter at the first configured
// uncertainty level and reports, per grid value, the ε-constraint GA's
// realized R1 improvement over HEFT (ln ratio) and its makespan ratio
// M0/M_HEFT. Returned series (x = parameter value): "lnR1-improvement",
// "M0/MHEFT".
func (c Config) Sensitivity(param SensitivityParam, grid []float64, eps float64) ([]Series, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if len(grid) == 0 {
		return nil, fmt.Errorf("experiments: empty sensitivity grid")
	}
	if eps <= 0 {
		eps = 1.4
	}
	ul := c.ULs[0]
	opt := c.epsOptions(eps)
	r1Y := make([]float64, len(grid))
	m0Y := make([]float64, len(grid))
	for gi, val := range grid {
		cfg := c
		switch param {
		case SweepCCR:
			cfg.Gen.CCR = val
		case SweepShape:
			cfg.Gen.Shape = val
		case SweepProcs:
			// NaN fails every comparison; the upper bound keeps int(val)
			// defined on every platform.
			if !(val >= 1 && val <= math.MaxInt32 && val == math.Trunc(val)) {
				return nil, fmt.Errorf("experiments: processor count %g is not an integer >= 1", val)
			}
			cfg.Gen.M = int(val)
		default:
			return nil, fmt.Errorf("experiments: unknown sensitivity parameter %v", param)
		}
		if err := cfg.Gen.Validate(); err != nil {
			return nil, err
		}
		rows, err := cfg.perGraph(gi+100, ul, func(seed uint64, w *platform.Workload) ([]float64, error) {
			res, err := robust.Solve(w, opt, rng.New(seed^0x5e51))
			if err != nil {
				return nil, err
			}
			ms, err := cfg.evaluateAll([]*schedule.Schedule{res.Schedule, res.HEFT}, cfg.simOptions(), rng.New(seed^0x5e52))
			if err != nil {
				return nil, err
			}
			return []float64{stats.LogRatio(ms[0].R1, ms[1].R1), res.Schedule.Makespan() / res.MHEFT}, nil
		})
		if err != nil {
			return nil, err
		}
		// M0/MHEFT is never NaN, so meanFinite averages it as stats.Mean does.
		m := columnMeans(rows, meanFinite)
		r1Y[gi], m0Y[gi] = m[0], m[1]
	}
	x := append([]float64(nil), grid...)
	return []Series{
		{Name: "lnR1-improvement", X: x, Y: r1Y},
		{Name: "M0/MHEFT", X: x, Y: m0Y},
	}, nil
}
