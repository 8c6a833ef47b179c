package experiments

// Correlated-uncertainty experiment: how much of slack-based robustness
// survives when the paper's independence assumption is dropped? For every
// graph, a HEFT baseline and the slack-optimizing ε-constraint GA schedule
// are evaluated twice per load level under equal marginal variance — once
// with independent per-entry load factors (CorrIndep) and once with a
// shared per-processor factor (CorrShared). The marginals of every duration
// are identical across the pair by construction (internal/sim), so any gap
// is purely the cross-task correlation the paper's model cannot express.
//
// The expected headline: under independence, per-task noise averages out
// across a schedule's many tasks and the planned slack absorbs what is
// left; a shared processor factor cannot be averaged away, so tardiness and
// miss rates degrade sharply while the same schedule on the same marginals
// looked robust under the independence assumption.

import (
	"fmt"
	"strings"

	"robsched/internal/heft"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/schedule"
	"robsched/internal/sim"
	"robsched/internal/stats"
)

// CorrGapConfig parameterizes the correlation-gap experiment.
type CorrGapConfig struct {
	// LoadCOVs is the shared-load coefficient-of-variation grid; empty
	// defaults to {0.15, 0.3, 0.45, 0.6}.
	LoadCOVs []float64
}

// DefaultCorrGapConfig returns the default load grid.
func DefaultCorrGapConfig() CorrGapConfig {
	return CorrGapConfig{LoadCOVs: []float64{0.15, 0.3, 0.45, 0.6}}
}

// CorrGapRow aggregates one load level across all graphs. Tardiness is the
// paper's mean relative tardiness E[max(0, M−M0)/M0] (R1's reciprocal,
// reported directly so rows stay finite when nothing is tardy), Miss the
// M0 miss rate, and P95 the 95th-percentile makespan normalized by M0.
type CorrGapRow struct {
	LoadCOV float64

	GaTardIndep, GaTardShared float64
	GaMissIndep, GaMissShared float64
	GaP95Indep, GaP95Shared   float64

	HeftTardIndep, HeftTardShared float64
	HeftP95Indep, HeftP95Shared   float64
}

// CorrGapResult is the experiment outcome.
type CorrGapResult struct {
	Rows   []CorrGapRow
	Graphs int
	// Family names the workload family the rows were generated from.
	Family string
}

// String renders the result as an aligned text table.
func (r *CorrGapResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Correlated vs independent load at equal marginal variance (%d graphs, family %s)\n",
		r.Graphs, r.Family)
	fmt.Fprintf(&b, "%-8s %11s %11s %11s %11s %10s %10s %10s %10s\n",
		"loadCOV", "gaTardInd", "gaTardShr", "gaMissInd", "gaMissShr", "gaP95Ind", "gaP95Shr", "heftP95Ind", "heftP95Shr")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8.2f %11.4f %11.4f %11.4f %11.4f %10.4f %10.4f %10.4f %10.4f\n",
			row.LoadCOV, row.GaTardIndep, row.GaTardShared, row.GaMissIndep, row.GaMissShared,
			row.GaP95Indep, row.GaP95Shared, row.HeftP95Indep, row.HeftP95Shared)
	}
	return b.String()
}

// Series returns the result as plottable curves (mean relative tardiness of
// each schedule under each dependence structure, versus load COV).
func (r *CorrGapResult) Series() []Series {
	x := make([]float64, len(r.Rows))
	curves := map[string][]float64{
		"GA indep": nil, "GA shared": nil, "HEFT indep": nil, "HEFT shared": nil,
	}
	for i, row := range r.Rows {
		x[i] = row.LoadCOV
		curves["GA indep"] = append(curves["GA indep"], row.GaTardIndep)
		curves["GA shared"] = append(curves["GA shared"], row.GaTardShared)
		curves["HEFT indep"] = append(curves["HEFT indep"], row.HeftTardIndep)
		curves["HEFT shared"] = append(curves["HEFT shared"], row.HeftTardShared)
	}
	return []Series{
		{Name: "GA indep", X: x, Y: curves["GA indep"]},
		{Name: "GA shared", X: x, Y: curves["GA shared"]},
		{Name: "HEFT indep", X: x, Y: curves["HEFT indep"]},
		{Name: "HEFT shared", X: x, Y: curves["HEFT shared"]},
	}
}

// CorrelationGap runs the experiment. The GA solves once per graph (the
// schedule is fixed before the evaluation regime varies, like a planner
// that believes the independence assumption); each load level then
// evaluates the same schedules under both dependence structures with the
// same evaluation seed. The workload family follows Config.Scenario, so
// the gap can be measured on workflow shapes as well as random layers; the
// duration model is forced to the uniform marginals both correlation modes
// share.
func (c Config) CorrelationGap(gc CorrGapConfig) (*CorrGapResult, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	covs := gc.LoadCOVs
	if len(covs) == 0 {
		covs = DefaultCorrGapConfig().LoadCOVs
	}
	for _, cov := range covs {
		if !(cov > 0) {
			return nil, fmt.Errorf("experiments: LoadCOV=%g must be > 0", cov)
		}
	}
	gaOpt := c.epsOptions(slackEps)
	// Per graph, ten columns per load level: for each of CorrIndep and
	// CorrShared, the GA's tardiness, miss rate and P95/M0, then HEFT's
	// tardiness and P95/M0.
	rows, err := c.perGraph(0, c.midUL(), func(seed uint64, w *platform.Workload) ([]float64, error) {
		hs, err := heft.HEFT(w, heft.Options{})
		if err != nil {
			return nil, err
		}
		ga, err := robust.Solve(w, gaOpt, rng.New(seed^0xc0a))
		if err != nil {
			return nil, err
		}
		ss := []*schedule.Schedule{hs, ga.Schedule}
		var row []float64
		for ci, cov := range covs {
			for _, mode := range []sim.Correlation{sim.CorrIndep, sim.CorrShared} {
				opt := c.simOptions()
				opt.Model = sim.ModelUniform // both regimes share uniform marginals
				opt.Corr = mode
				opt.LoadCOV = cov
				// One seed per (graph, cov): the indep/shared pair shares
				// the realization seed vector, isolating the dependence
				// structure as the only difference.
				ms, err := c.evaluateAll(ss, opt, rng.New(seed^(0xc0b+uint64(ci))))
				if err != nil {
					return nil, err
				}
				row = append(row, ms[1].MeanTardiness, ms[1].MissRate, ms[1].P95/ms[1].M0,
					ms[0].MeanTardiness, ms[0].P95/ms[0].M0)
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}

	family := "random"
	if c.Scenario != nil {
		family = c.Scenario.Family
	}
	res := &CorrGapResult{Graphs: c.Graphs, Family: family}
	m := columnMeans(rows, stats.Mean)
	for ci, cov := range covs {
		ind, shr := m[10*ci:], m[10*ci+5:]
		res.Rows = append(res.Rows, CorrGapRow{
			LoadCOV:     cov,
			GaTardIndep: ind[0], GaTardShared: shr[0],
			GaMissIndep: ind[1], GaMissShared: shr[1],
			GaP95Indep: ind[2], GaP95Shared: shr[2],
			HeftTardIndep: ind[3], HeftTardShared: shr[3],
			HeftP95Indep: ind[4], HeftP95Shared: shr[4],
		})
	}
	return res, nil
}
