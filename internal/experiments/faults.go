package experiments

// Fault-resilience experiment: does the paper's slack-based robustness —
// engineered against duration noise — also buy resilience against
// processor failures? For every graph, three schedulers of increasing
// slack (HEFT, simulated annealing, the ε-constraint GA) are evaluated
// twice under common random numbers: once with duration noise only and
// once with fault injection on top, and the per-schedule slack is
// correlated with the fault-induced makespan inflation.

import (
	"fmt"
	"strings"

	"robsched/internal/fault"
	"robsched/internal/heft"
	"robsched/internal/platform"
	"robsched/internal/repair"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/schedule"
	"robsched/internal/stats"
)

// FaultConfig parameterizes the fault-resilience experiment on top of the
// shared experiment Config.
type FaultConfig struct {
	// MTBFFactor scales the per-processor mean time between failures in
	// multiples of the HEFT makespan of each instance (2 means a processor
	// fails on average once per two baseline makespans).
	MTBFFactor float64
	// Policy is the fault-aware execution policy (retry/migration/drop).
	Policy repair.FaultPolicy
}

// slackEps relaxes the makespan constraint M0 ≤ ε·M_HEFT of the SA and GA
// schedulers in the fault and correlation-gap experiments. At ε = 1.0 there
// is no makespan budget to buy slack with and all three schedulers
// collapse onto near-HEFT schedules, which makes the correlation vacuous.
const slackEps = 1.4

// midUL is the mean uncertainty level the fault and correlation-gap
// experiments generate their workloads at: the middle of the UL grid.
func (c Config) midUL() float64 { return c.ULs[len(c.ULs)/2] }

// DefaultFaultConfig pairs a 2·M0 MTBF with two migrating retries — enough
// failures to differentiate schedules without overwhelming them.
func DefaultFaultConfig() FaultConfig {
	return FaultConfig{MTBFFactor: 2, Policy: repair.DefaultFaultPolicy()}
}

// FaultResilienceRow aggregates one scheduler across all graphs.
type FaultResilienceRow struct {
	Scheduler string
	// NormSlack is the schedule's average slack divided by its own
	// makespan (the paper's robustness surrogate, scale-free).
	NormSlack float64
	// NoFaultMean and FaultMean are mean makespans relative to the HEFT
	// baseline M0 of each instance; Inflation is their ratio — how much
	// the faults alone cost.
	NoFaultMean float64
	FaultMean   float64
	Inflation   float64
	// Completion, Retries, Migrations and Drops are per-realization means
	// under faults.
	Completion float64
	Retries    float64
	Migrations float64
	Drops      float64
}

// FaultResilienceResult is the experiment outcome.
type FaultResilienceResult struct {
	Rows []FaultResilienceRow
	// SlackCorr is the Pearson correlation between normalized slack and
	// fault inflation across every (graph, scheduler) point: negative
	// means slack buys fault resilience too.
	SlackCorr float64
	Graphs    int
	Points    int
}

// String renders the result as an aligned text table.
func (r *FaultResilienceResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Slack vs fault resilience (%d graphs, %d points)\n", r.Graphs, r.Points)
	fmt.Fprintf(&b, "%-10s %10s %12s %12s %10s %8s %8s %8s %8s\n",
		"scheduler", "slack/M0", "nofault/MH", "fault/MH", "inflation", "compl", "retries", "migr", "drops")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %10.4f %12.4f %12.4f %10.4f %8.4f %8.3f %8.3f %8.3f\n",
			row.Scheduler, row.NormSlack, row.NoFaultMean, row.FaultMean, row.Inflation,
			row.Completion, row.Retries, row.Migrations, row.Drops)
	}
	fmt.Fprintf(&b, "Pearson(slack/M0, inflation) = %+.4f\n", r.SlackCorr)
	return b.String()
}

// FaultResilience runs the experiment. Schedules per graph: HEFT, SA and
// the ε-constraint GA at a comparable search budget; both evaluations of a
// graph share the instance, the duration seed and the fault-scenario
// stream (common random numbers), so differences are attributable to the
// schedules alone.
func (c Config) FaultResilience(fc FaultConfig) (*FaultResilienceResult, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if fc.MTBFFactor <= 0 {
		return nil, fmt.Errorf("experiments: MTBFFactor=%g must be > 0", fc.MTBFFactor)
	}
	if err := fc.Policy.Validate(); err != nil {
		return nil, err
	}
	gaOpt := c.epsOptions(slackEps)
	saOpt := robust.PaperishAnnealOptions(slackEps)
	saOpt.Steps = gaOpt.PopSize * gaOpt.MaxGenerations // comparable budget

	names := []string{"heft", "anneal", "ga"}
	// Per graph, for each scheduler in names: the eight fields of its
	// FaultResilienceRow, in their order.
	rows, err := c.perGraph(0, c.midUL(), func(seed uint64, w *platform.Workload) ([]float64, error) {
		hs, err := heft.HEFT(w, heft.Options{})
		if err != nil {
			return nil, err
		}
		sa, err := robust.SolveAnneal(w, saOpt, rng.New(seed^0xfa1))
		if err != nil {
			return nil, err
		}
		ga, err := robust.Solve(w, gaOpt, rng.New(seed^0xfa2))
		if err != nil {
			return nil, err
		}
		ss := []*schedule.Schedule{hs, sa.Schedule, ga.Schedule}
		opt := c.simOptions()
		noFault, err := c.evaluateAll(ss, opt, rng.New(seed^0xfa3))
		if err != nil {
			return nil, err
		}
		// Fault lane: every schedule of this graph sees the same duration
		// and scenario streams (same seed), model and horizon.
		m0 := hs.Makespan()
		mo := fault.Model{MTBF: fc.MTBFFactor * m0, KeepOne: true}
		horizon := 4 * m0
		pol := fc.Policy
		pol.Obs, pol.Trace = c.Obs, c.Trace
		var row []float64
		for i, s := range ss {
			fm, err := repair.EvaluateFaults(s, pol, mo, horizon, opt, rng.New(seed^0xfa4))
			if err != nil {
				return nil, err
			}
			row = append(row,
				s.AvgSlack()/s.Makespan(),
				noFault[i].MeanMakespan/m0,
				fm.MeanMakespan/m0,
				fm.MeanMakespan/noFault[i].MeanMakespan,
				fm.MeanCompletion,
				fm.MeanRetries,
				fm.MeanMigrations,
				fm.MeanDropped)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}

	res := &FaultResilienceResult{Graphs: c.Graphs}
	m := columnMeans(rows, stats.Mean)
	var slacks, inflations []float64
	for i, name := range names {
		p := m[8*i:]
		res.Rows = append(res.Rows, FaultResilienceRow{
			Scheduler:   name,
			NormSlack:   p[0],
			NoFaultMean: p[1],
			FaultMean:   p[2],
			Inflation:   p[3],
			Completion:  p[4],
			Retries:     p[5],
			Migrations:  p[6],
			Drops:       p[7],
		})
		slacks = append(slacks, column(rows, 8*i)...)
		inflations = append(inflations, column(rows, 8*i+3)...)
	}
	res.Points = len(slacks)
	res.SlackCorr = stats.Pearson(slacks, inflations)
	return res, nil
}
