// Package repair executes a static schedule against realized task
// durations under runtime repair policies, the reactive middle ground
// between the paper's pure static robustness and full online scheduling
// (cf. the related work of Leon et al., who study rescheduling after
// disruptions, and Moukrim et al.'s partially on-line algorithms):
//
//   - right-shift (the base policy, threshold = +Inf): the assignment and
//     processor orders are kept and every task simply starts as soon as it
//     is ready — exactly the paper's realization semantics (Claim 3.2);
//   - reactive rescheduling: execution follows the current plan until some
//     task finishes more than threshold·M0 later than planned, at which
//     point every not-yet-started task is re-planned with an
//     earliest-finish-time pass using expected durations, the observed
//     completions and current processor availability.
//
// The simulator is event-driven and chronologically consistent: the next
// task to start is always the plan-eligible task with the earliest
// feasible start time. One simplification: tasks already *running* at a
// re-plan instant keep their processor (correct — they cannot migrate) and
// the re-planner uses their realized finish times rather than re-estimating
// the remaining work of an in-flight task; this only sharpens the ready
// times the re-planner sees and does not let it change any decision it
// could not have made.
package repair

import (
	"fmt"
	"math"
	"sort"

	"robsched/internal/fault"
	"robsched/internal/heft"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
	"robsched/internal/sim"
)

// PolicyError reports an invalid policy field. It is the typed error
// returned by every policy validation path of this package.
type PolicyError struct {
	Field  string
	Reason string
}

func (e *PolicyError) Error() string {
	return fmt.Sprintf("repair: %s: %s", e.Field, e.Reason)
}

// Policy selects the repair behaviour.
type Policy struct {
	// Threshold is the relative delay (fraction of the plan's M0) of a
	// task's actual finish beyond its planned finish that triggers a
	// re-plan of all unstarted tasks. +Inf (or 0 value via NeverReschedule)
	// never triggers, giving pure right-shift execution.
	Threshold float64
}

// NeverReschedule is the pure right-shift policy.
func NeverReschedule() Policy { return Policy{Threshold: math.Inf(1)} }

// Outcome is one simulated execution under a repair policy.
type Outcome struct {
	Makespan    float64
	Reschedules int
	Proc        []int
	Start       []float64
	Finish      []float64
}

// Execute plays the realized duration matrix against the schedule under
// the policy. durs.At(i, p) is the duration task i would actually take on
// processor p (only the assigned processor's entry is consumed unless a
// re-plan moves the task). It is ExecuteFaults under the empty scenario.
func Execute(s *schedule.Schedule, durs platform.Matrix, pol Policy) (Outcome, error) {
	return execute(s, durs, pol, nil)
}

// execute is Execute given the upward ranks (see executeFaults).
func execute(s *schedule.Schedule, durs platform.Matrix, pol Policy, ranks []float64) (Outcome, error) {
	o, err := executeFaults(s, durs, fault.None(), FaultPolicy{Policy: pol}, ranks)
	if err == nil && o.Failed {
		// With no faults a task is left behind only by an infinite finish
		// time upstream, which no plan absorbs.
		return Outcome{}, fmt.Errorf("repair: execution stalled with %d tasks left (plan inconsistency)", len(o.Unfinished))
	}
	return o.Outcome, err
}

// replanWith is the re-planner behind the reactive-reschedule policy and
// fault retries: it rebuilds the queues and planned finishes of every
// task neither completed nor skipped (dropped or abandoned) with an
// earliest-finish-time pass over expected durations, seeded with the
// observed completions and processor availability. alive masks the
// processors eligible for new work, at least one of which must be alive,
// and notBefore holds per-task earliest-start bounds (a killed task's kill
// time).
func replanWith(w *platform.Workload, ranks []float64, completed, skip, alive []bool,
	notBefore []float64, out Outcome, procFree []float64, queues [][]int, planned []float64) {
	n, m := w.N(), w.M()
	var remaining []int
	for v := 0; v < n; v++ {
		if !completed[v] && !skip[v] {
			remaining = append(remaining, v)
		}
	}
	// Decreasing upward rank is a topological order of the remaining
	// sub-DAG (ranks strictly decrease along edges).
	sort.SliceStable(remaining, func(a, b int) bool {
		if ranks[remaining[a]] != ranks[remaining[b]] {
			return ranks[remaining[a]] > ranks[remaining[b]]
		}
		return remaining[a] < remaining[b]
	})
	estFree := append([]float64(nil), procFree...)
	estFinish := make([]float64, n)
	estProc := make([]int, n)
	for v := 0; v < n; v++ {
		estProc[v] = out.Proc[v]
		if completed[v] {
			estFinish[v] = out.Finish[v]
		}
	}
	for p := 0; p < m; p++ {
		queues[p] = queues[p][:0]
	}
	for _, v := range remaining {
		bestProc, bestFinish := -1, math.Inf(1)
		for p := 0; p < m; p++ {
			if !alive[p] {
				continue
			}
			start := estFree[p]
			for _, a := range w.G.Predecessors(v) {
				u := a.To
				if t := estFinish[u] + w.Sys.CommCost(estProc[u], p, a.Data); t > start {
					start = t
				}
			}
			if notBefore[v] > start {
				start = notBefore[v]
			}
			if f := start + w.ExpectedAt(v, p); f < bestFinish {
				bestProc, bestFinish = p, f
			}
		}
		if bestProc < 0 {
			// Every candidate finish is +Inf: a predecessor never
			// finishes. v stays unplanned, and its successors with it, so
			// the executor reports the stall instead of placing it.
			estFinish[v] = math.Inf(1)
			continue
		}
		estProc[v] = bestProc
		estFinish[v] = bestFinish
		estFree[bestProc] = bestFinish
		queues[bestProc] = append(queues[bestProc], v)
		planned[v] = bestFinish
		out.Proc[v] = bestProc
	}
}

// Metrics extends the simulator metrics with repair statistics.
type Metrics struct {
	sim.Metrics
	// MeanReschedules is the average number of re-plans per realization.
	MeanReschedules float64
}

// Evaluate Monte-Carlo evaluates the schedule under the repair policy.
// M0 is the schedule's planned makespan, so tardiness and miss rate are
// directly comparable with the static (right-shift) evaluation. Durations
// are sampled by sim.Durations from sim.SeedVector, so every duration model,
// correlation mode and antithetic pairing applies, and right-shift execution
// reproduces sim.Evaluate's makespans from the same root bit for bit.
func Evaluate(s *schedule.Schedule, pol Policy, opt sim.Options, root *rng.Source) (Metrics, error) {
	if err := opt.Validate(); err != nil {
		return Metrics{}, err
	}
	ranks := heft.UpwardRanks(s.Workload())
	makespans := make([]float64, opt.Realizations)
	resched := make([]int, opt.Realizations)
	err := sim.Durations(s.Workload(), opt, sim.SeedVector(opt.Realizations, opt.Antithetic, root), func(k int, durs platform.Matrix) error {
		o, err := execute(s, durs, pol, ranks)
		makespans[k], resched[k] = o.Makespan, o.Reschedules
		return err
	})
	if err != nil {
		return Metrics{}, err
	}
	total := 0
	for _, r := range resched {
		total += r
	}
	return Metrics{
		Metrics:         sim.MetricsFromSamples(s.Makespan(), makespans, opt.Deadline),
		MeanReschedules: float64(total) / float64(opt.Realizations),
	}, nil
}
