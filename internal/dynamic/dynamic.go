// Package dynamic implements the online scheduling baseline the paper's
// introduction contrasts static robust scheduling against: "dynamic
// scheduling algorithm assigns each ready task according to the current
// status of the resource environment aiming to avoid the inaccuracy of
// execution time estimation."
//
// The simulator plays a rank-ordered earliest-finish-time dispatch rule
// against realized task durations: a task becomes ready when all its
// predecessors have completed; the dispatcher repeatedly takes the ready
// task with the highest (static) upward rank and places it on the
// processor with the smallest *estimated* finish time, computed from
// expected durations and the actually observed predecessor finish times.
// Only then is the task's real duration revealed. Decisions therefore use
// exactly the information an online scheduler would have: completed
// predecessors' actual finish times, processor availability, and expected
// durations for the future.
package dynamic

import (
	"fmt"
	"math"

	"robsched/internal/heft"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/sim"
)

// Result is one simulated online execution.
type Result struct {
	Makespan float64
	// Proc, Start and Finish record the dispatch decisions and the actual
	// (realized) execution times.
	Proc   []int
	Start  []float64
	Finish []float64
}

// Simulate plays the dispatch rule against one realized duration matrix
// (durs.At(i, p) = the duration task i would actually take on processor p).
// The ranks give the dispatch priority; heft.UpwardRanks(w) is the usual
// choice. estimate selects durations used for placement decisions — the
// expected matrix for a realistic online scheduler, or durs itself for a
// clairvoyant lower-bound variant.
func Simulate(w *platform.Workload, durs, estimate platform.Matrix, ranks []float64) (Result, error) {
	n, m := w.N(), w.M()
	if durs.Rows() != n || durs.Cols() != m {
		return Result{}, fmt.Errorf("dynamic: duration matrix is %dx%d, want %dx%d", durs.Rows(), durs.Cols(), n, m)
	}
	if estimate.Rows() != n || estimate.Cols() != m {
		return Result{}, fmt.Errorf("dynamic: estimate matrix is %dx%d, want %dx%d", estimate.Rows(), estimate.Cols(), n, m)
	}
	if len(ranks) != n {
		return Result{}, fmt.Errorf("dynamic: %d ranks for %d tasks", len(ranks), n)
	}
	res := Result{
		Proc:   make([]int, n),
		Start:  make([]float64, n),
		Finish: make([]float64, n),
	}
	for i := range res.Proc {
		res.Proc[i] = -1
	}
	procFree := make([]float64, m)
	remainingPreds := make([]int, n)
	ready := make([]int, 0, n)
	for v := 0; v < n; v++ {
		remainingPreds[v] = w.G.InDegree(v)
		if remainingPreds[v] == 0 {
			ready = append(ready, v)
		}
	}
	scheduled := 0
	for scheduled < n {
		if len(ready) == 0 {
			return Result{}, fmt.Errorf("dynamic: dispatcher stalled with %d tasks left (graph inconsistency)", n-scheduled)
		}
		// Highest-rank ready task (ties: smallest id).
		best := 0
		for i := 1; i < len(ready); i++ {
			if ranks[ready[i]] > ranks[ready[best]] ||
				(ranks[ready[i]] == ranks[ready[best]] && ready[i] < ready[best]) {
				best = i
			}
		}
		v := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		// Place on the processor with the smallest estimated finish.
		bestProc, bestStart, bestEst := -1, 0.0, math.Inf(1)
		for p := 0; p < m; p++ {
			start := procFree[p]
			for _, a := range w.G.Predecessors(v) {
				u := a.To
				if t := res.Finish[u] + w.Sys.CommCost(res.Proc[u], p, a.Data); t > start {
					start = t
				}
			}
			if est := start + estimate.At(v, p); est < bestEst {
				bestProc, bestStart, bestEst = p, start, est
			}
		}
		res.Proc[v] = bestProc
		res.Start[v] = bestStart
		res.Finish[v] = bestStart + durs.At(v, bestProc) // reality revealed
		procFree[bestProc] = res.Finish[v]
		if res.Finish[v] > res.Makespan {
			res.Makespan = res.Finish[v]
		}
		scheduled++
		for _, a := range w.G.Successors(v) {
			remainingPreds[a.To]--
			if remainingPreds[a.To] == 0 {
				ready = append(ready, a.To)
			}
		}
	}
	return res, nil
}

// RealizeMatrix samples a full n×m actual-duration matrix for one
// environment realization under the paper's uniform model
// (Workload.SampleDuration); Evaluate samples through sim.Durations.
func RealizeMatrix(w *platform.Workload, r *rng.Source) platform.Matrix {
	n, m := w.N(), w.M()
	out := platform.NewMatrix(n, m)
	for i := 0; i < n; i++ {
		for p := 0; p < m; p++ {
			out.Set(i, p, w.SampleDuration(i, p, r))
		}
	}
	return out
}

// Evaluate Monte-Carlo evaluates the online dispatcher: M0 is its makespan
// when every duration equals its expectation, and each realization samples
// a fresh duration matrix through sim.Durations from sim.SeedVector, so the
// returned metrics are directly comparable to sim.Evaluate on static
// schedules under every duration model, correlation mode and antithetic
// pairing.
func Evaluate(w *platform.Workload, opt sim.Options, root *rng.Source) (sim.Metrics, error) {
	if err := opt.Validate(); err != nil {
		return sim.Metrics{}, err
	}
	ranks := heft.UpwardRanks(w)
	expected := w.Expected()
	base, err := Simulate(w, expected, expected, ranks)
	if err != nil {
		return sim.Metrics{}, err
	}
	makespans := make([]float64, opt.Realizations)
	err = sim.Durations(w, opt, sim.SeedVector(opt.Realizations, opt.Antithetic, root), func(k int, durs platform.Matrix) error {
		res, err := Simulate(w, durs, expected, ranks)
		makespans[k] = res.Makespan
		return err
	})
	if err != nil {
		return sim.Metrics{}, err
	}
	return sim.MetricsFromSamples(base.Makespan, makespans, opt.Deadline), nil
}
