// Package heft implements the deterministic list-scheduling baselines the
// paper compares against and seeds its GA with: HEFT (Heterogeneous
// Earliest Finish Time) and CPOP (Critical Path On a Processor), both from
// Topcuoglu, Hariri & Wu (IEEE TPDS 2002), plus a uniformly random valid
// scheduler. All of them schedule with the workload's *expected* durations,
// exactly like the paper's scheduler inputs.
package heft

import (
	"fmt"
	"math"
	"sort"

	"robsched/internal/platform"
	"robsched/internal/schedule"
)

// Options tunes the list schedulers; the zero value is the paper-faithful
// configuration.
type Options struct {
	// NoInsertion disables HEFT's insertion-based slot search and appends
	// each task after the last one on the candidate processor. Exposed for
	// the ablation benchmark.
	NoInsertion bool
}

// HEFT schedules the workload with the HEFT heuristic and returns the
// resulting schedule. The schedule's Makespan() is evaluated with the
// paper's ASAP semantics over the disjunctive graph, which can only be at
// most the finish time HEFT itself computed.
func HEFT(w *platform.Workload, opts Options) (*schedule.Schedule, error) {
	ranks := UpwardRanks(w)
	order := tasksByDescending(ranks)
	return scheduleByList(w, order, opts, nil, -1, platform.Matrix{})
}

// CPOP schedules the workload with the CPOP heuristic: tasks on the
// critical path (maximal upward+downward rank) are pinned to the single
// processor that minimizes the path's total execution time; all other tasks
// go to the processor with the earliest insertion-based finish time. Tasks
// are processed in decreasing priority order among ready tasks.
func CPOP(w *platform.Workload, opts Options) (*schedule.Schedule, error) {
	up := UpwardRanks(w)
	down := DownwardRanks(w)
	n := w.N()
	prio := make([]float64, n)
	for v := 0; v < n; v++ {
		prio[v] = up[v] + down[v]
	}
	// |CP| is the priority of the critical entry task; every task whose
	// priority equals it (within tolerance) is on a critical path.
	cpLen := 0.0
	for _, e := range w.G.Entries() {
		if prio[e] > cpLen {
			cpLen = prio[e]
		}
	}
	onCP := make([]bool, n)
	var cpTasks []int
	const tol = 1e-9
	for v := 0; v < n; v++ {
		if prio[v] >= cpLen-tol {
			onCP[v] = true
			cpTasks = append(cpTasks, v)
		}
	}
	// Pick the processor minimizing the critical path's total time.
	bestProc, bestSum := 0, math.Inf(1)
	for p := 0; p < w.M(); p++ {
		sum := 0.0
		for _, v := range cpTasks {
			sum += w.ExpectedAt(v, p)
		}
		if sum < bestSum {
			bestSum, bestProc = sum, p
		}
	}
	// Ready-list scheduling in decreasing priority order.
	order := readyOrder(w, prio)
	return scheduleByList(w, order, opts, onCP, bestProc, platform.Matrix{})
}

// UpwardRanks returns HEFT's upward rank of every task:
// rank_u(v) = mean expected duration of v + max over successors of
// (mean communication cost + rank_u(successor)).
func UpwardRanks(w *platform.Workload) []float64 {
	n := w.N()
	rank := make([]float64, n)
	topo := w.G.TopologicalOrder()
	for i := n - 1; i >= 0; i-- {
		v := topo[i]
		best := 0.0
		for _, a := range w.G.Successors(v) {
			c := w.Sys.MeanCommCost(a.Data) + rank[a.To]
			if c > best {
				best = c
			}
		}
		rank[v] = w.MeanExpected(v) + best
	}
	return rank
}

// DownwardRanks returns CPOP's downward rank of every task:
// rank_d(v) = max over predecessors of (rank_d(pred) + mean duration of
// pred + mean communication cost); zero for entry tasks.
func DownwardRanks(w *platform.Workload) []float64 {
	n := w.N()
	rank := make([]float64, n)
	for _, v := range w.G.TopologicalOrder() {
		best := 0.0
		for _, a := range w.G.Predecessors(v) {
			u := a.To
			c := rank[u] + w.MeanExpected(u) + w.Sys.MeanCommCost(a.Data)
			if c > best {
				best = c
			}
		}
		rank[v] = best
	}
	return rank
}

// tasksByDescending returns task ids sorted by decreasing score; ties break
// by increasing id, keeping the order deterministic. For HEFT's upward
// ranks the result is always a valid topological order.
func tasksByDescending(score []float64) []int {
	order := make([]int, len(score))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if score[order[a]] != score[order[b]] {
			return score[order[a]] > score[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// readyOrder produces a full processing order by repeatedly picking the
// highest-priority ready task (CPOP's ready-list policy).
func readyOrder(w *platform.Workload, prio []float64) []int {
	n := w.N()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = w.G.InDegree(v)
	}
	var ready []int
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			if prio[ready[i]] > prio[ready[best]] ||
				(prio[ready[i]] == prio[ready[best]] && ready[i] < ready[best]) {
				best = i
			}
		}
		v := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		order = append(order, v)
		for _, a := range w.G.Successors(v) {
			indeg[a.To]--
			if indeg[a.To] == 0 {
				ready = append(ready, a.To)
			}
		}
	}
	return order
}

// slot is one occupied interval on a processor timeline.
type slot struct {
	start, finish float64
	task          int
}

// scheduleByList runs insertion-based earliest-finish-time list scheduling
// over the given task order. If pinned is non-nil, tasks with pinned[v] true
// are forced onto pinnedProc (CPOP's critical-path rule). If oct is not the
// zero matrix, each task goes to the processor minimizing its finish time
// plus oct(v, p) instead of the finish time alone (PEFT's predicted EFT).
// The order must be a valid topological order.
func scheduleByList(w *platform.Workload, order []int, opts Options, pinned []bool, pinnedProc int, oct platform.Matrix) (*schedule.Schedule, error) {
	if !w.G.IsTopologicalOrder(order) {
		return nil, fmt.Errorf("heft: processing order is not topological")
	}
	n, m := w.N(), w.M()
	timelines := make([][]slot, m)
	proc := make([]int, n)
	aft := make([]float64, n) // actual finish time in the list schedule
	for i := range proc {
		proc[i] = -1
	}
	for _, v := range order {
		bestProc, bestStart, bestFinish, bestKey := -1, 0.0, 0.0, math.Inf(1)
		lo, hi := 0, m
		if pinned != nil && pinned[v] {
			lo, hi = pinnedProc, pinnedProc+1
		}
		for p := lo; p < hi; p++ {
			ready := 0.0
			for _, a := range w.G.Predecessors(v) {
				u := a.To
				t := aft[u] + w.Sys.CommCost(proc[u], p, a.Data)
				if t > ready {
					ready = t
				}
			}
			dur := w.ExpectedAt(v, p)
			start := findStart(timelines[p], ready, dur, opts.NoInsertion)
			finish := start + dur
			key := finish
			if !oct.IsZero() {
				key += oct.At(v, p)
			}
			if key < bestKey {
				bestProc, bestStart, bestFinish, bestKey = p, start, finish, key
			}
		}
		proc[v] = bestProc
		aft[v] = bestFinish
		timelines[bestProc] = insertSlot(timelines[bestProc], slot{bestStart, bestFinish, v})
	}
	procOrder := make([][]int, m)
	for p, tl := range timelines {
		for _, s := range tl {
			procOrder[p] = append(procOrder[p], s.task)
		}
	}
	return schedule.New(w, proc, procOrder)
}

// findStart returns the earliest start >= ready on the timeline where a
// task of length dur fits. With noInsertion it simply starts after the last
// occupied slot (or at ready, whichever is later).
func findStart(tl []slot, ready, dur float64, noInsertion bool) float64 {
	if noInsertion {
		if len(tl) == 0 {
			return ready
		}
		if last := tl[len(tl)-1].finish; last > ready {
			return last
		}
		return ready
	}
	start := ready
	for _, s := range tl {
		if start+dur <= s.start+1e-12 {
			return start
		}
		if s.finish > start {
			start = s.finish
		}
	}
	return start
}

// insertSlot inserts s keeping the timeline sorted by start time.
func insertSlot(tl []slot, s slot) []slot {
	i := sort.Search(len(tl), func(i int) bool { return tl[i].start > s.start })
	tl = append(tl, slot{})
	copy(tl[i+1:], tl[i:])
	tl[i] = s
	return tl
}

// intSource is the randomness RandomSchedule needs; *rng.Source satisfies it.
type intSource interface{ Intn(int) int }

// RandomSchedule returns a uniformly random valid schedule: a random
// topological order with every task assigned to a uniformly random
// processor. The GA's initial population is built from these.
func RandomSchedule(w *platform.Workload, r intSource) (*schedule.Schedule, error) {
	order := w.G.RandomTopologicalOrder(r)
	proc := make([]int, w.N())
	for i := range proc {
		proc[i] = r.Intn(w.M())
	}
	return schedule.FromOrder(w, order, proc)
}
