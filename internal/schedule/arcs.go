package schedule

import "robsched/internal/dag"

// arcSet is the processor-independent half of a disjunctive graph in CSR
// form: the task graph's data arcs, in both directions, with the raw data
// size of every arc and the mapping from each succ arc to its pred twin.
//
// Every schedule of the same workload shares one arcSet, built with the
// workload's cost tables (tablesFor); only the per-arc communication costs
// (which depend on the processor assignment) and the at-most-one
// disjunctive arc per task (which depends on the processor orders) vary
// per schedule, and those live in the Schedule itself. Splitting the CSR
// this way means a chromosome decode never re-derives the adjacency
// structure: it reads each arc's cost from the tables and runs the two
// analysis sweeps.
type arcSet struct {
	succOff  []int32   // n+1 offsets into succTo/succData/sMirror
	succTo   []int32   // data-arc targets, grouped by source
	succData []float64 // data size of each succ arc
	predOff  []int32   // n+1 offsets into predTo
	predTo   []int32   // data-arc sources, grouped by target
	sMirror  []int32   // succ arc k -> index of the same arc in the pred CSR
}

// newArcSet builds the static CSR of a task graph. The pred-side fill
// order matches the legacy per-schedule construction arc for arc (cursor
// scatter over a successor sweep), so row-order-sensitive consumers such
// as CriticalPath keep their exact tie-breaking behaviour.
func newArcSet(g *dag.Graph) *arcSet {
	n, nE := g.N(), g.EdgeCount()
	a := &arcSet{
		succOff:  make([]int32, n+1),
		succTo:   make([]int32, nE),
		succData: make([]float64, nE),
		predOff:  make([]int32, n+1),
		predTo:   make([]int32, nE),
		sMirror:  make([]int32, nE),
	}
	off := int32(0)
	for v := 0; v < n; v++ {
		a.succOff[v] = off
		off += int32(g.OutDegree(v))
	}
	a.succOff[n] = off
	off = 0
	for v := 0; v < n; v++ {
		a.predOff[v] = off
		off += int32(g.InDegree(v))
	}
	a.predOff[n] = off
	cur := make([]int32, n)
	for u := 0; u < n; u++ {
		base := a.succOff[u]
		for i, arc := range g.Successors(u) {
			k := base + int32(i)
			a.succTo[k] = int32(arc.To)
			a.succData[k] = arc.Data
			j := a.predOff[arc.To] + cur[arc.To]
			cur[arc.To]++
			a.predTo[j] = int32(u)
			a.sMirror[k] = j
		}
	}
	return a
}
