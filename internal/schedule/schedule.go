// Package schedule implements schedules and their semantics from Section 3
// of the paper: the per-processor task orders, the disjunctive graph G_s
// (Definition 3.1), the makespan of any duration realization as the critical
// path of G_s (Claim 3.2), and per-task / average slack (Definition 3.3).
//
// A Schedule is immutable once built, except that its owner may decode a
// new chromosome into it (Decoder.DecodeInto). Construction precomputes one
// topological order of the disjunctive graph together with the communication
// cost of every arc, so that each Monte-Carlo realization costs a single
// O(V+E) longest-path pass with no allocation — the property that makes the
// paper's 100 graphs × 1000 realizations evaluation tractable.
//
// The disjunctive graph is stored in CSR (compressed sparse row) form,
// split into a static and a dynamic half: the data arcs (targets, offsets,
// data sizes) are built once per workload, with the table of every arc's
// communication cost at every processor pair, and shared by every schedule
// of it (arcs.go, expected.go), while each schedule carries only what the
// chromosome determines — per-arc communication costs, the at-most-one
// disjunctive arc per task, and the analysis vectors. All per-schedule integer state lives
// in one int32 arena and all float state in one float64 arena, so building
// a new schedule costs two heap allocations beyond its struct and the
// longest-path passes walk contiguous memory. See Decoder (decoder.go) for
// the pooled fast paths the GA uses: MetricsUpTo computes a chromosome's
// expected makespan and, up to a bound, its slack summary without building
// a schedule, with the same code every constructor runs for its
// expected-duration analysis (expected.go), and DecodeInto reuses a target
// schedule's arenas. Neither allocates in steady state.
package schedule

import (
	"fmt"
	"strings"

	"robsched/internal/dag"
	"robsched/internal/platform"
)

// Schedule is an immutable assignment of tasks to processors plus an
// execution order on each processor, together with the analysis of the
// schedule under expected task durations.
//
// Layout: proc, topo, porder/porderOff and dsucc/dpred are carved from a
// single int32 arena; the comm costs and the analysis vectors from a single
// float64 arena. The data-arc adjacency itself (targets, offsets, data
// sizes) is shared across all schedules of the same task graph via arcs.
type Schedule struct {
	w    *platform.Workload
	arcs *arcSet // shared static CSR of the task graph's data arcs

	proc      []int32 // task -> processor
	topo      []int32 // topological order of the disjunctive graph
	porder    []int32 // tasks grouped by processor, in execution order
	porderOff []int32 // m+1 offsets into porder

	// The at-most-one disjunctive (same-processor ordering) arc of each
	// task: dsucc[v]/dpred[v] is the next/previous task on v's processor
	// when that pair is not already a data edge, else -1. Disjunctive arcs
	// carry zero cost (Eqn. 1) and are evaluated after each task's data
	// arcs, matching the legacy CSR where they sat last in the row.
	dsucc []int32
	dpred []int32

	// Communication cost of each data arc, parallel to arcs.succTo and
	// to arcs.predTo, for the realized-duration passes.
	succComm []float64
	predComm []float64

	// The analysis under expected durations.
	analysis

	// The two arenas the slices above are carved from, kept whole so
	// Decoder.DecodeInto can reuse them for the next schedule.
	ints   []int32
	floats []float64
}

// New builds and validates a schedule from a task→processor map and
// per-processor orders. It returns an error if the assignment is not a
// partition of the tasks consistent with proc, or if the processor orders
// conflict with the task graph's precedence constraints (i.e. the
// disjunctive graph would be cyclic).
func New(w *platform.Workload, proc []int, procOrder [][]int) (*Schedule, error) {
	n, m := w.N(), w.M()
	if len(proc) != n {
		return nil, fmt.Errorf("schedule: proc has %d entries, want %d", len(proc), n)
	}
	if len(procOrder) != m {
		return nil, fmt.Errorf("schedule: procOrder has %d lists, want %d", len(procOrder), m)
	}
	seen := make([]bool, n)
	for p, list := range procOrder {
		for _, v := range list {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("schedule: task %d out of range on processor %d", v, p)
			}
			if seen[v] {
				return nil, fmt.Errorf("schedule: task %d appears more than once", v)
			}
			seen[v] = true
			if proc[v] != p {
				return nil, fmt.Errorf("schedule: task %d listed on processor %d but proc maps it to %d", v, p, proc[v])
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("schedule: task %d is not assigned", v)
		}
	}
	for v, p := range proc {
		if p < 0 || p >= m {
			return nil, fmt.Errorf("schedule: task %d assigned to processor %d out of range [0,%d)", v, p, m)
		}
	}
	sc := getScratch(n, m)
	defer putScratch(sc)
	t := tablesFor(w)
	order, err := sc.kahnOrder(w.G, t.arcs, procOrder)
	if err != nil {
		return nil, err
	}
	s := new(Schedule)
	if err := buildWith(s, w, t, sc, order, proc); err != nil {
		return nil, err
	}
	return s, nil
}

// FromOrder builds a schedule from a global scheduling string (a topological
// order of the task graph) and a task→processor map; each processor executes
// its tasks in their relative order within the scheduling string. This is
// exactly the decoding of the paper's GA chromosome (Section 4.2.1).
func FromOrder(w *platform.Workload, order []int, proc []int) (*Schedule, error) {
	sc := getScratch(w.N(), w.M())
	defer putScratch(sc)
	s := new(Schedule)
	if err := buildWith(s, w, tablesFor(w), sc, order, proc); err != nil {
		return nil, err
	}
	return s, nil
}

// forward runs one ASAP longest-path pass over the disjunctive graph with
// the given durations, filling start and finish, and returns the makespan.
// start and finish must have length N. It serves realized durations; the
// expected ones go through the analysis (expected.go).
func (s *Schedule) forward(dur, start, finish []float64) float64 {
	predOff, predTo, predComm := s.arcs.predOff, s.arcs.predTo, s.predComm
	dpred := s.dpred
	makespan := 0.0
	for _, v32 := range s.topo {
		v := int(v32)
		st := 0.0
		for k := predOff[v]; k < predOff[v+1]; k++ {
			if t := finish[predTo[k]] + predComm[k]; t > st {
				st = t
			}
		}
		// The disjunctive predecessor costs zero communication.
		if u := dpred[v]; u >= 0 {
			if t := finish[u]; t > st {
				st = t
			}
		}
		start[v] = st
		f := st + dur[v]
		finish[v] = f
		if f > makespan {
			makespan = f
		}
	}
	return makespan
}

// backward fills bl with the bottom level of every task under the given
// durations: Bl(v) = dur(v) + max over successors of (comm(v,u) + Bl(u)).
func (s *Schedule) backward(dur, bl []float64) {
	succOff, succTo, succComm := s.arcs.succOff, s.arcs.succTo, s.succComm
	dsucc := s.dsucc
	for i := len(s.topo) - 1; i >= 0; i-- {
		v := int(s.topo[i])
		best := 0.0
		for k := succOff[v]; k < succOff[v+1]; k++ {
			if c := succComm[k] + bl[succTo[k]]; c > best {
				best = c
			}
		}
		if u := dsucc[v]; u >= 0 {
			if c := bl[u]; c > best {
				best = c
			}
		}
		bl[v] = dur[v] + best
	}
}

// MakespanWith returns the makespan of the schedule when task v takes
// dur[v] time units (durations already resolved for the assigned
// processors), per Claim 3.2: every task starts as soon as it is ready.
func (s *Schedule) MakespanWith(dur []float64) float64 {
	n := s.w.N()
	start := make([]float64, n)
	finish := make([]float64, n)
	return s.forward(dur, start, finish)
}

// MakespanInto is MakespanWith with caller-provided scratch buffers (each of
// length N), for allocation-free Monte-Carlo loops.
func (s *Schedule) MakespanInto(dur, startBuf, finishBuf []float64) float64 {
	return s.forward(dur, startBuf, finishBuf)
}

// SlackWith computes each task's slack and the makespan of the schedule
// under an arbitrary duration vector (Definition 3.3 evaluated on a
// realization instead of the expectations). Robustness measures that ask
// which tasks *became* critical in a realization build on this.
func (s *Schedule) SlackWith(dur []float64) (slack []float64, makespan float64) {
	n := s.w.N()
	start := make([]float64, n)
	finish := make([]float64, n)
	makespan = s.forward(dur, start, finish)
	bl := make([]float64, n)
	s.backward(dur, bl)
	slack = make([]float64, n)
	slackInto(slack, makespan, start, bl)
	return slack, makespan
}

// Workload returns the workload the schedule was built for.
func (s *Schedule) Workload() *platform.Workload { return s.w }

// Proc returns the processor assigned to task v.
func (s *Schedule) Proc(v int) int { return int(s.proc[v]) }

// ProcAssignment returns a copy of the task→processor map.
func (s *Schedule) ProcAssignment() []int {
	out := make([]int, len(s.proc))
	for v, p := range s.proc {
		out[v] = int(p)
	}
	return out
}

// ProcOrder returns a copy of the ordered task list of processor p.
func (s *Schedule) ProcOrder(p int) []int {
	list := s.porder[s.porderOff[p]:s.porderOff[p+1]]
	out := make([]int, len(list))
	for i, v := range list {
		out[i] = int(v)
	}
	return out
}

// Order returns the global execution order (the topological order of G_s
// used by the analysis).
func (s *Schedule) Order() []int {
	out := make([]int, len(s.topo))
	for i, v := range s.topo {
		out[i] = int(v)
	}
	return out
}

// Makespan returns the expected makespan M0(s).
func (s *Schedule) Makespan() float64 { return s.makespan }

// Start returns the ASAP start time of task v under expected durations;
// this equals the task's top level Tl(v).
func (s *Schedule) Start(v int) float64 { return s.start[v] }

// Finish returns the finish time of task v under expected durations.
func (s *Schedule) Finish(v int) float64 { return s.finish[v] }

// TopLevel returns Tl(v), the length of the longest path from an entry node
// to v (excluding v) in G_s under expected durations.
func (s *Schedule) TopLevel(v int) float64 { return s.start[v] }

// BottomLevel returns Bl(v), the length of the longest path from v to an
// exit node (including v) in G_s under expected durations.
func (s *Schedule) BottomLevel(v int) float64 { return s.bl[v] }

// Slack returns σ_v = M - Bl(v) - Tl(v) (Definition 3.3): the window by
// which v's duration may grow without extending the makespan, all other
// durations at their expected values (Theorem 3.4).
func (s *Schedule) Slack(v int) float64 { return s.slack[v] }

// AvgSlack returns the average slack over all tasks (Eqn. 3), the paper's
// robustness surrogate.
func (s *Schedule) AvgSlack() float64 { return s.avgSlack }

// MinSlack returns the smallest task slack, exposed as a fitness option.
// It is 0 up to rounding on every schedule: the tasks of a critical path
// have Tl + Bl = M0, so their slack is zero. Whatever it returns beyond 0
// (at most a few 1e-13 on paper-size schedules) is rounding residue, so it
// cannot rank schedules by robustness.
func (s *Schedule) MinSlack() float64 { return s.minSlack }

// ExpectedDurations returns a copy of the expected duration of each task on
// its assigned processor.
func (s *Schedule) ExpectedDurations() []float64 { return append([]float64(nil), s.expDur...) }

// DisjunctiveEdges returns the extra (E') edges of G_s, i.e. the
// same-processor ordering arcs that are not data edges, read from the CSR
// per-processor order.
func (s *Schedule) DisjunctiveEdges() []dag.Edge {
	var out []dag.Edge
	g := s.w.G
	for p := 0; p+1 < len(s.porderOff); p++ {
		list := s.porder[s.porderOff[p]:s.porderOff[p+1]]
		for i := 1; i < len(list); i++ {
			u, v := int(list[i-1]), int(list[i])
			if !g.HasEdge(u, v) {
				out = append(out, dag.Edge{From: u, To: v, Data: 0})
			}
		}
	}
	return out
}

// DisjunctiveGraph materializes G_s as a dag.Graph (Definition 3.1), with
// the data sizes of same-processor edges zeroed per Eqn. 1.
func (s *Schedule) DisjunctiveGraph() (*dag.Graph, error) {
	b := dag.NewBuilder(s.w.N())
	for _, e := range s.w.G.Edges() {
		data := e.Data
		if s.proc[e.From] == s.proc[e.To] {
			data = 0
		}
		if err := b.AddEdge(e.From, e.To, data); err != nil {
			return nil, err
		}
	}
	for _, e := range s.DisjunctiveEdges() {
		if err := b.AddEdge(e.From, e.To, 0); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// CriticalTasks returns the tasks with (numerically) zero slack, i.e. the
// tasks on some critical path of G_s.
func (s *Schedule) CriticalTasks() []int {
	var out []int
	for v, sl := range s.slack {
		if sl <= 1e-9 {
			out = append(out, v)
		}
	}
	return out
}

// String renotes the schedule in the paper's notation
// {{(v1,v2),(v2,v4)}, {(v3,v5)}, ∅}, with 1-based task names.
func (s *Schedule) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for p := 0; p+1 < len(s.porderOff); p++ {
		list := s.porder[s.porderOff[p]:s.porderOff[p+1]]
		if p > 0 {
			b.WriteString(", ")
		}
		switch {
		case len(list) == 0:
			b.WriteString("∅")
		case len(list) == 1:
			fmt.Fprintf(&b, "{v%d}", list[0]+1)
		default:
			b.WriteByte('{')
			for i := 1; i < len(list); i++ {
				if i > 1 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "(v%d,v%d)", list[i-1]+1, list[i]+1)
			}
			b.WriteByte('}')
		}
	}
	b.WriteByte('}')
	return b.String()
}
