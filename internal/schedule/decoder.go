package schedule

import (
	"fmt"
	"math"
	"sync"

	"robsched/internal/dag"
	"robsched/internal/platform"
)

// Decoder is the fast path for GA chromosomes (scheduling string +
// assignment string) on one workload. Metrics and MetricsUpTo compute a
// chromosome's expected makespan and slack summary without building its
// schedule; Decode and DecodeInto build the schedule. All transient state
// comes from a package-level pool, the data-arc CSR is shared per task
// graph and the analysis's cost tables per workload. A
// fresh schedule costs two heap allocations (its int32 and float64
// arenas); decoding into a reused target whose arenas are large enough
// allocates nothing, and neither does Metrics.
//
// A Decoder is safe for concurrent use by multiple goroutines as long as
// each goroutine decodes distinct Schedule targets.
type Decoder struct {
	w *platform.Workload
	t *costTables
}

// NewDecoder returns a decoder for the given workload.
func NewDecoder(w *platform.Workload) *Decoder {
	return &Decoder{w: w, t: tablesFor(w)}
}

// Decode builds the schedule of a trusted (order, proc) chromosome.
func (d *Decoder) Decode(order, proc []int) (*Schedule, error) {
	s := new(Schedule)
	if err := d.DecodeInto(s, order, proc); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeInto builds the schedule into an existing Schedule value,
// overwriting all of its state and reusing its arenas when they are large
// enough, so a caller that keeps one target decodes without allocating.
// Whatever the target held before — and every slice read from it — is
// invalidated. On error the target is left in an unspecified state: it must
// not be read, but it may be decoded into again. A caller that needs only
// the makespan and slack summary calls Metrics instead.
func (d *Decoder) DecodeInto(s *Schedule, order, proc []int) error {
	sc := getScratch(d.w.N(), d.w.M())
	defer putScratch(sc)
	return buildWith(s, d.w, d.t, sc, order, proc)
}

// decodeScratch holds every transient buffer one schedule construction or
// one MetricsUpTo call needs. Instances are pooled; getScratch grows them to
// the workload at hand.
type decodeScratch struct {
	pos   []int32 // position of each task in the scheduling string
	pcur  []int32 // per-processor fill cursors
	plast []int32 // per-processor last (or next) task, -1 if none

	// New's Kahn pass: the disjunctive successor of each task (-1 if
	// none), the in-degrees, and the order it derives.
	next  []int32
	indeg []int32
	order []int

	// MetricsUpTo's analysis, carved from floats.
	an     analysis
	floats []float64
}

var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

func getScratch(n, m int) *decodeScratch {
	sc := scratchPool.Get().(*decodeScratch)
	if cap(sc.pos) < n {
		sc.pos = make([]int32, n)
		sc.next = make([]int32, n)
		sc.indeg = make([]int32, n)
		sc.order = make([]int, n)
	}
	if cap(sc.pcur) < m {
		sc.pcur = make([]int32, m)
		sc.plast = make([]int32, m)
	}
	return sc
}

func putScratch(sc *decodeScratch) { scratchPool.Put(sc) }

// kahnOrder derives a scheduling string from explicit per-processor orders
// (the New constructor): the FIFO Kahn order of the disjunctive graph they
// induce, visiting each task's data arcs in CSR order and then its
// disjunctive arc. The schedule stores this order (Schedule.Order), and
// FromSchedule turns it into the GA's seed chromosome, so the visiting
// order is part of the output. The order is written into the scratch. It
// fails when the processor orders conflict with the precedence
// constraints.
func (sc *decodeScratch) kahnOrder(g *dag.Graph, arcs *arcSet, procOrder [][]int) ([]int, error) {
	n := g.N()
	next, indeg := sc.next[:n], sc.indeg[:n]
	for v := 0; v < n; v++ {
		next[v] = -1
		indeg[v] = arcs.predOff[v+1] - arcs.predOff[v]
	}
	for _, list := range procOrder {
		for i := 1; i < len(list); i++ {
			if u, v := list[i-1], list[i]; !g.HasEdge(u, v) {
				next[u] = int32(v)
				indeg[v]++
			}
		}
	}
	order := sc.order[:0]
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for head := 0; head < len(order); head++ {
		v := order[head]
		for k := arcs.succOff[v]; k < arcs.succOff[v+1]; k++ {
			to := arcs.succTo[k]
			if indeg[to]--; indeg[to] == 0 {
				order = append(order, int(to))
			}
		}
		if u := next[v]; u >= 0 {
			if indeg[u]--; indeg[u] == 0 {
				order = append(order, int(u))
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("schedule: processor orders conflict with precedence constraints (disjunctive graph is cyclic)")
	}
	return order, nil
}

func carveI(a []int32, k int) ([]int32, []int32)       { return a[:k:k], a[k:] }
func carveF(a []float64, k int) ([]float64, []float64) { return a[:k:k], a[k:] }

// buildWith builds the schedule of the chromosome (order, proc) into two
// arenas (one int32, one float64), reusing the target's when they are large
// enough and allocating them otherwise. It validates the chromosome's
// shape, groups the tasks by processor in string order, and records the
// disjunctive arcs between consecutive same-processor tasks that are not
// already data edges. The scheduling string doubles as the stored
// topological order of G_s: the expected-duration analysis, the code
// Decoder.MetricsUpTo runs, checks it arc by arc and rejects every
// inversion.
func buildWith(s *Schedule, w *platform.Workload, t *costTables, sc *decodeScratch, order, proc []int) error {
	n, m := w.N(), w.M()
	arcs := t.arcs
	nE := len(arcs.succTo)
	pos := sc.pos[:n]
	if err := checkChromosome(n, m, order, proc, pos); err != nil {
		return err
	}

	if k := 5*n + m + 1; cap(s.ints) < k {
		s.ints = make([]int32, k)
	} else {
		s.ints = s.ints[:k]
	}
	if k := 5*n + 2*nE; cap(s.floats) < k {
		s.floats = make([]float64, k)
	} else {
		s.floats = s.floats[:k]
	}
	ints := s.ints
	s.proc, ints = carveI(ints, n)
	s.topo, ints = carveI(ints, n)
	s.porder, ints = carveI(ints, n)
	s.porderOff, ints = carveI(ints, m+1)
	s.dsucc, ints = carveI(ints, n)
	s.dpred, _ = carveI(ints, n)
	floats := s.analysis.carve(s.floats, n)
	s.succComm, floats = carveF(floats, nE)
	s.predComm, _ = carveF(floats, nE)
	s.w = w
	s.arcs = arcs

	poff := s.porderOff
	clear(poff)
	for v, p := range proc {
		s.proc[v] = int32(p)
		poff[p+1]++
	}
	for p := 1; p <= m; p++ {
		poff[p] += poff[p-1]
	}
	pcur, plast := sc.pcur[:m], sc.plast[:m]
	for p := 0; p < m; p++ {
		pcur[p] = poff[p]
		plast[p] = -1
	}
	for v := 0; v < n; v++ {
		s.dsucc[v] = -1
		s.dpred[v] = -1
	}
	g := w.G
	for i, v := range order {
		s.topo[i] = int32(v)
		p := proc[v]
		s.porder[pcur[p]] = int32(v)
		pcur[p]++
		if u := plast[p]; u >= 0 && !g.HasEdge(int(u), v) {
			s.dsucc[u] = int32(v)
			s.dpred[v] = u
		}
		plast[p] = int32(v)
	}

	if _, err := s.analysis.run(t, order, proc, pos, plast, math.Inf(1)); err != nil {
		return err
	}
	// The realized-duration passes read the per-arc communication costs,
	// in both directions.
	for v, p := range proc {
		out := t.col[p*m : p*m+m]
		for k := arcs.succOff[v]; k < arcs.succOff[v+1]; k++ {
			s.succComm[k] = t.succQ[int(k)*t.cols+int(out[proc[arcs.succTo[k]]])]
		}
	}
	for k, j := range arcs.sMirror {
		s.predComm[j] = s.succComm[k]
	}
	return nil
}
