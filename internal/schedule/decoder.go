package schedule

import (
	"fmt"
	"sync"

	"robsched/internal/platform"
)

// Decoder is the fast path for decoding GA chromosomes (scheduling string +
// assignment string) into schedules. All transient construction state comes
// from a package-level pool and the data-arc CSR is shared per task graph.
// A fresh schedule costs two heap allocations (its int32 and float64
// arenas); decoding into a reused target whose arenas are large enough
// allocates nothing.
//
// A Decoder is safe for concurrent use by multiple goroutines as long as
// each goroutine decodes distinct Schedule targets.
type Decoder struct {
	w    *platform.Workload
	arcs *arcSet
}

// NewDecoder returns a decoder for the given workload.
func NewDecoder(w *platform.Workload) *Decoder {
	return &Decoder{w: w, arcs: arcsFor(w.G)}
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
// not be read, but it may be decoded into again.
func (d *Decoder) DecodeInto(s *Schedule, order, proc []int) error {
	sc := getScratch(d.w.N(), d.w.M())
	defer putScratch(sc)
	if err := sc.prepassFromOrder(d.w, order, proc); err != nil {
		return err
	}
	return buildWith(s, d.w, d.arcs, sc, order)
}

// decodeScratch holds every transient buffer one schedule construction
// needs. Instances are pooled; ensure grows them to the workload at hand.
type decodeScratch struct {
	proc   []int32 // validated task -> processor copy
	porder []int32 // tasks grouped by processor
	dsucc  []int32 // disjunctive successor of each task, -1 if none
	dpred  []int32 // disjunctive predecessor of each task, -1 if none
	cursor []int32 // Kahn indegrees (explicit-list construction only)
	pos    []int32 // position of each task in the scheduling string
	poff   []int32 // m+1 per-processor offsets into porder
	pcur   []int32 // per-processor fill cursors
	plast  []int32 // last task seen on each processor, -1 if none
}

var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

func getScratch(n, m int) *decodeScratch {
	sc := scratchPool.Get().(*decodeScratch)
	if cap(sc.proc) < n {
		sc.proc = make([]int32, n)
		sc.porder = make([]int32, n)
		sc.dsucc = make([]int32, n)
		sc.dpred = make([]int32, n)
		sc.cursor = make([]int32, n)
		sc.pos = make([]int32, n)
	}
	if cap(sc.poff) < m+1 {
		sc.poff = make([]int32, m+1)
		sc.pcur = make([]int32, m)
		sc.plast = make([]int32, m)
	}
	return sc
}

func putScratch(sc *decodeScratch) { scratchPool.Put(sc) }

// decodeOrder is the shared implementation behind FromOrder and
// FromOrderTrusted: prepass over the scheduling string, then the build.
func decodeOrder(s *Schedule, w *platform.Workload, order, proc []int) error {
	sc := getScratch(w.N(), w.M())
	defer putScratch(sc)
	if err := sc.prepassFromOrder(w, order, proc); err != nil {
		return err
	}
	return buildWith(s, w, arcsFor(w.G), sc, order)
}

// prepassFromOrder validates the chromosome shape (permutation, processor
// range) and computes the per-processor grouping and the disjunctive arcs
// into the scratch. Precedence validation of the order itself happens
// arc-by-arc during the communication-cost fill in buildWith.
func (sc *decodeScratch) prepassFromOrder(w *platform.Workload, order, proc []int) error {
	g := w.G
	n, m := w.N(), w.M()
	if len(order) != n {
		return fmt.Errorf("schedule: scheduling string has %d entries, want %d", len(order), n)
	}
	if len(proc) != n {
		return fmt.Errorf("schedule: proc has %d entries, want %d", len(proc), n)
	}
	pos := sc.pos[:n]
	for v := range pos {
		pos[v] = -1
	}
	for i, v := range order {
		if v < 0 || v >= n || pos[v] != -1 {
			return fmt.Errorf("schedule: scheduling string is not a permutation of the tasks")
		}
		pos[v] = int32(i)
	}
	sproc := sc.proc[:n]
	pcount := sc.poff[:m+1]
	for p := range pcount {
		pcount[p] = 0
	}
	for v, p := range proc {
		if p < 0 || p >= m {
			return fmt.Errorf("schedule: task %d assigned to processor %d out of range [0,%d)", v, p, m)
		}
		sproc[v] = int32(p)
		pcount[p+1]++
	}
	for p := 1; p <= m; p++ {
		pcount[p] += pcount[p-1]
	}
	// Fill the per-processor grouping in scheduling-string order and detect
	// the disjunctive arcs between consecutive same-processor tasks that are
	// not already data edges.
	pcur := sc.pcur[:m]
	plast := sc.plast[:m]
	for p := 0; p < m; p++ {
		pcur[p] = pcount[p]
		plast[p] = -1
	}
	dsucc := sc.dsucc[:n]
	dpred := sc.dpred[:n]
	for v := range dsucc {
		dsucc[v] = -1
		dpred[v] = -1
	}
	porder := sc.porder[:n]
	for _, v := range order {
		p := proc[v]
		porder[pcur[p]] = int32(v)
		pcur[p]++
		if u := plast[p]; u >= 0 && !g.HasEdge(int(u), v) {
			dsucc[u] = int32(v)
			dpred[v] = u
		}
		plast[p] = int32(v)
	}
	return nil
}

// prepassFromLists is prepassFromOrder for explicit, already-validated
// per-processor orders (the New constructor).
func (sc *decodeScratch) prepassFromLists(w *platform.Workload, proc []int, procOrder [][]int) {
	g := w.G
	n, m := w.N(), w.M()
	sproc := sc.proc[:n]
	for v, p := range proc {
		sproc[v] = int32(p)
	}
	dsucc := sc.dsucc[:n]
	dpred := sc.dpred[:n]
	for v := range dsucc {
		dsucc[v] = -1
		dpred[v] = -1
	}
	porder := sc.porder[:n]
	poff := sc.poff[:m+1]
	k := int32(0)
	for p, list := range procOrder {
		poff[p] = k
		for i, v := range list {
			porder[k] = int32(v)
			k++
			if i > 0 && !g.HasEdge(list[i-1], v) {
				dsucc[list[i-1]] = int32(v)
				dpred[v] = int32(list[i-1])
			}
		}
	}
	poff[m] = k
}

func carveI(a []int32, k int) ([]int32, []int32)       { return a[:k:k], a[k:] }
func carveF(a []float64, k int) ([]float64, []float64) { return a[:k:k], a[k:] }

// buildWith constructs the schedule from the scratch prepass into two
// arenas (one int32, one float64), reusing the target's when they are large
// enough and allocating them otherwise. When order is non-nil it
// doubles as the topological order of G_s — validated arc-by-arc during the
// communication-cost fill — so downstream passes iterate the scheduling
// string itself. The explicit-list path (order nil) derives the order with
// the same FIFO Kahn pass the legacy construction used, arc for arc, so
// its topological orders — and therefore every downstream result — remain
// bit-identical to it.
func buildWith(s *Schedule, w *platform.Workload, arcs *arcSet, sc *decodeScratch, order []int) error {
	sys := w.Sys
	n, m := w.N(), w.M()
	nE := len(arcs.succTo)

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
	floats := s.floats
	s.succComm, floats = carveF(floats, nE)
	s.predComm, floats = carveF(floats, nE)
	s.expDur, floats = carveF(floats, n)
	s.start, floats = carveF(floats, n)
	s.finish, floats = carveF(floats, n)
	s.bl, floats = carveF(floats, n)
	s.slack, _ = carveF(floats, n)

	s.w = w
	s.arcs = arcs
	copy(s.proc, sc.proc[:n])
	copy(s.porder, sc.porder[:n])
	copy(s.porderOff, sc.poff[:m+1])
	copy(s.dsucc, sc.dsucc[:n])
	copy(s.dpred, sc.dpred[:n])

	// Communication costs, computed once per arc and mirrored into the pred
	// direction. When decoding an order the loop doubles as the precedence
	// check: one position comparison per arc replaces both the legacy
	// precedence scan and the Kahn cycle detection, and rejects every
	// inversion (a same-processor one is the legacy disjunctive cycle).
	succOff, succTo, succData := arcs.succOff, arcs.succTo, arcs.succData
	sMirror := arcs.sMirror
	if order != nil {
		pos := sc.pos[:n]
		for u := 0; u < n; u++ {
			pu := int(s.proc[u])
			up := pos[u]
			for k := succOff[u]; k < succOff[u+1]; k++ {
				to := succTo[k]
				if pos[to] < up {
					return fmt.Errorf("schedule: scheduling string is not a topological order of the task graph")
				}
				c := sys.CommCost(pu, int(s.proc[to]), succData[k])
				s.succComm[k] = c
				s.predComm[sMirror[k]] = c
			}
		}
		for i, v := range order {
			s.topo[i] = int32(v)
		}
	} else {
		for u := 0; u < n; u++ {
			pu := int(s.proc[u])
			for k := succOff[u]; k < succOff[u+1]; k++ {
				c := sys.CommCost(pu, int(s.proc[succTo[k]]), succData[k])
				s.succComm[k] = c
				s.predComm[sMirror[k]] = c
			}
		}
		// FIFO Kahn over G_s, writing the queue directly into topo; a
		// shortfall means the processor orders induced a cycle.
		predOff := arcs.predOff
		indeg := sc.cursor[:n]
		for v := 0; v < n; v++ {
			d := predOff[v+1] - predOff[v]
			if s.dpred[v] >= 0 {
				d++
			}
			indeg[v] = d
		}
		qlen := 0
		for v := 0; v < n; v++ {
			if indeg[v] == 0 {
				s.topo[qlen] = int32(v)
				qlen++
			}
		}
		for head := 0; head < qlen; head++ {
			v := int(s.topo[head])
			for k := succOff[v]; k < succOff[v+1]; k++ {
				to := succTo[k]
				indeg[to]--
				if indeg[to] == 0 {
					s.topo[qlen] = to
					qlen++
				}
			}
			if u := s.dsucc[v]; u >= 0 {
				indeg[u]--
				if indeg[u] == 0 {
					s.topo[qlen] = u
					qlen++
				}
			}
		}
		if qlen != n {
			return fmt.Errorf("schedule: processor orders conflict with precedence constraints (disjunctive graph is cyclic)")
		}
	}

	// Expected-duration analysis: ASAP start/finish, makespan M0, bottom
	// levels and slack (Definition 3.3).
	for v := 0; v < n; v++ {
		s.expDur[v] = w.ExpectedAt(v, int(s.proc[v]))
	}
	s.makespan = s.forward(s.expDur, s.start, s.finish)
	s.backward(s.expDur, s.bl)
	sum := 0.0
	s.minSlack = 0
	for v := 0; v < n; v++ {
		sl := s.makespan - s.bl[v] - s.start[v]
		// Clamp the tiny negative values floating-point subtraction can
		// produce on critical-path nodes.
		if sl < 0 && sl > -1e-9 {
			sl = 0
		}
		s.slack[v] = sl
		sum += sl
		if v == 0 || sl < s.minSlack {
			s.minSlack = sl
		}
	}
	s.avgSlack = sum / float64(n)
	return nil
}

// buildInto keeps the legacy entry point used by New.
func buildInto(s *Schedule, w *platform.Workload, sc *decodeScratch, order []int) error {
	return buildWith(s, w, arcsFor(w.G), sc, order)
}
