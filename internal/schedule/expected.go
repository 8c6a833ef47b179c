package schedule

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"robsched/internal/platform"
)

// analysis is a schedule's analysis under expected durations (Definition
// 3.3): each task's expected duration on its processor, its ASAP start
// (the top level Tl) and finish, its bottom level Bl and slack, and the
// makespan M0 with the average and minimum slack. Schedule embeds one over
// its float arena; Decoder.MetricsUpTo runs one over pooled scratch. Both
// fill it with run, the one implementation of the expected-duration
// analysis.
type analysis struct {
	expDur   []float64 // expected duration of each task on its processor
	start    []float64 // earliest (ASAP) start times; equals top level
	finish   []float64
	bl       []float64 // bottom levels (including own duration)
	slack    []float64 // σ_i = M - Bl(i) - Tl(i)
	makespan float64   // M0(s)
	avgSlack float64
	minSlack float64
}

// carve points a's vectors at consecutive windows of floats, which must
// hold 5n values, and returns what is left of it.
func (a *analysis) carve(floats []float64, n int) []float64 {
	a.expDur, floats = carveF(floats, n)
	a.start, floats = carveF(floats, n)
	a.finish, floats = carveF(floats, n)
	a.bl, floats = carveF(floats, n)
	a.slack, floats = carveF(floats, n)
	return floats
}

var errNotTopological = errors.New("schedule: scheduling string is not a topological order of the task graph")

// costTables holds what the analysis reads of a workload, built once per
// workload: the expected durations, and the communication cost of every
// data arc in both CSR directions at each processor pair, stored once per
// distinct transfer rate. Each arc has a row of cols costs: column 0 is 0,
// the cost on one processor, and column r > 0 is the arc's data over the
// system's r-th distinct rate. An m×m index gives the column of each
// processor pair. A system built by UniformSystem has one distinct rate,
// so a row holds two costs; any system has at most m(m−1) distinct rates.
// Each cost is System.CommCost's division data/rate, or its 0 when both
// ends share a processor, so it has the bits CommCost returns.
type costTables struct {
	arcs  *arcSet
	m     int
	dur   []float64 // n×m expected durations, row-major
	col   []int32   // m×m: the column of processor pair (p, q); 0 when p == q
	cols  int
	succQ []float64 // succQ[k*cols+c]: succ arc k's cost in column c
	predQ []float64 // predQ[j*cols+c]: pred arc j's cost in column c
}

func newCostTables(w *platform.Workload, arcs *arcSet) *costTables {
	n, m := w.N(), w.M()
	t := &costTables{arcs: arcs, m: m, dur: make([]float64, n*m), col: make([]int32, m*m)}
	for v := 0; v < n; v++ {
		copy(t.dur[v*m:(v+1)*m], w.Expected().Row(v))
	}
	rates := []float64{0} // column 0 holds no rate
	index := make(map[float64]int32)
	for p := 0; p < m; p++ {
		for q := 0; q < m; q++ {
			if p == q {
				continue
			}
			x := w.Sys.Rate(p, q)
			c, ok := index[x]
			if !ok {
				c = int32(len(rates))
				index[x] = c
				rates = append(rates, x)
			}
			t.col[p*m+q] = c
		}
	}
	cols := len(rates)
	t.cols = cols
	t.succQ = make([]float64, len(arcs.succData)*cols)
	t.predQ = make([]float64, len(arcs.succData)*cols)
	for k, data := range arcs.succData {
		j := int(arcs.sMirror[k])
		for c := 1; c < cols; c++ {
			t.succQ[k*cols+c] = data / rates[c]
			t.predQ[j*cols+c] = data / rates[c]
		}
	}
	return t
}

// tableCache memoizes the data-arc CSR and the cost tables of each
// workload. A workload does not change once NewWorkload has built it (it
// caches its expected durations the same way), so pointer identity is a
// sound key. The cache is bounded: at capacity it is reset wholesale
// rather than evicted, which keeps long-running processes that churn
// through many workloads from pinning every one forever.
var tableCache = struct {
	sync.Mutex
	m map[*platform.Workload]*costTables
}{m: make(map[*platform.Workload]*costTables)}

const tableCacheCap = 64

func tablesFor(w *platform.Workload) *costTables {
	tableCache.Lock()
	t := tableCache.m[w]
	if t == nil {
		t = newCostTables(w, newArcSet(w.G))
		if len(tableCache.m) >= tableCacheCap {
			tableCache.m = make(map[*platform.Workload]*costTables)
		}
		tableCache.m[w] = t
	}
	tableCache.Unlock()
	return t
}

// run analyses the schedule in which every processor executes its tasks
// (proc[v] for task v) in their relative order within order, and reports
// whether it computed the slacks. pos must hold the position of each task
// in order, which checkChromosome has shown to be a permutation with
// in-range processors; plast is scratch of m entries. An arc from a task
// placed later in order is a precedence inversion and fails the run.
//
// The analysis has two passes. The forward pass gives the start and finish
// times and the makespan M0. The backward pass gives the bottom levels,
// then the slacks and their average and minimum; it runs only when
// M0 <= upTo, and otherwise the average and minimum slack are NaN. A
// caller whose objective reads only M0 above some bound passes that bound.
//
// Both passes pull: a task's start is the latest of its processor
// predecessor's finish and, over its pred arcs, the source's finish plus
// the arc's cost; its bottom level adds its duration to the largest of its
// processor successor's bottom level and, over its succ arcs, the arc's
// cost plus the target's bottom level. The processor neighbour is the
// adjacent task of order on the processor, with no test for a data arc
// between the two. That is exact: such an arc costs 0, so it offers the
// same finish time or bottom level the disjunctive arc does, and the
// duplicate changes no maximum. The maxima are the builtin max, which
// differs from compare-and-store only on a NaN or −0 operand, and there is
// none: expected durations are positive and costs non-negative. Adding a
// zero cost changes no bit for the same reason. Every sum keeps the
// operands of Schedule.forward and backward.
func (a *analysis) run(t *costTables, order, proc []int, pos, plast []int32, upTo float64) (bool, error) {
	if err := a.topLevels(t, order, proc, pos, plast); err != nil {
		return false, err
	}
	if !(a.makespan <= upTo) {
		a.avgSlack, a.minSlack = math.NaN(), math.NaN()
		return false, nil
	}
	a.bottomLevels(t, order, proc, plast)
	return true, nil
}

// topLevels is run's forward pass, in string order: the start times (top
// levels), the finish times and the makespan. plast holds the previous
// task on each processor.
func (a *analysis) topLevels(t *costTables, order, proc []int, pos, plast []int32) error {
	n, m, cols := len(order), t.m, t.cols
	col, durs := t.col, t.dur
	dur, start, finish := a.expDur[:n], a.start[:n], a.finish[:n]
	predOff, predTo, predQ := t.arcs.predOff, t.arcs.predTo, t.predQ
	for p := range plast {
		plast[p] = -1
	}
	makespan := 0.0
	for i, v := range order {
		p := proc[v]
		st := 0.0
		if u := plast[p]; u >= 0 {
			st = finish[u]
		}
		plast[p] = int32(v)
		for j := predOff[v]; j < predOff[v+1]; j++ {
			u := predTo[j]
			if pos[u] > int32(i) {
				return errNotTopological
			}
			st = max(st, finish[u]+predQ[int(j)*cols+int(col[proc[u]*m+p])])
		}
		d := durs[v*m+p]
		f := st + d
		dur[v], start[v], finish[v] = d, st, f
		makespan = max(makespan, f)
	}
	a.makespan = makespan
	return nil
}

// bottomLevels is run's backward pass, in reverse string order: the bottom
// levels, then the slacks. plast holds the next task on each processor.
func (a *analysis) bottomLevels(t *costTables, order, proc []int, plast []int32) {
	n, m, cols := len(order), t.m, t.cols
	col := t.col
	dur, bl := a.expDur[:n], a.bl[:n]
	succOff, succTo, succQ := t.arcs.succOff, t.arcs.succTo, t.succQ
	for p := range plast {
		plast[p] = -1
	}
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		p := proc[v]
		best := 0.0
		if u := plast[p]; u >= 0 {
			best = bl[u]
		}
		plast[p] = int32(v)
		out := col[p*m : p*m+m]
		for k := succOff[v]; k < succOff[v+1]; k++ {
			to := succTo[k]
			best = max(best, succQ[int(k)*cols+int(out[proc[to]])]+bl[to])
		}
		bl[v] = dur[v] + best
	}
	a.avgSlack, a.minSlack = slackInto(a.slack[:n], a.makespan, a.start[:n], bl)
}

// slackInto fills slack with σ_v = M − Bl(v) − Tl(v) (Definition 3.3) for
// start times Tl and bottom levels Bl, and returns the average and the
// minimum. The sum runs in task-id order: summing in any other order can
// move the average by an ulp.
func slackInto(slack []float64, makespan float64, start, bl []float64) (avg, lowest float64) {
	sum := 0.0
	for v := range slack {
		sl := makespan - bl[v] - start[v]
		// Clamp the tiny negative values floating-point subtraction can
		// produce on critical-path nodes.
		if sl < 0 && sl > -1e-9 {
			sl = 0
		}
		slack[v] = sl
		sum += sl
		if v == 0 || sl < lowest {
			lowest = sl
		}
	}
	return sum / float64(len(slack)), lowest
}

// checkChromosome validates a chromosome's shape for n tasks on m
// processors — lengths, that order is a permutation of the tasks, that
// every processor is in range — and fills pos with each task's position
// in order. Precedence is left to the analysis's forward pass.
func checkChromosome(n, m int, order, proc []int, pos []int32) error {
	if len(order) != n {
		return fmt.Errorf("schedule: scheduling string has %d entries, want %d", len(order), n)
	}
	if len(proc) != n {
		return fmt.Errorf("schedule: proc has %d entries, want %d", len(proc), n)
	}
	for v := range pos {
		pos[v] = -1
	}
	for i, v := range order {
		if v < 0 || v >= n || pos[v] != -1 {
			return fmt.Errorf("schedule: scheduling string is not a permutation of the tasks")
		}
		pos[v] = int32(i)
	}
	for v, p := range proc {
		if p < 0 || p >= m {
			return fmt.Errorf("schedule: task %d assigned to processor %d out of range [0,%d)", v, p, m)
		}
	}
	return nil
}

// Metrics returns the expected makespan M0, the average slack and the
// minimum slack of the chromosome (order, proc) — bit for bit what the
// schedule DecodeInto builds would report as Makespan, AvgSlack and
// MinSlack — without building that schedule. It is MetricsUpTo with no
// bound.
func (d *Decoder) Metrics(order, proc []int) (m0, avgSlack, minSlack float64, err error) {
	m0, avgSlack, minSlack, _, err = d.MetricsUpTo(order, proc, math.Inf(1))
	return m0, avgSlack, minSlack, err
}

// MetricsUpTo is Metrics for a caller that reads the slacks only when
// M0 <= upTo: it computes them only then, and full reports whether it did.
// Otherwise avgSlack and minSlack are NaN, and the analysis stops after
// the pass that gives M0. It rejects exactly the chromosomes DecodeInto
// rejects, with the same errors, and allocates nothing once the pooled
// scratch has grown to the workload.
func (d *Decoder) MetricsUpTo(order, proc []int, upTo float64) (m0, avgSlack, minSlack float64, full bool, err error) {
	n, m := d.w.N(), d.w.M()
	sc := getScratch(n, m)
	defer putScratch(sc)
	pos := sc.pos[:n]
	if err := checkChromosome(n, m, order, proc, pos); err != nil {
		return 0, 0, 0, false, err
	}
	a := &sc.an
	if cap(sc.floats) < 5*n {
		sc.floats = make([]float64, 5*n)
	}
	a.carve(sc.floats, n)
	full, err = a.run(d.t, order, proc, pos, sc.plast[:m], upTo)
	if err != nil {
		return 0, 0, 0, false, err
	}
	return a.makespan, a.avgSlack, a.minSlack, full, nil
}
