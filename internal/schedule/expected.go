package schedule

import (
	"errors"
	"fmt"

	"robsched/internal/platform"
)

// analysis is a schedule's analysis under expected durations (Definition
// 3.3): each task's expected duration on its processor, its ASAP start
// (the top level Tl) and finish, its bottom level Bl and slack, the
// makespan M0 with the average and minimum slack, and the communication
// cost of every data arc those passes read. Schedule embeds one over its
// float arena; Decoder.Metrics runs one over pooled scratch. Both fill it
// with run, the one implementation of the expected-duration analysis.
type analysis struct {
	succComm []float64 // communication cost of each data arc, parallel to arcs.succTo
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
// hold 5n+nE values, and returns what is left of it.
func (a *analysis) carve(floats []float64, n, nE int) []float64 {
	a.succComm, floats = carveF(floats, nE)
	a.expDur, floats = carveF(floats, n)
	a.start, floats = carveF(floats, n)
	a.finish, floats = carveF(floats, n)
	a.bl, floats = carveF(floats, n)
	a.slack, floats = carveF(floats, n)
	return floats
}

var errNotTopological = errors.New("schedule: scheduling string is not a topological order of the task graph")

// run analyses the schedule in which every processor executes its tasks
// (proc[v] for task v) in their relative order within order. pos must hold
// the position of each task in order, which checkChromosome has shown to
// be a permutation with in-range processors; plast is scratch of m entries.
// An arc to a task placed earlier in order is a precedence inversion and
// fails the run.
//
// The disjunctive predecessor of a task is the previous task of order on
// its processor, with no test for a data arc between the two. That is
// exact: such an arc costs CommCost(p, p, ·) = 0, so it offers the same
// finish time (forward) or bottom level (backward) the disjunctive arc
// does, and the duplicate changes no maximum. The passes take maxima in a
// different order than Schedule.forward and backward do, which a maximum
// does not see; every sum keeps their operands.
func (a *analysis) run(w *platform.Workload, arcs *arcSet, order, proc []int, pos, plast []int32) error {
	sys := w.Sys
	n := len(order)
	succOff, succTo, succData := arcs.succOff, arcs.succTo, arcs.succData
	comm, dur, start, finish, bl := a.succComm, a.expDur[:n], a.start[:n], a.finish[:n], a.bl[:n]

	// Forward, in string order: each task takes the latest arrival its
	// predecessors pushed and pushes its own finish plus the arc's
	// communication cost, computed here once per arc, to its successors.
	clear(start)
	for p := range plast {
		plast[p] = -1
	}
	makespan := 0.0
	for i, v := range order {
		p := proc[v]
		st := start[v]
		if u := plast[p]; u >= 0 {
			if t := finish[u]; t > st {
				st = t
			}
		}
		plast[p] = int32(v)
		d := w.ExpectedAt(v, p)
		f := st + d
		dur[v], start[v], finish[v] = d, st, f
		if f > makespan {
			makespan = f
		}
		for k := succOff[v]; k < succOff[v+1]; k++ {
			to := succTo[k]
			if pos[to] < int32(i) {
				return errNotTopological
			}
			c := sys.CommCost(p, proc[to], succData[k])
			comm[k] = c
			if t := f + c; t > start[to] {
				start[to] = t
			}
		}
	}

	// Backward, in reverse string order over the stored costs; plast now
	// holds the next task on each processor.
	for p := range plast {
		plast[p] = -1
	}
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		best := 0.0
		for k := succOff[v]; k < succOff[v+1]; k++ {
			if c := comm[k] + bl[succTo[k]]; c > best {
				best = c
			}
		}
		p := proc[v]
		if u := plast[p]; u >= 0 {
			if c := bl[u]; c > best {
				best = c
			}
		}
		plast[p] = int32(v)
		bl[v] = dur[v] + best
	}

	a.makespan = makespan
	a.avgSlack, a.minSlack = slackInto(a.slack[:n], makespan, start, bl)
	return nil
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
// MinSlack — without building that schedule. It rejects exactly the
// chromosomes DecodeInto rejects, with the same errors, and allocates
// nothing once the pooled scratch has grown to the workload.
func (d *Decoder) Metrics(order, proc []int) (m0, avgSlack, minSlack float64, err error) {
	n, m := d.w.N(), d.w.M()
	sc := getScratch(n, m)
	defer putScratch(sc)
	pos := sc.pos[:n]
	if err := checkChromosome(n, m, order, proc, pos); err != nil {
		return 0, 0, 0, err
	}
	a := &sc.an
	nE := len(d.arcs.succTo)
	if k := 5*n + nE; cap(sc.floats) < k {
		sc.floats = make([]float64, k)
	}
	a.carve(sc.floats, n, nE)
	if err := a.run(d.w, d.arcs, order, proc, pos, sc.plast[:m]); err != nil {
		return 0, 0, 0, err
	}
	return a.makespan, a.avgSlack, a.minSlack, nil
}
