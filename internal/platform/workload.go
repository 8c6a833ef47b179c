package platform

import (
	"fmt"
	"math"

	"robsched/internal/dag"
)

// Workload bundles everything a scheduler and the Monte-Carlo evaluator need
// about one problem instance: the task graph, the platform, the best-case
// execution times and the uncertainty levels.
type Workload struct {
	G    *dag.Graph
	Sys  *System
	BCET Matrix // n×m: b_ij, best-case execution time of task i on processor j
	UL   Matrix // n×m: UL_ij >= 1, uncertainty level of task i on processor j

	expected Matrix // cached UL ∘ BCET
}

// NewWorkload validates dimensions and value ranges and returns the bundle.
// BCET entries must be finite and positive, and UL entries finite and
// >= 1, so that the duration distribution U(b, (2*UL-1)*b) has a
// non-negative width. Each pair's expected duration UL*b and worst case
// (2*UL-1)*b must also be finite: two finite entries can overflow.
func NewWorkload(g *dag.Graph, sys *System, bcet, ul Matrix) (*Workload, error) {
	if g == nil || sys == nil {
		return nil, fmt.Errorf("platform: workload needs a graph and a system")
	}
	n, m := g.N(), sys.M()
	if bcet.Rows() != n || bcet.Cols() != m {
		return nil, fmt.Errorf("platform: BCET matrix is %dx%d, want %dx%d", bcet.Rows(), bcet.Cols(), n, m)
	}
	if ul.Rows() != n || ul.Cols() != m {
		return nil, fmt.Errorf("platform: UL matrix is %dx%d, want %dx%d", ul.Rows(), ul.Cols(), n, m)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			b, u := bcet.At(i, j), ul.At(i, j)
			if !(b > 0) || math.IsInf(b, 1) {
				return nil, fmt.Errorf("platform: BCET %g for task %d on processor %d is not finite and positive", b, i, j)
			}
			if !(u >= 1) || math.IsInf(u, 1) {
				return nil, fmt.Errorf("platform: uncertainty level %g for task %d on processor %d is not finite and >= 1", u, i, j)
			}
			// (2*UL-1)*b is at least UL*b, so a finite worst case also
			// bounds the expected duration.
			if math.IsInf((2*u-1)*b, 1) {
				return nil, fmt.Errorf("platform: BCET %g and uncertainty level %g for task %d on processor %d overflow the worst-case duration", b, u, i, j)
			}
		}
	}
	w := &Workload{G: g, Sys: sys, BCET: bcet.Clone(), UL: ul.Clone()}
	w.expected = w.BCET.Hadamard(w.UL)
	return w, nil
}

// DeterministicWorkload builds a workload with UL == 1 everywhere, i.e. the
// classical deterministic scheduling model where real durations equal the
// supplied execution-time matrix exactly.
func DeterministicWorkload(g *dag.Graph, sys *System, exec Matrix) (*Workload, error) {
	ul := NewMatrix(exec.Rows(), exec.Cols())
	ul.Fill(1)
	return NewWorkload(g, sys, exec, ul)
}

// N returns the number of tasks.
func (w *Workload) N() int { return w.G.N() }

// M returns the number of processors.
func (w *Workload) M() int { return w.Sys.M() }

// Expected returns the expected execution time matrix W = UL ∘ BCET, the
// durations a deterministic scheduler is fed. The returned matrix is shared;
// callers must not modify it.
func (w *Workload) Expected() Matrix { return w.expected }

// ExpectedAt returns the expected duration of task i on processor p.
func (w *Workload) ExpectedAt(i, p int) float64 { return w.expected.At(i, p) }

// MeanExpected returns task i's expected duration averaged over processors,
// the quantity HEFT uses for upward ranks.
func (w *Workload) MeanExpected(i int) float64 { return w.expected.RowMean(i) }

// uniformSource is the sampling capability SampleDuration needs; *rng.Source
// satisfies it.
type uniformSource interface {
	Uniform(a, b float64) float64
}

// SampleDuration draws one realization of task i's duration on processor p:
// U(b, (2*UL - 1)*b). With UL == 1 the distribution degenerates to exactly b.
func (w *Workload) SampleDuration(i, p int, r uniformSource) float64 {
	b := w.BCET.At(i, p)
	hi := (2*w.UL.At(i, p) - 1) * b
	if hi <= b {
		return b
	}
	return r.Uniform(b, hi)
}

// CCR returns the workload's realized communication-to-computation ratio:
// mean communication cost per edge (at the system's mean rate) divided by
// mean expected computation cost per task. Zero-edge graphs report 0.
func (w *Workload) CCR() float64 {
	edges := w.G.Edges()
	if len(edges) == 0 {
		return 0
	}
	comm := 0.0
	for _, e := range edges {
		comm += w.Sys.MeanCommCost(e.Data)
	}
	comm /= float64(len(edges))
	comp := 0.0
	for i := 0; i < w.N(); i++ {
		comp += w.MeanExpected(i)
	}
	comp /= float64(w.N())
	return comm / comp
}
