// Package gen generates the workloads of the paper's evaluation
// (Section 5): layered random task graphs parameterized by size, shape,
// average computation cost and communication-to-computation ratio (the
// generator of Shi & Dongarra, FGCS 2006, itself in the Topcuoglu et al.
// family), best-case execution time matrices from the coefficient-of-
// variation heterogeneity model of Ali et al. (HCW 2000), and the two-level
// Gamma uncertainty-level matrices of Section 5. It also provides the fixed
// structured graphs (Gaussian elimination, FFT butterfly, fork-join,
// pipeline stencil) used by the example programs.
package gen

import (
	"fmt"
	"math"

	"robsched/internal/dag"
	"robsched/internal/platform"
	"robsched/internal/rng"
)

// Params collects every knob of the paper's workload generator, with
// PaperParams giving the values used in Section 5.
type Params struct {
	// Graph shape.
	N           int     // number of tasks (paper: 100)
	Shape       float64 // shape parameter α: mean height is sqrt(N)/α (paper: 1.0)
	MaxInDegree int     // cap on sampled predecessors per non-entry task (default 5)

	// Costs.
	CC  float64 // average computation cost = µ_task of the COV model (paper: 20)
	CCR float64 // communication-to-computation ratio (paper: 0.1)

	// Heterogeneity (COV model, Ali et al.).
	VTask float64 // task heterogeneity (paper: 0.5)
	VMach float64 // machine heterogeneity (paper: 0.5)

	// Uncertainty levels (two-level Gamma model, Section 5).
	MeanUL float64 // average uncertainty level UL (paper sweeps 2..8)
	V1     float64 // COV of per-task expected uncertainty levels (paper: 0.5)
	V2     float64 // COV of per-(task,proc) levels around the task's (paper: 0.5)

	// Platform.
	M    int     // number of processors (paper does not state it; default 8)
	Rate float64 // uniform inter-processor transfer rate (default 1.0)
}

// PaperParams returns the parameter set of the paper's experiments with
// MeanUL left at 2.0 (the experiments sweep it).
func PaperParams() Params {
	return Params{
		N: 100, Shape: 1.0, MaxInDegree: 5,
		CC: 20, CCR: 0.1,
		VTask: 0.5, VMach: 0.5,
		MeanUL: 2.0, V1: 0.5, V2: 0.5,
		M: 8, Rate: 1.0,
	}
}

// Validate reports the first invalid field, naming it. Each float check is
// written so that NaN fails it.
func (p Params) Validate() error {
	switch {
	case p.N <= 0:
		return fmt.Errorf("gen: N=%d must be positive", p.N)
	case !(p.Shape > 0) || math.IsInf(p.Shape, 1):
		return fmt.Errorf("gen: Shape=%g must be positive and finite", p.Shape)
	case !(p.CC > 0):
		return fmt.Errorf("gen: CC=%g must be positive", p.CC)
	case !(p.CCR >= 0):
		return fmt.Errorf("gen: CCR=%g must be non-negative", p.CCR)
	case !(p.VTask > 0):
		return fmt.Errorf("gen: VTask=%g must be positive", p.VTask)
	case !(p.VMach > 0):
		return fmt.Errorf("gen: VMach=%g must be positive", p.VMach)
	case !(p.MeanUL >= 1):
		return fmt.Errorf("gen: MeanUL=%g must be >= 1", p.MeanUL)
	case !(p.V1 > 0):
		return fmt.Errorf("gen: V1=%g must be positive", p.V1)
	case !(p.V2 > 0):
		return fmt.Errorf("gen: V2=%g must be positive", p.V2)
	case p.M <= 0:
		return fmt.Errorf("gen: M=%d must be positive", p.M)
	case !(p.Rate > 0) || math.IsInf(p.Rate, 1):
		return fmt.Errorf("gen: Rate=%g must be positive and finite", p.Rate)
	}
	return nil
}

// Random generates one complete workload instance: graph, platform, BCET and
// UL matrices.
func Random(p Params, r *rng.Source) (*platform.Workload, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g, err := RandomGraph(p, r)
	if err != nil {
		return nil, err
	}
	sys := platform.UniformSystem(p.M, p.Rate)
	bcet := ExecMatrix(g.N(), p.M, p.CC, p.VTask, p.VMach, r)
	ul := ULMatrix(g.N(), p.M, p.MeanUL, p.V1, p.V2, r)
	return platform.NewWorkload(g, sys, bcet, ul)
}

// RandomGraph generates a layered random DAG:
//
//   - the number of levels is sampled uniformly with mean sqrt(N)/Shape
//     (small Shape → tall thin graphs, large Shape → short wide ones);
//   - the N tasks are spread over the levels uniformly at random, with
//     every level guaranteed at least one task;
//   - each non-first-level task draws 1 + Intn(MaxInDegree) predecessors,
//     always including one from the immediately preceding level so every
//     level advances the critical path, the rest uniformly among all
//     earlier tasks;
//   - each edge carries data sized so its mean communication cost at the
//     platform's transfer rate Rate is CC·CCR (sampled U(0, 2·CC·CCR)·Rate).
func RandomGraph(p Params, r *rng.Source) (*dag.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N
	if n == 1 {
		return dag.NewBuilder(1).Build()
	}
	// The draw's upper end is at least 1: a Shape above 2·sqrt(N) asks for
	// fewer than one level. The count is clamped to n before it becomes an
	// int, since a tiny Shape draws a level count far beyond any int (+Inf,
	// or NaN from Inf·0, at a subnormal one).
	meanHeight := math.Sqrt(float64(n)) / p.Shape
	levels := n
	if x := math.Round(r.Uniform(1, max(1, 2*meanHeight))); x < float64(n) {
		// With at least two tasks, keep at least two levels so the graph
		// is a proper DAG with dependencies rather than an independent
		// task set.
		levels = max(int(x), 2)
	}
	// Assign each task a level; force at least one task per level by
	// seeding the first `levels` tasks one per level, then spreading the
	// rest uniformly.
	levelOf := make([]int, n)
	for v := 0; v < levels; v++ {
		levelOf[v] = v
	}
	for v := levels; v < n; v++ {
		levelOf[v] = r.Intn(levels)
	}
	// Shuffle identities so task ids do not encode levels.
	perm := r.Perm(n)
	byLevel := make([][]int, levels)
	for v := 0; v < n; v++ {
		l := levelOf[v]
		byLevel[l] = append(byLevel[l], perm[v])
	}
	maxIn := p.MaxInDegree
	if maxIn <= 0 {
		maxIn = 5
	}
	meanComm := p.CC * p.CCR
	sampleData := func() float64 {
		if meanComm == 0 {
			return 0
		}
		return r.Uniform(0, 2*meanComm) * p.Rate
	}
	b := dag.NewBuilder(n)
	var earlier []int
	for l := 1; l < levels; l++ {
		earlier = append(earlier, byLevel[l-1]...)
		prev := byLevel[l-1]
		for _, v := range byLevel[l] {
			// Guaranteed parent from the previous level.
			first := prev[r.Intn(len(prev))]
			if err := b.AddEdge(first, v, sampleData()); err != nil {
				return nil, err
			}
			extra := r.Intn(maxIn)
			for k := 0; k < extra; k++ {
				u := earlier[r.Intn(len(earlier))]
				// Duplicate edges are simply skipped.
				_ = b.AddEdge(u, v, sampleData())
			}
		}
	}
	return b.Build()
}

// ExecMatrix generates an n×m execution-time matrix with the COV-based
// method of Ali et al.: each task i draws a mean q_i from a Gamma
// distribution with mean muTask and COV vTask, and its time on each machine
// from a Gamma with mean q_i and COV vMach.
func ExecMatrix(n, m int, muTask, vTask, vMach float64, r *rng.Source) platform.Matrix {
	out := platform.NewMatrix(n, m)
	for i := 0; i < n; i++ {
		q := r.GammaMeanCOV(muTask, vTask)
		for j := 0; j < m; j++ {
			out.Set(i, j, r.GammaMeanCOV(q, vMach))
		}
	}
	return out
}

// ULMatrix generates the n×m uncertainty-level matrix of Section 5: a
// per-task expected level q_i ~ Gamma(mean meanUL, COV v1), then
// UL_ij ~ Gamma(mean q_i, COV v2), clamped to >= 1 so the duration
// distribution U(b, (2UL-1)b) stays well formed.
func ULMatrix(n, m int, meanUL, v1, v2 float64, r *rng.Source) platform.Matrix {
	out := platform.NewMatrix(n, m)
	for i := 0; i < n; i++ {
		q := r.GammaMeanCOV(meanUL, v1)
		if q < 1 {
			q = 1
		}
		for j := 0; j < m; j++ {
			ul := r.GammaMeanCOV(q, v2)
			if ul < 1 {
				ul = 1
			}
			out.Set(i, j, ul)
		}
	}
	return out
}
