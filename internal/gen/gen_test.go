package gen

import (
	"math"
	"strings"
	"testing"

	"robsched/internal/rng"
)

// TestParamsValidate: every invalid field is rejected with an error naming
// it, NaN and infinite values included.
func TestParamsValidate(t *testing.T) {
	good := PaperParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("PaperParams invalid: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		mut   func(*Params)
	}{
		{"N", func(p *Params) { p.N = 0 }},
		{"Shape", func(p *Params) { p.Shape = 0 }},
		{"Shape", func(p *Params) { p.Shape = nan }},
		{"Shape", func(p *Params) { p.Shape = inf }},
		{"CC", func(p *Params) { p.CC = -1 }},
		{"CC", func(p *Params) { p.CC = nan }},
		{"CCR", func(p *Params) { p.CCR = -0.1 }},
		{"CCR", func(p *Params) { p.CCR = nan }},
		{"VTask", func(p *Params) { p.VTask = 0 }},
		{"VTask", func(p *Params) { p.VTask = nan }},
		{"VMach", func(p *Params) { p.VMach = 0 }},
		{"VMach", func(p *Params) { p.VMach = nan }},
		{"MeanUL", func(p *Params) { p.MeanUL = 0.5 }},
		{"MeanUL", func(p *Params) { p.MeanUL = nan }},
		{"V1", func(p *Params) { p.V1 = 0 }},
		{"V1", func(p *Params) { p.V1 = nan }},
		{"V2", func(p *Params) { p.V2 = -1 }},
		{"V2", func(p *Params) { p.V2 = nan }},
		{"M", func(p *Params) { p.M = 0 }},
		{"Rate", func(p *Params) { p.Rate = 0 }},
		{"Rate", func(p *Params) { p.Rate = nan }},
		{"Rate", func(p *Params) { p.Rate = inf }},
	} {
		p := PaperParams()
		tc.mut(&p)
		if err := p.Validate(); err == nil || !strings.HasPrefix(err.Error(), "gen: "+tc.field+"=") {
			t.Errorf("%s: err = %v, want an error naming %s", tc.field, err, tc.field)
		}
	}
	// A NaN or infinite rate with no communication used to reach
	// platform.UniformSystem, which panics on it.
	for _, rate := range []float64{nan, inf} {
		p := PaperParams()
		p.N, p.CCR, p.Rate = 10, 0, rate
		if _, err := Random(p, rng.New(1)); err == nil {
			t.Errorf("Random accepted Rate=%g", rate)
		}
	}
}

// TestRandomGraphExtremeShapes: a Shape above 2·sqrt(N) builds two levels
// instead of panicking in the level draw, and a tiny one builds N levels
// (a chain) instead of overflowing the level count.
func TestRandomGraphExtremeShapes(t *testing.T) {
	for _, tc := range []struct {
		shape float64
		depth int
	}{{9, 2}, {1e6, 2}, {1e-300, 20}, {5e-324, 20}} {
		p := PaperParams()
		p.N, p.Shape = 20, tc.shape
		g, err := RandomGraph(p, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if d := g.Depth(); d != tc.depth {
			t.Errorf("Shape=%g: depth %d, want %d", tc.shape, d, tc.depth)
		}
	}
}

func TestRandomGraphShape(t *testing.T) {
	r := rng.New(1)
	p := PaperParams()
	for trial := 0; trial < 20; trial++ {
		g, err := RandomGraph(p, r)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != p.N {
			t.Fatalf("N = %d, want %d", g.N(), p.N)
		}
		if !g.IsTopologicalOrder(g.TopologicalOrder()) {
			t.Fatal("generated graph has invalid topological order")
		}
		// Connectivity property: only level-0 tasks are entries, i.e. every
		// level > 0 task has a predecessor; and the graph has at least one
		// edge for n=100.
		if g.EdgeCount() == 0 {
			t.Fatal("no edges generated for n=100")
		}
		// Depth must not exceed the level count implied by construction.
		if d := g.Depth(); d < 1 || d > p.N {
			t.Fatalf("depth %d out of range", d)
		}
	}
}

func TestRandomGraphSingleNode(t *testing.T) {
	p := PaperParams()
	p.N = 1
	g, err := RandomGraph(p, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1 || g.EdgeCount() != 0 {
		t.Fatalf("n=%d edges=%d", g.N(), g.EdgeCount())
	}
}

func TestRandomGraphShapeParameterEffect(t *testing.T) {
	// Small Shape → tall graphs; large Shape → short wide graphs, on
	// average over several samples.
	r := rng.New(3)
	depthAt := func(shape float64) float64 {
		p := PaperParams()
		p.Shape = shape
		total := 0
		const trials = 30
		for i := 0; i < trials; i++ {
			g, err := RandomGraph(p, r)
			if err != nil {
				t.Fatal(err)
			}
			total += g.Depth()
		}
		return float64(total) / trials
	}
	tall := depthAt(0.5) // mean height 20
	wide := depthAt(2.0) // mean height 5
	if tall <= wide {
		t.Fatalf("shape parameter has no effect: depth(α=0.5)=%g <= depth(α=2)=%g", tall, wide)
	}
}

func TestRandomWorkloadCCR(t *testing.T) {
	// The realized CCR should be near the requested one on average. CCR is
	// defined against expected computation cost, which is MeanUL times the
	// BCET-based cc, so the realized value is CCR/MeanUL up to noise.
	r := rng.New(5)
	p := PaperParams()
	p.MeanUL = 1 // make realized CCR directly comparable
	p.V1, p.V2 = 0.5, 0.5
	var sum float64
	const trials = 30
	for i := 0; i < trials; i++ {
		w, err := Random(p, r)
		if err != nil {
			t.Fatal(err)
		}
		sum += w.CCR()
	}
	mean := sum / trials
	if mean < 0.05 || mean > 0.2 {
		t.Fatalf("realized CCR = %g, want near %g", mean, p.CCR)
	}
}

func TestExecMatrixMoments(t *testing.T) {
	r := rng.New(7)
	const n, m = 400, 8
	const mu, vt, vm = 20.0, 0.5, 0.5
	b := ExecMatrix(n, m, mu, vt, vm, r)
	if b.Rows() != n || b.Cols() != m {
		t.Fatalf("shape %dx%d", b.Rows(), b.Cols())
	}
	// Overall mean ≈ mu.
	if mean := b.Mean(); math.Abs(mean-mu) > 1.5 {
		t.Errorf("mean = %g, want ~%g", mean, mu)
	}
	if b.Min() <= 0 {
		t.Errorf("non-positive execution time %g", b.Min())
	}
	// Task heterogeneity: row means should vary with COV ≈ vt. Estimate
	// the COV of row means (machine noise shrinks as 1/sqrt(m), so allow
	// slack).
	var rm []float64
	for i := 0; i < n; i++ {
		rm = append(rm, b.RowMean(i))
	}
	var s, s2 float64
	for _, x := range rm {
		s += x
		s2 += x * x
	}
	meanRM := s / n
	cov := math.Sqrt(s2/float64(n)-meanRM*meanRM) / meanRM
	if cov < 0.3 || cov > 0.7 {
		t.Errorf("row-mean COV = %g, want near %g", cov, vt)
	}
}

func TestULMatrixBounds(t *testing.T) {
	r := rng.New(9)
	for _, meanUL := range []float64{1, 2, 4, 8} {
		ul := ULMatrix(200, 8, meanUL, 0.5, 0.5, r)
		min := ul.Min()
		if min < 1 {
			t.Fatalf("UL below 1: %g", min)
		}
		mean := ul.Mean()
		// Clamping at 1 biases the mean upward for small meanUL; allow a
		// generous band that still catches unit errors.
		if mean < meanUL*0.85 || mean > meanUL*1.4+0.5 {
			t.Errorf("meanUL=%g: realized mean %g out of band", meanUL, mean)
		}
	}
}

func TestRandomWorkloadIsValid(t *testing.T) {
	r := rng.New(11)
	p := PaperParams()
	p.N = 40
	for trial := 0; trial < 10; trial++ {
		w, err := Random(p, r)
		if err != nil {
			t.Fatal(err)
		}
		if w.N() != 40 || w.M() != 8 {
			t.Fatalf("workload shape %dx%d", w.N(), w.M())
		}
		// Expected durations at least BCET.
		for i := 0; i < w.N(); i++ {
			for j := 0; j < w.M(); j++ {
				if w.ExpectedAt(i, j) < w.BCET.At(i, j) {
					t.Fatal("expected < BCET")
				}
			}
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	p := PaperParams()
	p.N = 30
	w1, err := Random(p, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Random(p, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if w1.N() != w2.N() || w1.G.EdgeCount() != w2.G.EdgeCount() {
		t.Fatal("same seed produced different graphs")
	}
	for i := 0; i < w1.N(); i++ {
		for j := 0; j < w1.M(); j++ {
			if w1.BCET.At(i, j) != w2.BCET.At(i, j) || w1.UL.At(i, j) != w2.UL.At(i, j) {
				t.Fatal("same seed produced different matrices")
			}
		}
	}
}

func TestPaperExampleGraph(t *testing.T) {
	g := PaperExampleGraph(1)
	if g.N() != 8 {
		t.Fatalf("N = %d, want 8", g.N())
	}
	if es := g.Entries(); len(es) != 1 || es[0] != 0 {
		t.Errorf("Entries = %v, want [0]", es)
	}
	if xs := g.Exits(); len(xs) != 1 || xs[0] != 7 {
		t.Errorf("Exits = %v, want [7]", xs)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) || !g.HasEdge(6, 7) {
		t.Error("expected edges missing")
	}
}

func TestGaussianElimination(t *testing.T) {
	if _, err := GaussianElimination(1, 1); err == nil {
		t.Error("k=1 accepted")
	}
	for _, k := range []int{2, 3, 5, 8} {
		g, err := GaussianElimination(k, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Tasks: sum over steps j=0..k-2 of (1 + k-1-j) = (k-1)(k+2)/2.
		want := (k - 1) * (k + 2) / 2
		if g.N() != want {
			t.Errorf("k=%d: N = %d, want %d", k, g.N(), want)
		}
		if len(g.Entries()) != 1 {
			t.Errorf("k=%d: %d entries, want 1 (first pivot)", k, len(g.Entries()))
		}
		// Depth is 2(k-1)-1 rows of pivot/update alternation.
		if got, want := g.Depth(), 2*(k-1)-1+1; k > 2 && got != want {
			t.Errorf("k=%d: depth = %d, want %d", k, got, want)
		}
	}
}

func TestFFT(t *testing.T) {
	if _, err := FFT(0, 1); err == nil {
		t.Error("stages=0 accepted")
	}
	for _, st := range []int{1, 2, 3, 4} {
		g, err := FFT(st, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := 1 << st
		if g.N() != (st+1)*p {
			t.Errorf("stages=%d: N = %d, want %d", st, g.N(), (st+1)*p)
		}
		if g.EdgeCount() != 2*st*p {
			t.Errorf("stages=%d: edges = %d, want %d", st, g.EdgeCount(), 2*st*p)
		}
		if g.Depth() != st+1 {
			t.Errorf("stages=%d: depth = %d, want %d", st, g.Depth(), st+1)
		}
		// Every non-input task has exactly 2 predecessors.
		for v := p; v < g.N(); v++ {
			if g.InDegree(v) != 2 {
				t.Fatalf("stages=%d: task %d has in-degree %d", st, v, g.InDegree(v))
			}
		}
	}
}

func TestForkJoin(t *testing.T) {
	if _, err := ForkJoin(0, 1, 1); err == nil {
		t.Error("width=0 accepted")
	}
	g, err := ForkJoin(3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// stage pattern: fork, 3 parallel, join=fork2, 3 parallel, join.
	if g.N() != 9 {
		t.Fatalf("N = %d, want 9", g.N())
	}
	if len(g.Entries()) != 1 || len(g.Exits()) != 1 {
		t.Fatalf("entries/exits = %v/%v", g.Entries(), g.Exits())
	}
	if g.Depth() != 5 {
		t.Errorf("depth = %d, want 5", g.Depth())
	}
}

func TestStencil(t *testing.T) {
	if _, err := Stencil(1, 0, 1); err == nil {
		t.Error("depth=0 accepted")
	}
	g, err := Stencil(4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Fatalf("N = %d, want 12", g.N())
	}
	if g.Depth() != 3 {
		t.Errorf("depth = %d, want 3", g.Depth())
	}
	// Interior task (1,1) = id 5 has 3 predecessors.
	if g.InDegree(5) != 3 {
		t.Errorf("in-degree of interior task = %d, want 3", g.InDegree(5))
	}
	// Border task (1,0) = id 4 has 2.
	if g.InDegree(4) != 2 {
		t.Errorf("in-degree of border task = %d, want 2", g.InDegree(4))
	}
}

func BenchmarkRandomWorkload(b *testing.B) {
	r := rng.New(1)
	p := PaperParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Random(p, r); err != nil {
			b.Fatal(err)
		}
	}
}
