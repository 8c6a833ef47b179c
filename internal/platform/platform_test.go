package platform

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"robsched/internal/dag"
	"robsched/internal/rng"
)

func TestNewMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(0, 3) did not panic")
		}
	}()
	NewMatrix(0, 3)
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 || m.IsZero() {
		t.Fatalf("shape wrong: %dx%d zero=%v", m.Rows(), m.Cols(), m.IsZero())
	}
	var zero Matrix
	if !zero.IsZero() {
		t.Fatal("zero value not reported as zero")
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %g", m.At(1, 2))
	}
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(0, 2, 3)
	if got := m.RowMean(0); got != 2 {
		t.Errorf("RowMean(0) = %g, want 2", got)
	}
	if got := m.Mean(); math.Abs(got-13.0/6) > 1e-12 {
		t.Errorf("Mean = %g, want %g", got, 13.0/6)
	}
	if got := m.Min(); got != 0 {
		t.Errorf("Min = %g, want 0", got)
	}
}

func TestMatrixRowAliases(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(1)[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row does not alias storage")
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 5)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 5 {
		t.Fatal("Clone shares storage")
	}
}

func TestMatrixFromRows(t *testing.T) {
	m, err := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %g", m.At(1, 0))
	}
	if _, err := MatrixFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := MatrixFromRows(nil); err == nil {
		t.Fatal("empty rows accepted")
	}
}

func TestHadamard(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := MatrixFromRows([][]float64{{5, 6}, {7, 8}})
	h := a.Hadamard(b)
	want := [][]float64{{5, 12}, {21, 32}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if h.At(i, j) != want[i][j] {
				t.Errorf("Hadamard(%d,%d) = %g, want %g", i, j, h.At(i, j), want[i][j])
			}
		}
	}
	// Inputs unchanged.
	if a.At(0, 0) != 1 || b.At(0, 0) != 5 {
		t.Error("Hadamard mutated an input")
	}
}

func TestHadamardSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	NewMatrix(2, 2).Hadamard(NewMatrix(2, 3))
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Matrix{}); err == nil {
		t.Error("zero matrix accepted")
	}
	if _, err := NewSystem(NewMatrix(2, 3)); err == nil {
		t.Error("non-square matrix accepted")
	}
	bad := NewMatrix(2, 2)
	bad.Set(0, 1, 0) // zero off-diagonal rate
	bad.Set(1, 0, 1)
	if _, err := NewSystem(bad); err == nil {
		t.Error("zero off-diagonal rate accepted")
	}
	// Non-finite rates: rate <= 0 is false for NaN and +Inf, so each needs
	// its own rejection naming the processor pair.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := NewMatrix(3, 3)
		bad.Fill(1)
		bad.Set(2, 0, v)
		if _, err := NewSystem(bad); err == nil || !strings.Contains(err.Error(), "processors 2 and 0") {
			t.Errorf("rate %v: error %v, want one naming processors 2 and 0", v, err)
		}
	}
}

func TestUniformSystem(t *testing.T) {
	s := UniformSystem(4, 2)
	if s.M() != 4 {
		t.Fatalf("M = %d", s.M())
	}
	if got := s.CommCost(0, 1, 10); got != 5 {
		t.Errorf("CommCost(0,1,10) = %g, want 5", got)
	}
	if got := s.CommCost(2, 2, 10); got != 0 {
		t.Errorf("same-processor CommCost = %g, want 0", got)
	}
	if got := s.MeanRate(); got != 2 {
		t.Errorf("MeanRate = %g, want 2", got)
	}
	if got := s.MeanCommCost(10); got != 5 {
		t.Errorf("MeanCommCost(10) = %g, want 5", got)
	}
}

func TestSingleProcessorSystem(t *testing.T) {
	s := UniformSystem(1, 1)
	if got := s.MeanCommCost(100); got != 0 {
		t.Errorf("single-proc MeanCommCost = %g, want 0", got)
	}
	if got := s.MeanRate(); got != 1 {
		t.Errorf("single-proc MeanRate = %g, want 1", got)
	}
}

func TestHeterogeneousRates(t *testing.T) {
	rates, _ := MatrixFromRows([][]float64{
		{0, 1, 2},
		{1, 0, 4},
		{2, 4, 0},
	})
	s, err := NewSystem(rates)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CommCost(1, 2, 8); got != 2 {
		t.Errorf("CommCost(1,2,8) = %g, want 2", got)
	}
	if got := s.Rate(0, 2); got != 2 {
		t.Errorf("Rate(0,2) = %g", got)
	}
	wantMean := (1.0 + 2 + 1 + 4 + 2 + 4) / 6
	if got := s.MeanRate(); math.Abs(got-wantMean) > 1e-12 {
		t.Errorf("MeanRate = %g, want %g", got, wantMean)
	}
}

func testGraph(t *testing.T) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder(3)
	b.MustAddEdge(0, 1, 6)
	b.MustAddEdge(0, 2, 4)
	return b.MustBuild()
}

func testWorkload(t *testing.T) *Workload {
	t.Helper()
	g := testGraph(t)
	sys := UniformSystem(2, 1)
	bcet, _ := MatrixFromRows([][]float64{{2, 4}, {3, 3}, {5, 1}})
	ul, _ := MatrixFromRows([][]float64{{2, 2}, {1, 3}, {1.5, 2}})
	w, err := NewWorkload(g, sys, bcet, ul)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorkloadValidation(t *testing.T) {
	g := testGraph(t)
	sys := UniformSystem(2, 1)
	good := NewMatrix(3, 2)
	good.Fill(1)
	if _, err := NewWorkload(nil, sys, good, good); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewWorkload(g, nil, good, good); err == nil {
		t.Error("nil system accepted")
	}
	if _, err := NewWorkload(g, sys, NewMatrix(3, 3), good); err == nil {
		t.Error("wrong BCET shape accepted")
	}
	if _, err := NewWorkload(g, sys, good, NewMatrix(2, 2)); err == nil {
		t.Error("wrong UL shape accepted")
	}
	badB := good.Clone()
	badB.Set(0, 0, 0)
	if _, err := NewWorkload(g, sys, badB, good); err == nil {
		t.Error("zero BCET accepted")
	}
	badU := good.Clone()
	badU.Set(1, 1, 0.5)
	if _, err := NewWorkload(g, sys, good, badU); err == nil {
		t.Error("UL < 1 accepted")
	}
	// Non-finite values: the checks above are false for NaN, and +Inf
	// passes both, so each needs its own rejection naming the pair.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		badB := good.Clone()
		badB.Set(2, 1, v)
		_, err := NewWorkload(g, sys, badB, good)
		if err == nil || !strings.Contains(err.Error(), "task 2 on processor 1") {
			t.Errorf("BCET %v: error %v, want one naming task 2 on processor 1", v, err)
		}
		badU := good.Clone()
		badU.Set(1, 0, v)
		_, err = NewWorkload(g, sys, good, badU)
		if err == nil || !strings.Contains(err.Error(), "task 1 on processor 0") {
			t.Errorf("UL %v: error %v, want one naming task 1 on processor 0", v, err)
		}
	}
	// Finite entries whose durations overflow: the expected duration UL*b,
	// and the worst case (2*UL-1)*b, the sampler's upper end, alone.
	for _, tc := range []struct{ b, u float64 }{{1e200, 1e200}, {1e308, 1.5}} {
		bcet, ul := good.Clone(), good.Clone()
		bcet.Set(2, 0, tc.b)
		ul.Set(2, 0, tc.u)
		_, err := NewWorkload(g, sys, bcet, ul)
		if err == nil || !strings.Contains(err.Error(), "task 2 on processor 0") {
			t.Errorf("BCET %g, UL %g: error %v, want one naming task 2 on processor 0", tc.b, tc.u, err)
		}
	}
}

func TestWorkloadExpected(t *testing.T) {
	w := testWorkload(t)
	// expected = BCET ∘ UL
	want := [][]float64{{4, 8}, {3, 9}, {7.5, 2}}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if got := w.ExpectedAt(i, j); math.Abs(got-want[i][j]) > 1e-12 {
				t.Errorf("ExpectedAt(%d,%d) = %g, want %g", i, j, got, want[i][j])
			}
		}
	}
	if got := w.MeanExpected(0); got != 6 {
		t.Errorf("MeanExpected(0) = %g, want 6", got)
	}
	if w.N() != 3 || w.M() != 2 {
		t.Errorf("N,M = %d,%d", w.N(), w.M())
	}
}

func TestWorkloadCopiesMatrices(t *testing.T) {
	g := testGraph(t)
	sys := UniformSystem(2, 1)
	bcet := NewMatrix(3, 2)
	bcet.Fill(2)
	ul := NewMatrix(3, 2)
	ul.Fill(1)
	w, err := NewWorkload(g, sys, bcet, ul)
	if err != nil {
		t.Fatal(err)
	}
	bcet.Set(0, 0, 99)
	if w.BCET.At(0, 0) == 99 {
		t.Fatal("workload aliases caller's BCET matrix")
	}
}

func TestSampleDurationBoundsAndMean(t *testing.T) {
	w := testWorkload(t)
	r := rng.New(5)
	const n = 100000
	// Task 0 on proc 0: b=2, UL=2 → U(2, 6), mean 4 = expected.
	var sum float64
	for k := 0; k < n; k++ {
		d := w.SampleDuration(0, 0, r)
		if d < 2 || d >= 6 {
			t.Fatalf("sample %g outside [2,6)", d)
		}
		sum += d
	}
	if mean := sum / n; math.Abs(mean-w.ExpectedAt(0, 0)) > 0.05 {
		t.Errorf("sample mean %g, want ~%g", mean, w.ExpectedAt(0, 0))
	}
}

func TestSampleDurationDegenerate(t *testing.T) {
	w := testWorkload(t)
	r := rng.New(5)
	// Task 1 on proc 0 has UL=1 → always exactly b=3.
	for k := 0; k < 100; k++ {
		if d := w.SampleDuration(1, 0, r); d != 3 {
			t.Fatalf("UL=1 sample = %g, want exactly 3", d)
		}
	}
}

func TestDeterministicWorkload(t *testing.T) {
	g := testGraph(t)
	sys := UniformSystem(2, 1)
	exec, _ := MatrixFromRows([][]float64{{2, 4}, {3, 3}, {5, 1}})
	w, err := DeterministicWorkload(g, sys, exec)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	for i := 0; i < 3; i++ {
		for p := 0; p < 2; p++ {
			if got := w.SampleDuration(i, p, r); got != exec.At(i, p) {
				t.Fatalf("deterministic sample (%d,%d) = %g, want %g", i, p, got, exec.At(i, p))
			}
			if got := w.ExpectedAt(i, p); got != exec.At(i, p) {
				t.Fatalf("deterministic expected (%d,%d) = %g, want %g", i, p, got, exec.At(i, p))
			}
		}
	}
}

func TestCCR(t *testing.T) {
	w := testWorkload(t)
	// mean comm per edge = (6+4)/2 = 5 at rate 1; mean comp = (6+6+4.75)/3.
	meanComp := (6.0 + 6.0 + 4.75) / 3
	want := 5.0 / meanComp
	if got := w.CCR(); math.Abs(got-want) > 1e-12 {
		t.Errorf("CCR = %g, want %g", got, want)
	}
}

func TestCCRNoEdges(t *testing.T) {
	g := dag.NewBuilder(2).MustBuild()
	sys := UniformSystem(2, 1)
	exec := NewMatrix(2, 2)
	exec.Fill(3)
	w, err := DeterministicWorkload(g, sys, exec)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.CCR(); got != 0 {
		t.Errorf("CCR with no edges = %g, want 0", got)
	}
}

func TestQuickSampleWithinBounds(t *testing.T) {
	w := testWorkload(t)
	r := rng.New(77)
	check := func(iRaw, pRaw uint8) bool {
		i := int(iRaw) % w.N()
		p := int(pRaw) % w.M()
		d := w.SampleDuration(i, p, r)
		b := w.BCET.At(i, p)
		hi := (2*w.UL.At(i, p) - 1) * b
		return d >= b && (d <= hi)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
