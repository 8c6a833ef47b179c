package schedule

import (
	"math"
	"runtime"
	"testing"

	"robsched/internal/dag"
	"robsched/internal/platform"
	"robsched/internal/rng"
)

// sameSchedule fails the test unless every piece of state of got — exported
// and internal, analysis and adjacency — is bit-identical to want.
func sameSchedule(t *testing.T, ctx string, got, want *Schedule) {
	t.Helper()
	if got.makespan != want.makespan || got.avgSlack != want.avgSlack || got.minSlack != want.minSlack {
		t.Fatalf("%s: summary differs: (%v %v %v) != (%v %v %v)", ctx,
			got.makespan, got.avgSlack, got.minSlack, want.makespan, want.avgSlack, want.minSlack)
	}
	intSlices := [][2][]int32{
		{got.proc, want.proc}, {got.topo, want.topo}, {got.porder, want.porder},
		{got.porderOff, want.porderOff}, {got.dsucc, want.dsucc}, {got.dpred, want.dpred},
	}
	for si, pair := range intSlices {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: int slice %d length %d != %d", ctx, si, len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s: int slice %d differs at %d: %d != %d", ctx, si, i, pair[0][i], pair[1][i])
			}
		}
	}
	floatSlices := [][2][]float64{
		{got.succComm, want.succComm}, {got.predComm, want.predComm}, {got.expDur, want.expDur},
		{got.start, want.start}, {got.finish, want.finish}, {got.bl, want.bl}, {got.slack, want.slack},
	}
	for si, pair := range floatSlices {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: float slice %d length %d != %d", ctx, si, len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s: float slice %d differs at %d: %v != %v", ctx, si, i, pair[0][i], pair[1][i])
			}
		}
	}
}

// feasibleMove relocates the task at position i of order to a random
// position within its precedence-feasible window, like the GA's mutation
// operator, keeping the order topological.
func feasibleMove(r *rng.Source, w *platform.Workload, order []int, i int) {
	n := len(order)
	pos := make([]int, n)
	for p, v := range order {
		pos[v] = p
	}
	v := order[i]
	lo, hi := 0, n-1
	for _, a := range w.G.Predecessors(v) {
		if p := pos[a.To]; p+1 > lo {
			lo = p + 1
		}
	}
	for _, a := range w.G.Successors(v) {
		if p := pos[a.To]; p-1 < hi {
			hi = p - 1
		}
	}
	j := lo + r.Intn(hi-lo+1)
	if j < i {
		copy(order[j+1:i+1], order[j:i])
	} else {
		copy(order[i:j], order[i+1:j+1])
	}
	order[j] = v
}

// deriveChild perturbs a parent chromosome with GA-like edits — feasible
// order moves plus processor reassignments — returning fresh slices.
func deriveChild(r *rng.Source, w *platform.Workload, pOrder, pProc []int) (order, proc []int) {
	n := len(pOrder)
	order = append([]int(nil), pOrder...)
	proc = append([]int(nil), pProc...)
	for moves := r.Intn(3); moves >= 0; moves-- {
		feasibleMove(r, w, order, r.Intn(n))
	}
	for changes := 1 + r.Intn(3); changes > 0; changes-- {
		proc[r.Intn(n)] = r.Intn(w.M())
	}
	return order, proc
}

// TestTrustedDecodeMatchesFromOrder: the pooled decoder, which GA callers
// feed trusted chromosomes, must reproduce FromOrder exactly — same
// topological order, same analysis, bit for bit — across many random
// workloads and chromosomes.
func TestTrustedDecodeMatchesFromOrder(t *testing.T) {
	r := rng.New(41)
	dur := []float64(nil)
	for trial := 0; trial < 60; trial++ {
		w := randomWorkload(t, r, 2+r.Intn(50), 1+r.Intn(5))
		order := w.G.RandomTopologicalOrder(r)
		proc := make([]int, w.N())
		for i := range proc {
			proc[i] = r.Intn(w.M())
		}
		ref, err := FromOrder(w, order, proc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewDecoder(w).Decode(order, proc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan() != ref.Makespan() {
			t.Fatalf("decoder: makespan %v != %v", got.Makespan(), ref.Makespan())
		}
		if got.AvgSlack() != ref.AvgSlack() || got.MinSlack() != ref.MinSlack() {
			t.Fatalf("decoder: slack summary differs")
		}
		gotOrder, refOrder := got.Order(), ref.Order()
		gotProc, refProc := got.ProcAssignment(), ref.ProcAssignment()
		for v := 0; v < w.N(); v++ {
			if gotOrder[v] != refOrder[v] || gotProc[v] != refProc[v] {
				t.Fatalf("decoder: order/proc differ at %d", v)
			}
			if got.Start(v) != ref.Start(v) || got.Finish(v) != ref.Finish(v) ||
				got.Slack(v) != ref.Slack(v) || got.BottomLevel(v) != ref.BottomLevel(v) {
				t.Fatalf("decoder: analysis differs at task %d", v)
			}
		}
		ge, re := got.DisjunctiveEdges(), ref.DisjunctiveEdges()
		if len(ge) != len(re) {
			t.Fatalf("decoder: %d disjunctive edges, want %d", len(ge), len(re))
		}
		for i := range ge {
			if ge[i] != re[i] {
				t.Fatalf("decoder: disjunctive edge %d differs", i)
			}
		}
		if got.String() != ref.String() {
			t.Fatalf("decoder: String() differs")
		}
		// A second forward pass under perturbed durations exercises the
		// CSR arcs directly.
		dur = append(dur[:0], ref.ExpectedDurations()...)
		for v := range dur {
			dur[v] *= 1.25
		}
		if got.MakespanWith(dur) != ref.MakespanWith(dur) {
			t.Fatalf("decoder: MakespanWith differs")
		}
	}
}

// TestTrustedDecodeRejectsInvalid: the pooled decoder GA callers feed
// trusted chromosomes still rejects every malformation, and same-processor
// precedence inversions surface as disjunctive-graph cycles.
func TestTrustedDecodeRejectsInvalid(t *testing.T) {
	b := dag.NewBuilder(2)
	b.MustAddEdge(0, 1, 1)
	w := twoTaskWorkload(t, b.MustBuild())
	dec := NewDecoder(w)

	if _, err := dec.Decode([]int{0}, []int{0, 0}); err == nil {
		t.Fatal("short order accepted")
	}
	if _, err := dec.Decode([]int{0, 0}, []int{0, 0}); err == nil {
		t.Fatal("duplicate entry accepted")
	}
	if _, err := dec.Decode([]int{0, 2}, []int{0, 0}); err == nil {
		t.Fatal("out-of-range task accepted")
	}
	if _, err := dec.Decode([]int{0, 1}, []int{0, 2}); err == nil {
		t.Fatal("out-of-range processor accepted")
	}
	// Same-processor inversion: order says 1 before 0 but 0→1 is an edge;
	// the disjunctive arc 1→0 closes a cycle with it.
	if _, err := dec.Decode([]int{1, 0}, []int{0, 0}); err == nil {
		t.Fatal("same-processor precedence inversion accepted")
	}
	// The untrusted path catches the inversion even across processors.
	if _, err := FromOrder(w, []int{1, 0}, []int{0, 1}); err == nil {
		t.Fatal("FromOrder missed a cross-processor inversion")
	}
}

func twoTaskWorkload(t *testing.T, g *dag.Graph) *platform.Workload {
	t.Helper()
	exec, err := platform.MatrixFromRows([][]float64{{2, 3}, {3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := platform.DeterministicWorkload(g, platform.UniformSystem(2, 1), exec)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestDecodeIntoReusedTarget decodes a sequence of chromosomes — across
// workloads of different sizes, with malformed ones in between — into one
// Schedule. Every accepted decode must equal a fresh FromOrder decode bit
// for bit, whether the target's arenas were reused, grown or left dirty by
// a failed decode.
func TestDecodeIntoReusedTarget(t *testing.T) {
	r := rng.New(47)
	var s Schedule
	for trial := 0; trial < 80; trial++ {
		w := randomWorkload(t, r, 2+r.Intn(40), 1+r.Intn(5))
		n, m := w.N(), w.M()
		dec := NewDecoder(w)
		order := w.G.RandomTopologicalOrder(r)
		proc := make([]int, n)
		for i := range proc {
			proc[i] = r.Intn(m)
		}
		for step := 0; step < 3; step++ {
			order, proc = deriveChild(r, w, order, proc)
			// A malformed sibling first: a processor out of range, a
			// repeated task, or a precedence inversion (when one exists).
			bad := append([]int(nil), proc...)
			badOrder := order
			switch trial % 3 {
			case 0:
				bad[r.Intn(n)] = m
			case 1:
				if n > 1 {
					badOrder = append([]int(nil), order...)
					badOrder[0] = badOrder[1]
				} else {
					bad[0] = -1
				}
			case 2:
				if e, ok := anyEdge(w); ok {
					badOrder = append([]int(nil), order...)
					i, j := indexOf(badOrder, e[0]), indexOf(badOrder, e[1])
					badOrder[i], badOrder[j] = badOrder[j], badOrder[i]
				} else {
					bad[0] = m
				}
			}
			if err := dec.DecodeInto(&s, badOrder, bad); err == nil {
				t.Fatalf("trial %d: malformed chromosome accepted", trial)
			}
			if err := dec.DecodeInto(&s, order, proc); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want, err := FromOrder(w, order, proc)
			if err != nil {
				t.Fatal(err)
			}
			sameSchedule(t, "reused target", &s, want)
		}
	}
}

// anyEdge returns one data edge of the workload's task graph, if any.
func anyEdge(w *platform.Workload) ([2]int, bool) {
	for u := 0; u < w.N(); u++ {
		if succ := w.G.Successors(u); len(succ) > 0 {
			return [2]int{u, succ[0].To}, true
		}
	}
	return [2]int{}, false
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// TestDecodeSteadyStateAllocs locks in the fast path's allocation budget:
// once the pool is warm, decoding into a reused target allocates nothing.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	r := rng.New(43)
	w := randomWorkload(t, r, 40, 4)
	order := w.G.RandomTopologicalOrder(r)
	proc := make([]int, w.N())
	for i := range proc {
		proc[i] = r.Intn(w.M())
	}
	dec := NewDecoder(w)
	var s Schedule
	if err := dec.DecodeInto(&s, order, proc); err != nil { // warm the pool
		t.Fatal(err)
	}
	runtime.GC()
	avg := testing.AllocsPerRun(200, func() {
		if err := dec.DecodeInto(&s, order, proc); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state decode into a reused target costs %.1f allocs, want 0", avg)
	}
}

// TestMetricsSteadyStateAllocs: once the pool is warm, the metrics kernel
// allocates nothing, bounded or not.
func TestMetricsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	r := rng.New(43)
	w := randomWorkload(t, r, 40, 4)
	order := w.G.RandomTopologicalOrder(r)
	proc := make([]int, w.N())
	for i := range proc {
		proc[i] = r.Intn(w.M())
	}
	dec := NewDecoder(w)
	if _, _, _, err := dec.Metrics(order, proc); err != nil { // warm the pool
		t.Fatal(err)
	}
	runtime.GC()
	avg := testing.AllocsPerRun(200, func() {
		if _, _, _, err := dec.Metrics(order, proc); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Metrics costs %.1f allocs, want 0", avg)
	}
	for _, upTo := range []float64{math.Inf(-1), 0, math.Inf(1)} {
		avg := testing.AllocsPerRun(200, func() {
			if _, _, _, _, err := dec.MetricsUpTo(order, proc, upTo); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("steady-state MetricsUpTo(%v) costs %.1f allocs, want 0", upTo, avg)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	r := rng.New(1)
	w := benchWorkload(b, r, 100, 8)
	order := w.G.RandomTopologicalOrder(r)
	proc := make([]int, w.N())
	for i := range proc {
		proc[i] = r.Intn(w.M())
	}
	dec := NewDecoder(w)
	var s Schedule
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.DecodeInto(&s, order, proc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeMetrics is BenchmarkDecode's chromosome through the
// metrics kernel, which computes the triple without building the schedule:
// full computes the whole triple, m0 only the makespan (a bound below M0).
func BenchmarkDecodeMetrics(b *testing.B) {
	r := rng.New(1)
	w := benchWorkload(b, r, 100, 8)
	order := w.G.RandomTopologicalOrder(r)
	proc := make([]int, w.N())
	for i := range proc {
		proc[i] = r.Intn(w.M())
	}
	dec := NewDecoder(w)
	for _, bc := range []struct {
		name string
		upTo float64
	}{{"full", math.Inf(1)}, {"m0", math.Inf(-1)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, _, err := dec.MetricsUpTo(order, proc, bc.upTo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFromOrder(b *testing.B) {
	r := rng.New(1)
	w := benchWorkload(b, r, 100, 8)
	order := w.G.RandomTopologicalOrder(r)
	proc := make([]int, w.N())
	for i := range proc {
		proc[i] = r.Intn(w.M())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromOrder(w, order, proc); err != nil {
			b.Fatal(err)
		}
	}
}
