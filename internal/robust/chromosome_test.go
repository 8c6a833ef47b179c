package robust

import (
	"testing"

	"robsched/internal/dag"
	"robsched/internal/gen"
	"robsched/internal/platform"
	"robsched/internal/rng"
)

func testWorkload(t testing.TB, seed uint64, n, m int) *platform.Workload {
	t.Helper()
	r := rng.New(seed)
	p := gen.PaperParams()
	p.N, p.M = n, m
	w, err := gen.Random(p, r)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRandomChromosomeValid(t *testing.T) {
	w := testWorkload(t, 1, 30, 4)
	r := rng.New(2)
	for i := 0; i < 50; i++ {
		c := Random(w, r)
		if !w.G.IsTopologicalOrder(c.Order) {
			t.Fatal("random chromosome order not topological")
		}
		for _, p := range c.Proc {
			if p < 0 || p >= w.M() {
				t.Fatalf("processor %d out of range", p)
			}
		}
		if _, err := c.Decode(w); err != nil {
			t.Fatalf("decode failed: %v", err)
		}
	}
}

func TestCrossoverValidityProperty(t *testing.T) {
	w := testWorkload(t, 3, 40, 4)
	r := rng.New(4)
	for trial := 0; trial < 200; trial++ {
		a, b := Random(w, r), Random(w, r)
		aOrder := append([]int(nil), a.Order...)
		aProc := append([]int(nil), a.Proc...)
		c1, c2 := Crossover(a, b, r)
		for _, c := range []*Chromosome{c1, c2} {
			if !w.G.IsTopologicalOrder(c.Order) {
				t.Fatalf("trial %d: offspring order not topological", trial)
			}
			if _, err := c.Decode(w); err != nil {
				t.Fatalf("trial %d: offspring does not decode: %v", trial, err)
			}
		}
		// Parents untouched.
		for i := range aOrder {
			if a.Order[i] != aOrder[i] || a.Proc[i] != aProc[i] {
				t.Fatal("crossover mutated a parent")
			}
		}
	}
}

func TestCrossoverMixesAssignments(t *testing.T) {
	w := testWorkload(t, 5, 20, 4)
	r := rng.New(6)
	// Parents with constant, distinct processor strings: children must
	// contain a prefix of one value and a suffix of the other.
	mixed := false
	for trial := 0; trial < 50 && !mixed; trial++ {
		a, b := Random(w, r), Random(w, r)
		for i := range a.Proc {
			a.Proc[i] = 0
			b.Proc[i] = 1
		}
		c1, _ := Crossover(a, b, r)
		saw0, saw1 := false, false
		for _, p := range c1.Proc {
			if p == 0 {
				saw0 = true
			} else {
				saw1 = true
			}
		}
		// The processor cut is in [1, n-1], so both values must appear.
		if !saw0 || !saw1 {
			t.Fatalf("child processor string = %v: single-point exchange missing", c1.Proc)
		}
		// Prefix must be parent A's value, suffix parent B's.
		boundary := -1
		for i, p := range c1.Proc {
			if p == 1 {
				boundary = i
				break
			}
		}
		for i, p := range c1.Proc {
			want := 0
			if i >= boundary {
				want = 1
			}
			if p != want {
				t.Fatalf("child processor string %v is not a single-point exchange", c1.Proc)
			}
		}
		mixed = true
	}
	if !mixed {
		t.Fatal("never exercised crossover")
	}
}

func TestCrossoverPreservesLeftPart(t *testing.T) {
	w := testWorkload(t, 7, 25, 3)
	r := rng.New(8)
	for trial := 0; trial < 100; trial++ {
		a, b := Random(w, r), Random(w, r)
		c1, _ := Crossover(a, b, r)
		// Some non-empty prefix of c1.Order must equal a's prefix.
		if c1.Order[0] != a.Order[0] {
			t.Fatalf("trial %d: child lost parent A's first task", trial)
		}
	}
}

func TestCrossoverSingleTaskGraph(t *testing.T) {
	g := dag.NewBuilder(1).MustBuild()
	exec := platform.NewMatrix(1, 2)
	exec.Fill(5)
	w, err := platform.DeterministicWorkload(g, platform.UniformSystem(2, 1), exec)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	a, b := Random(w, r), Random(w, r)
	c1, c2 := Crossover(a, b, r)
	if len(c1.Order) != 1 || len(c2.Order) != 1 {
		t.Fatal("single-task crossover broke")
	}
}

func TestMutateValidityProperty(t *testing.T) {
	w := testWorkload(t, 11, 40, 4)
	r := rng.New(12)
	for trial := 0; trial < 300; trial++ {
		c := Random(w, r)
		before := append([]int(nil), c.Order...)
		m := Mutate(w, c, r)
		if !w.G.IsTopologicalOrder(m.Order) {
			t.Fatalf("trial %d: mutated order not topological", trial)
		}
		if _, err := m.Decode(w); err != nil {
			t.Fatalf("trial %d: mutant does not decode: %v", trial, err)
		}
		// Original untouched.
		for i := range before {
			if c.Order[i] != before[i] {
				t.Fatal("mutation modified its argument")
			}
		}
	}
}

func TestMutateActuallyChanges(t *testing.T) {
	w := testWorkload(t, 13, 30, 4)
	r := rng.New(14)
	changed := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		c := Random(w, r)
		m := Mutate(w, c, r)
		if m.Key() != c.Key() {
			changed++
		}
	}
	// With 4 processors a re-roll of the processor alone changes the
	// genotype with probability 3/4; expect most mutations to take effect.
	if changed < trials/2 {
		t.Fatalf("mutation changed the genotype only %d/%d times", changed, trials)
	}
}

func TestMoveWithin(t *testing.T) {
	cases := []struct {
		in       []int
		from, to int
		want     []int
	}{
		{[]int{0, 1, 2, 3}, 1, 3, []int{0, 2, 3, 1}},
		{[]int{0, 1, 2, 3}, 3, 0, []int{3, 0, 1, 2}},
		{[]int{0, 1, 2, 3}, 2, 2, []int{0, 1, 2, 3}},
		{[]int{5, 6}, 0, 1, []int{6, 5}},
	}
	for i, c := range cases {
		got := append([]int(nil), c.in...)
		moveWithin(got, c.from, c.to)
		for j := range c.want {
			if got[j] != c.want[j] {
				t.Errorf("case %d: moveWithin = %v, want %v", i, got, c.want)
				break
			}
		}
	}
}

func TestKeyDistinguishesGenotypes(t *testing.T) {
	w := testWorkload(t, 15, 12, 3)
	r := rng.New(16)
	a := Random(w, r)
	if a.Key() != a.Clone().Key() {
		t.Fatal("clone has a different key")
	}
	// Built fresh rather than via Clone: a clone carries the key memo, so
	// editing its genes directly (which no production caller does) would
	// serve the stale key by design.
	b := NewChromosome(append([]int(nil), a.Order...), append([]int(nil), a.Proc...))
	b.Proc[0] = (b.Proc[0] + 1) % w.M()
	if a.Key() == b.Key() {
		t.Fatal("different assignments share a key")
	}
	seen := map[uint64]int{}
	for i := 0; i < 100; i++ {
		seen[Random(w, r).Key()]++
	}
	if len(seen) < 95 {
		t.Fatalf("only %d distinct keys in 100 random chromosomes", len(seen))
	}
}

// TestDecodeReturnsOwnedSchedule: chromosomes memoize only their metrics
// triple, so every Decode builds a new schedule the caller owns — equal
// genotypes, a clone included, decode to bit-identical schedules that share
// no storage.
func TestDecodeReturnsOwnedSchedule(t *testing.T) {
	w := testWorkload(t, 17, 15, 3)
	r := rng.New(18)
	c := Random(w, r)
	s1, err := c.Decode(w)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Clone().Decode(w)
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("two decodes share one schedule")
	}
	if s1.String() != s2.String() || s1.Makespan() != s2.Makespan() || s1.AvgSlack() != s2.AvgSlack() {
		t.Fatal("equal genotypes decode to different schedules")
	}
}

func TestFromScheduleRoundTrip(t *testing.T) {
	w := testWorkload(t, 19, 25, 4)
	r := rng.New(20)
	c := Random(w, r)
	s, err := c.Decode(w)
	if err != nil {
		t.Fatal(err)
	}
	c2 := FromSchedule(s)
	s2, err := c2.Decode(w)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Makespan() != s.Makespan() || s2.AvgSlack() != s.AvgSlack() {
		t.Fatalf("round trip changed the schedule: M %g->%g, slack %g->%g",
			s.Makespan(), s2.Makespan(), s.AvgSlack(), s2.AvgSlack())
	}
}

func TestDecodeRejectsBrokenChromosome(t *testing.T) {
	w := testWorkload(t, 21, 10, 2)
	c := NewChromosome([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 8}, make([]int, 10))
	if _, err := c.Decode(w); err == nil {
		t.Fatal("broken chromosome decoded")
	}
}

// freshKey recomputes a chromosome's key from scratch, bypassing any
// incremental memo the operators maintained.
func freshKey(c *Chromosome) uint64 {
	return NewChromosome(append([]int(nil), c.Order...), append([]int(nil), c.Proc...)).Key()
}

// TestOperatorKeys pins the operators' incremental rolling key: for
// children of keyed parents it must equal a from-scratch rehash of the
// child genotype.
func TestOperatorKeys(t *testing.T) {
	w := testWorkload(t, 33, 30, 4)
	r := rng.New(34)
	for trial := 0; trial < 300; trial++ {
		a, b := Random(w, r), Random(w, r)
		a.Key() // seed the memo so children take the incremental path
		b.Key()
		c1, c2 := Crossover(a, b, r)
		for i, c := range []*Chromosome{c1, c2} {
			if got, want := c.Key(), freshKey(c); got != want {
				t.Fatalf("trial %d child %d: incremental key %x != recomputed %x", trial, i, got, want)
			}
		}
		m := Mutate(w, c1, r)
		if got, want := m.Key(), freshKey(m); got != want {
			t.Fatalf("trial %d: mutated incremental key %x != recomputed %x", trial, got, want)
		}
	}
}

// TestOperatorKeysWithoutMemo checks the cold path: children of unkeyed
// parents carry no memo and hash correctly on first demand.
func TestOperatorKeysWithoutMemo(t *testing.T) {
	w := testWorkload(t, 35, 20, 3)
	r := rng.New(36)
	a, b := Random(w, r), Random(w, r)
	c1, c2 := Crossover(a, b, r)
	if c1.hasKey || c2.hasKey {
		t.Fatal("children of unkeyed parents carry a key memo")
	}
	if c1.Key() != freshKey(c1) || c2.Key() != freshKey(c2) {
		t.Fatal("cold-path key differs from recomputed key")
	}
}

// TestOperatorsAllocationFree pins the operator allocation budget: after
// scratch pools warm up, Crossover costs its two child clones (one backing
// array each) and Mutate one — nothing else, and nothing at all when they
// overwrite chromosomes a generation dropped.
func TestOperatorsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	w := testWorkload(t, 37, 60, 4)
	r := rng.New(38)
	a, b := Random(w, r), Random(w, r)
	a.Key()
	b.Key()
	Crossover(a, b, r) // warm the scratch pool and power table
	if avg := testing.AllocsPerRun(200, func() { Crossover(a, b, r) }); avg > 4 {
		t.Fatalf("Crossover allocates %.1f times per call, budget 4", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { Mutate(w, a, r) }); avg > 2 {
		t.Fatalf("Mutate allocates %.1f times per call, budget 2", avg)
	}
	// Overwriting chromosomes a generation dropped allocates nothing.
	d1, d2 := a.Clone(), b.Clone()
	if avg := testing.AllocsPerRun(200, func() { crossoverInto(d1, d2, a, b, r) }); avg != 0 {
		t.Fatalf("crossover into dropped chromosomes allocates %.1f times per call", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { mutateInto(d1, w, a, r) }); avg != 0 {
		t.Fatalf("mutation into a dropped chromosome allocates %.1f times per call", avg)
	}
}

func BenchmarkCrossover(b *testing.B) {
	w := testWorkload(b, 39, 100, 8)
	r := rng.New(40)
	pa, pb := Random(w, r), Random(w, r)
	pa.Key()
	pb.Key()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Crossover(pa, pb, r)
	}
}

func BenchmarkMutate(b *testing.B) {
	w := testWorkload(b, 41, 100, 8)
	r := rng.New(42)
	c := Random(w, r)
	c.Key()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mutate(w, c, r)
	}
}
