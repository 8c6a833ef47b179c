package robust

import (
	"encoding/binary"
	"math"
	"slices"
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
	b := a.Clone()
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

// keyCase builds an n-task genotype whose order and assignment are the
// formulas' values at each position.
func keyCase(n int, order, proc func(i int) int) *Chromosome {
	c := NewChromosome(make([]int, n), make([]int, n))
	for i := 0; i < n; i++ {
		c.Order[i], c.Proc[i] = order(i), proc(i)
	}
	return c
}

// TestKeyPinned pins Chromosome.Key on fixed genotypes. The GA's
// initial-population uniqueness check and its diversity gauge read it, so
// pinned trajectories and ga.diversity values depend on these values. On
// the same genotypes pack must write one uvarint per gene: n=300 has order
// genes of two bytes, and processor 2^31-1 takes five.
func TestKeyPinned(t *testing.T) {
	zero := func(int) int { return 0 }
	for _, tc := range []struct {
		name   string
		c      *Chromosome
		want   uint64
		packed int // bytes of the packed genotype
	}{
		{"one task", keyCase(1, zero, zero), 0xe5fdc025e13eeed5, 2},
		{"all zero", keyCase(6, zero, zero), 0x353f4b32caf2e831, 12},
		{"identity", keyCase(8, func(i int) int { return i }, func(i int) int { return i % 3 }), 0x20a87b89553c1455, 16},
		{"highest processor of 8", keyCase(5, func(i int) int { return 4 - i }, func(int) int { return 7 }), 0x91fb6bb5ea2df867, 10},
		{"processor 2^31-1", keyCase(3, func(i int) int { return i }, func(i int) int { return math.MaxInt32 - i }), 0xf1ea2334a8aace00, 3 + 3*5},
		{"n=65", keyCase(65, func(i int) int { return i * 2 % 65 }, func(i int) int { return i * i % 4 }), 0x770138c6e589d6f6, 130},
		{"n=300", keyCase(300, func(i int) int { return i * 7 % 300 }, func(i int) int { return (i*i + 3*i) % 16 }), 0xa7e273116e8d6d54, 128 + 172*2 + 300},
	} {
		if got := tc.c.Key(); got != tc.want {
			t.Errorf("%s: Key() = %#x, want %#x", tc.name, got, tc.want)
		}
		g := pack([]byte("prefix"), tc.c)
		if want := uvarints(tc.c); string(g) != "prefix"+string(want) || len(want) != tc.packed {
			t.Errorf("%s: packed %d bytes %x, want %d bytes %x", tc.name, len(g)-len("prefix"), g[len("prefix"):], tc.packed, want)
		}
	}
}

// uvarints is the packed genotype by definition: one uvarint per gene,
// order genes then processor genes.
func uvarints(c *Chromosome) []byte {
	var b []byte
	for _, genes := range [][]int{c.Order, c.Proc} {
		for _, v := range genes {
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	return b
}

// TestOperatorKeys: a child's key depends on its genes alone. A population
// evolves by chains of crossovers and mutations that overwrite the
// chromosomes it dropped, whose buffers held other genotypes and were
// keyed before; every child must have the key of a new chromosome built
// from copies of its genes. A crossover may return a parent, so one
// chromosome can fill several slots: a chromosome goes to the free list
// only once no slot holds it.
func TestOperatorKeys(t *testing.T) {
	w := testWorkload(t, 33, 30, 4)
	r := rng.New(34)
	pop := make([]*Chromosome, 8)
	for i := range pop {
		pop[i] = Random(w, r)
		pop[i].Key()
	}
	free := new(freeList[Chromosome])
	for step := 0; step < 600; step++ {
		a, b := pop[r.Intn(len(pop))], pop[r.Intn(len(pop))]
		var kids []*Chromosome
		if step%3 == 2 {
			kids = append(kids, mutateInto(free.get(), w, a, r))
		} else {
			c1, c2 := crossoverInto(free, a, b, r)
			kids = append(kids, c1, c2)
		}
		var dropped []*Chromosome
		for _, c := range kids {
			order, proc := c.Genes()
			if got, want := c.Key(), NewChromosome(order, proc).Key(); got != want {
				t.Fatalf("step %d: child key %#x, a new chromosome with its genes %#x", step, got, want)
			}
			k := r.Intn(len(pop))
			dropped = append(dropped, pop[k])
			pop[k] = c
		}
		for _, c := range dropped {
			if !slices.Contains(pop, c) && !slices.Contains(free.items, c) {
				free.put(c)
			}
		}
	}
}

// TestOperatorsAllocationFree pins the operator allocation budget: after
// scratch pools warm up, Crossover costs its two child clones (one backing
// array each) and Mutate one — nothing else, and nothing at all when they
// overwrite chromosomes a generation dropped, or when both of a
// crossover's children are its parents.
func TestOperatorsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	w := testWorkload(t, 37, 60, 4)
	r := rng.New(38)
	a, b := Random(w, r), Random(w, r)
	twin := a.Clone()
	Crossover(a, b, r) // warm the scratch pool
	for _, pb := range []*Chromosome{b, twin} {
		if avg := testing.AllocsPerRun(200, func() { Crossover(a, pb, r) }); avg > 4 {
			t.Fatalf("Crossover allocates %.1f times per call, budget 4", avg)
		}
	}
	if avg := testing.AllocsPerRun(200, func() { Mutate(w, a, r) }); avg > 2 {
		t.Fatalf("Mutate allocates %.1f times per call, budget 2", avg)
	}
	// Overwriting chromosomes a generation dropped allocates nothing.
	free := new(freeList[Chromosome])
	free.put(a.Clone())
	free.put(b.Clone())
	if avg := testing.AllocsPerRun(200, func() {
		c1, c2 := crossoverInto(free, a, b, r)
		for _, c := range [2]*Chromosome{c1, c2} {
			if c != a && c != b {
				free.put(c)
			}
		}
	}); avg != 0 {
		t.Fatalf("crossover into dropped chromosomes allocates %.1f times per call", avg)
	}
	d := a.Clone()
	if avg := testing.AllocsPerRun(200, func() { mutateInto(d, w, a, r) }); avg != 0 {
		t.Fatalf("mutation into a dropped chromosome allocates %.1f times per call", avg)
	}
	// Children that are their parents allocate nothing, even with an empty
	// free list.
	empty := new(freeList[Chromosome])
	if avg := testing.AllocsPerRun(200, func() {
		if c1, c2 := crossoverInto(empty, a, twin, r); c1 != twin || c2 != a {
			t.Fatal("the children of equal genotypes are not their parents")
		}
	}); avg != 0 {
		t.Fatalf("a crossover returning its parents allocates %.1f times per call", avg)
	}
}

// BenchmarkCrossover times the GA's crossover, its new children recycled
// as a generation recycles them: on two random parents, whose children are
// new, and on converged parents (one mutation apart), whose children are
// mostly the parents themselves.
func BenchmarkCrossover(b *testing.B) {
	w := testWorkload(b, 39, 100, 8)
	r := rng.New(40)
	pa := Random(w, r)
	for _, bc := range []struct {
		name string
		pb   *Chromosome
	}{{"random", Random(w, r)}, {"converged", Mutate(w, pa, r)}} {
		b.Run(bc.name, func(b *testing.B) {
			free := new(freeList[Chromosome])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c1, c2 := crossoverInto(free, pa, bc.pb, r)
				for _, c := range [2]*Chromosome{c1, c2} {
					if c != pa && c != bc.pb {
						free.put(c)
					}
				}
			}
		})
	}
}

func BenchmarkMutate(b *testing.B) {
	w := testWorkload(b, 41, 100, 8)
	r := rng.New(42)
	c := Random(w, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mutate(w, c, r)
	}
}
