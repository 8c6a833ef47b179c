package robust

import (
	"testing"
	"testing/quick"

	"robsched/internal/rng"
)

// Property-based coverage of the genetic operators with testing/quick:
// arbitrary seeds drive workload generation, parent construction and the
// operator randomness, and the invariants of Section 4.2 must hold for
// every draw — offspring are permutations, topological, and within
// processor range.

func validChromosome(wSeed uint64, c *Chromosome, n, m int) bool {
	if len(c.Order) != n || len(c.Proc) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range c.Order {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	for _, p := range c.Proc {
		if p < 0 || p >= m {
			return false
		}
	}
	return true
}

func TestQuickCrossoverInvariants(t *testing.T) {
	check := func(wSeed, opSeed uint16) bool {
		w := testWorkload(t, uint64(wSeed)%64, 12+int(wSeed)%20, 2+int(wSeed)%3)
		r := rng.New(uint64(opSeed))
		a, b := Random(w, r), Random(w, r)
		c1, c2 := Crossover(a, b, r)
		n, m := w.N(), w.M()
		return validChromosome(uint64(wSeed), c1, n, m) &&
			validChromosome(uint64(wSeed), c2, n, m) &&
			w.G.IsTopologicalOrder(c1.Order) &&
			w.G.IsTopologicalOrder(c2.Order)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMutateInvariants(t *testing.T) {
	check := func(wSeed, opSeed uint16) bool {
		w := testWorkload(t, uint64(wSeed)%64, 12+int(wSeed)%20, 2+int(wSeed)%3)
		r := rng.New(uint64(opSeed))
		c := Random(w, r)
		mutated := Mutate(w, c, r)
		return validChromosome(uint64(wSeed), mutated, w.N(), w.M()) &&
			w.G.IsTopologicalOrder(mutated.Order)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRepeatedMutationStaysValid(t *testing.T) {
	// Long mutation chains must not drift out of the feasible space —
	// operator validity has to be closed under composition.
	check := func(wSeed, opSeed uint16) bool {
		w := testWorkload(t, uint64(wSeed)%64, 10+int(wSeed)%15, 2+int(wSeed)%3)
		r := rng.New(uint64(opSeed))
		c := Random(w, r)
		for k := 0; k < 30; k++ {
			c = Mutate(w, c, r)
		}
		if !w.G.IsTopologicalOrder(c.Order) {
			return false
		}
		_, err := c.Decode(w)
		return err == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecodeMakespanPositive(t *testing.T) {
	// Every decodable chromosome has a positive makespan and non-negative
	// slack everywhere.
	check := func(wSeed, opSeed uint16) bool {
		w := testWorkload(t, uint64(wSeed)%64, 8+int(wSeed)%20, 1+int(wSeed)%4)
		r := rng.New(uint64(opSeed))
		s, err := Random(w, r).Decode(w)
		if err != nil {
			return false
		}
		if s.Makespan() <= 0 {
			return false
		}
		for v := 0; v < w.N(); v++ {
			if s.Slack(v) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
