package robust

import (
	"slices"
	"testing"

	"robsched/internal/platform"
	"robsched/internal/rng"
)

// crossoverOracle is the paper's crossover written as plainly as possible:
// clone both parents, reorder each clone's order tail by the other parent,
// then exchange the processor tails. Its children are always new, and it
// draws cut before pcut, as crossoverInto must.
func crossoverOracle(a, b *Chromosome, r *rng.Source) (*Chromosome, *Chromosome) {
	n := len(a.Order)
	c1, c2 := a.Clone(), b.Clone()
	if n >= 2 {
		cut := 1 + r.Intn(n-1)
		oracleReorder(c1.Order, cut, b.Order)
		oracleReorder(c2.Order, cut, a.Order)
		pcut := 1 + r.Intn(n-1)
		for v := pcut; v < n; v++ {
			c1.Proc[v], c2.Proc[v] = b.Proc[v], a.Proc[v]
		}
	}
	return c1, c2
}

// oracleReorder rewrites order[cut:] so its tasks appear in the relative
// order they have in ref.
func oracleReorder(order []int, cut int, ref []int) {
	inTail := make(map[int]bool, len(order)-cut)
	for _, v := range order[cut:] {
		inTail[v] = true
	}
	i := cut
	for _, v := range ref {
		if inTail[v] {
			order[i] = v
			i++
		}
	}
}

// sameGenes reports whether x and y hold the same genotype.
func sameGenes(x, y *Chromosome) bool {
	return slices.Equal(x.Order, y.Order) && slices.Equal(x.Proc, y.Proc)
}

// pairCase names a source of parent pairs.
type pairCase struct {
	name string
	pair func() (*Chromosome, *Chromosome)
}

// crossoverPairs returns parent pairs for the crossover checks on w: random
// pairs, and the pairs of a converging population, where the parents agree
// on most genes.
func crossoverPairs(w *platform.Workload, r *rng.Source) []pairCase {
	n, m := w.N(), w.M()
	// other is a processor other than p.
	other := func(p int) int { return (p + 1 + r.Intn(m-1)) % m }
	return []pairCase{
		{"random", func() (*Chromosome, *Chromosome) { return Random(w, r), Random(w, r) }},
		{"identical genotypes", func() (*Chromosome, *Chromosome) {
			a := Random(w, r)
			return a, a.Clone()
		}},
		{"one chromosome twice", func() (*Chromosome, *Chromosome) {
			a := Random(w, r)
			return a, a
		}},
		// One order; the processors differ only before k, or only from k
		// on, so a draw's pcut falls on either side of the difference.
		{"processors differ before k", func() (*Chromosome, *Chromosome) {
			a := Random(w, r)
			b := a.Clone()
			for v := range 1 + r.Intn(n-1) {
				b.Proc[v] = other(b.Proc[v])
			}
			return a, b
		}},
		{"processors differ from k on", func() (*Chromosome, *Chromosome) {
			a := Random(w, r)
			b := a.Clone()
			for v := 1 + r.Intn(n-1); v < n; v++ {
				b.Proc[v] = other(b.Proc[v])
			}
			return a, b
		}},
		// Equal orders up to k, then b's tail in another topological
		// order's relative order, with the same or with random processors.
		{"equal prefixes, different tails", func() (*Chromosome, *Chromosome) {
			a := Random(w, r)
			b := a.Clone()
			k := 1 + r.Intn(n-1)
			oracleReorder(b.Order, k, Random(w, r).Order)
			if r.Intn(2) == 0 {
				b.Proc = Random(w, r).Proc
			}
			return a, b
		}},
		{"one processor gene", func() (*Chromosome, *Chromosome) {
			a := Random(w, r)
			b := a.Clone()
			v := r.Intn(n)
			b.Proc[v] = other(b.Proc[v])
			return a, b
		}},
		{"one mutation", func() (*Chromosome, *Chromosome) {
			a := Random(w, r)
			return a, Mutate(w, a, r)
		}},
	}
}

// TestCrossoverIntoMatchesOracle: over many cut draws, on random and on
// converged parents, crossoverInto draws what the oracle draws and writes
// its genes; it returns a parent exactly when the oracle's child has that
// parent's genes (as an unchanged chromosome, metrics memo included), and a
// new child owns its arrays and has no memo. The public Crossover returns
// new chromosomes only.
func TestCrossoverIntoMatchesOracle(t *testing.T) {
	w := testWorkload(t, 51, 30, 4)
	r := rng.New(52)
	free := new(freeList[Chromosome])
	for _, pc := range crossoverPairs(w, r) {
		name, pair := pc.name, pc.pair
		returned := 0
		for trial := 0; trial < 400; trial++ {
			a, b := pair()
			// A memo the crossover must neither drop from a returned
			// parent nor pass on to a new child.
			a.metr, a.hasMetr = schedMetrics{m0: 1, avgSlack: 2, minSlack: 3}, true
			a0, b0 := a.Clone(), b.Clone()
			seed := r.Uint64()
			gr, orc := rng.New(seed), rng.New(seed)
			got1, got2 := crossoverInto(free, a, b, gr)
			want1, want2 := crossoverOracle(a, b, orc)
			pub1, pub2 := Crossover(a, b, rng.New(seed))
			if gr.Uint64() != orc.Uint64() {
				t.Fatalf("%s, trial %d: crossoverInto and the oracle draw differently", name, trial)
			}
			if !sameGenes(a, a0) || !sameGenes(b, b0) || !a.hasMetr || a.metr.avgSlack != 2 {
				t.Fatalf("%s, trial %d: the crossover changed a parent", name, trial)
			}
			for i, c := range []struct{ got, pub, want *Chromosome }{{got1, pub1, want1}, {got2, pub2, want2}} {
				if !sameGenes(c.got, c.want) || !sameGenes(c.pub, c.want) {
					t.Fatalf("%s, trial %d: child %d has genes %v %v, the oracle's %v %v",
						name, trial, i+1, c.got.Order, c.got.Proc, c.want.Order, c.want.Proc)
				}
				if c.pub == a || c.pub == b || c.pub.hasMetr {
					t.Fatalf("%s, trial %d: Crossover's child %d is not a new chromosome", name, trial, i+1)
				}
				switch {
				case c.got == a || c.got == b:
					returned++
				case sameGenes(c.want, a) || sameGenes(c.want, b):
					t.Fatalf("%s, trial %d: child %d is new but has a parent's genes", name, trial, i+1)
				case c.got.hasMetr:
					t.Fatalf("%s, trial %d: new child %d carries a metrics memo", name, trial, i+1)
				default:
					// A new child shares no array with a parent: overwrite
					// its genes, and the parents must not change.
					for j := range c.got.Order {
						c.got.Order[j], c.got.Proc[j] = -1, -1
					}
					if !sameGenes(a, a0) || !sameGenes(b, b0) {
						t.Fatalf("%s, trial %d: new child %d shares an array with a parent", name, trial, i+1)
					}
					free.put(c.got)
				}
			}
		}
		t.Logf("%s: %d of 800 children were parents", name, returned)
		if name != "random" && returned == 0 {
			t.Errorf("%s: no child was a parent", name)
		}
	}
}
