package ga

import (
	"math"
	"strings"
	"testing"

	"robsched/internal/rng"
)

// oneMax is a bitstring test problem: fitness = number of ones. The GA must
// reliably solve it, which exercises selection pressure, crossover,
// mutation and elitism end to end. A chromosome is a string of 0 and 1
// bytes, so it is comparable by value, as the engine's type parameter
// requires.
type bits string

// allOnes is the optimal n-bit chromosome.
func allOnes(n int) bits { return bits(strings.Repeat("\x01", n)) }

func oneMaxConfig(n int) Config[bits] {
	return Config[bits]{
		// Section 5's parameters.
		PopSize: 20, CrossoverRate: 0.9, MutationRate: 0.1,
		MaxGenerations: 1000, Stagnation: 100,
		Random: func(r *rng.Source) bits {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(r.Intn(2))
			}
			return bits(b)
		},
		Crossover: func(a, b bits, r *rng.Source) (bits, bits) {
			cut := 1 + r.Intn(n-1)
			return a[:cut] + b[cut:], b[:cut] + a[cut:]
		},
		Mutate: func(ind bits, r *rng.Source) bits {
			out := []byte(ind)
			out[r.Intn(n)] ^= 1
			return bits(out)
		},
		EvaluateInto: func(pop []bits, fit []float64) {
			for i, ind := range pop {
				fit[i] = ones(ind)
			}
		},
		Key: func(ind bits) uint64 {
			const prime64 = 1099511628211
			h := uint64(14695981039346656037)
			for i := 0; i < len(ind); i++ {
				h = (h ^ uint64(ind[i])) * prime64
			}
			return h
		},
	}
}

// ones is oneMax's fitness of one individual.
func ones(ind bits) float64 {
	f := 0.0
	for i := 0; i < len(ind); i++ {
		f += float64(ind[i])
	}
	return f
}

// TestValidate: every invalid field is rejected with an error naming it,
// NaN rates included (a NaN rate would switch its operator off).
func TestValidate(t *testing.T) {
	base := oneMaxConfig(8)
	muts := []struct {
		name, field string
		f           func(*Config[bits])
	}{
		{"pop", "PopSize", func(c *Config[bits]) { c.PopSize = 1 }},
		{"pc", "CrossoverRate", func(c *Config[bits]) { c.CrossoverRate = 1.5 }},
		{"pc NaN", "CrossoverRate", func(c *Config[bits]) { c.CrossoverRate = math.NaN() }},
		{"pm", "MutationRate", func(c *Config[bits]) { c.MutationRate = -0.1 }},
		{"pm NaN", "MutationRate", func(c *Config[bits]) { c.MutationRate = math.NaN() }},
		{"gens", "MaxGenerations", func(c *Config[bits]) { c.MaxGenerations = 0 }},
		{"stag", "Stagnation", func(c *Config[bits]) { c.Stagnation = -1 }},
		{"hooks", "EvaluateInto", func(c *Config[bits]) { c.EvaluateInto = nil }},
		{"seeds", "seeds", func(c *Config[bits]) { c.Seeds = make([]bits, 21) }},
	}
	for _, m := range muts {
		c := base
		m.f(&c)
		if _, err := Run(c, rng.New(1)); err == nil || !strings.Contains(err.Error(), m.field) {
			t.Errorf("%s: err = %v, want an error naming %s", m.name, err, m.field)
		}
	}
}

func TestSolvesOneMax(t *testing.T) {
	const n = 24
	c := oneMaxConfig(n)
	c.MaxGenerations = 400
	c.Stagnation = 0
	res, err := Run(c, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if f := ones(res.Best); f != n {
		t.Fatalf("best fitness %g after %d generations, want %d", f, res.Generations, n)
	}
}

func TestBestFitnessMonotoneWithAbsoluteFitness(t *testing.T) {
	// With an absolute (population-independent) fitness, elitism must make
	// the per-generation best non-decreasing.
	c := oneMaxConfig(16)
	c.MaxGenerations = 150
	c.Stagnation = 0
	prev := -1.0
	c.OnGeneration = func(gen int, pop []bits, fit []float64) {
		best := fit[0]
		for _, f := range fit {
			if f > best {
				best = f
			}
		}
		if best < prev {
			t.Fatalf("generation %d: best fitness dropped %g -> %g", gen, prev, best)
		}
		prev = best
	}
	if _, err := Run(c, rng.New(7)); err != nil {
		t.Fatal(err)
	}
}

func TestSeedsEnterInitialPopulation(t *testing.T) {
	const n = 16
	c := oneMaxConfig(n)
	seed := allOnes(n)
	c.Seeds = []bits{seed}
	sawSeed := false
	c.OnGeneration = func(gen int, pop []bits, fit []float64) {
		if gen != 0 {
			return
		}
		for _, ind := range pop {
			if ind == seed {
				sawSeed = true
			}
		}
	}
	c.MaxGenerations = 1
	c.Stagnation = 0
	res, err := Run(c, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if !sawSeed {
		t.Fatal("seed not present in initial population")
	}
	// The all-ones seed is optimal: it must be the final best.
	if f := ones(res.Best); f != n {
		t.Fatalf("best fitness %g, want %d (the seed)", f, n)
	}
}

func TestInitialPopulationUnique(t *testing.T) {
	c := oneMaxConfig(10)
	c.OnGeneration = func(gen int, pop []bits, fit []float64) {
		if gen != 0 {
			return
		}
		seen := map[bits]bool{}
		for _, ind := range pop {
			if seen[ind] {
				t.Fatalf("duplicate chromosome in initial population: %v", []byte(ind))
			}
			seen[ind] = true
		}
	}
	c.MaxGenerations = 1
	if _, err := Run(c, rng.New(5)); err != nil {
		t.Fatal(err)
	}
}

func TestUniquenessFallbackOnTinySpace(t *testing.T) {
	// Only 2 distinct 1-bit chromosomes exist but PopSize is 4: the
	// uniqueness check must relax rather than loop forever.
	c := oneMaxConfig(1)
	c.PopSize = 4
	c.Crossover = func(a, b bits, r *rng.Source) (bits, bits) { return a, b }
	c.MaxGenerations = 2
	res, err := Run(c, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if f := ones(res.Best); f != 1 {
		t.Fatalf("best fitness %g, want 1", f)
	}
}

func TestStagnationStops(t *testing.T) {
	c := oneMaxConfig(6)
	c.MaxGenerations = 1000
	c.Stagnation = 10
	res, err := Run(c, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	// A 6-bit OneMax converges almost immediately; the run must stop on
	// stagnation well before 1000 generations.
	if !res.Stagnated {
		t.Fatalf("run did not stagnate (generations=%d)", res.Generations)
	}
	if res.Generations >= 1000 {
		t.Fatalf("ran %d generations despite stagnation window", res.Generations)
	}
}

func TestPopulationSizeConstant(t *testing.T) {
	for _, np := range []int{2, 5, 20} { // includes an odd size
		c := oneMaxConfig(8)
		c.PopSize = np
		c.MaxGenerations = 20
		c.Stagnation = 0
		c.OnGeneration = func(gen int, pop []bits, fit []float64) {
			if len(pop) != np || len(fit) != np {
				t.Fatalf("Np=%d: generation %d has %d individuals, %d fitnesses", np, gen, len(pop), len(fit))
			}
		}
		if _, err := Run(c, rng.New(13)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTournamentProperties(t *testing.T) {
	c := oneMaxConfig(4)
	pop := []bits{"\x00\x00\x00\x00", "\x01\x00\x00\x00", "\x01\x01\x00\x00", "\x01\x01\x01\x00", "\x01\x01\x01\x01", "\x00\x01\x00\x00"}
	fit := []float64{0, 1, 2, 3, 4, 1}
	r := rng.New(17)
	out, src, perm := make([]bits, len(pop)), make([]int32, len(pop)), make([]int, len(pop))
	for trial := 0; trial < 50; trial++ {
		c.tournamentInto(out, src, pop, fit, perm, r)
		bestCopies, worstCopies := 0, 0
		for _, ind := range out {
			switch ind {
			case pop[4]:
				bestCopies++
			case pop[0]:
				worstCopies++
			}
		}
		if bestCopies < 2 {
			t.Fatalf("best individual got %d copies, want >= 2", bestCopies)
		}
		if worstCopies != 0 {
			t.Fatalf("worst individual survived with %d copies", worstCopies)
		}
	}
}

func TestZeroRatesStillRun(t *testing.T) {
	c := oneMaxConfig(8)
	c.CrossoverRate = 0
	c.MutationRate = 0
	c.MaxGenerations = 30
	c.Stagnation = 0
	res, err := Run(c, rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	// Selection alone should at least keep the initial best.
	if f := ones(res.Best); f < 4 {
		t.Fatalf("best fitness %g suspiciously low", f)
	}
}

func BenchmarkOneMaxGeneration(b *testing.B) {
	c := oneMaxConfig(64)
	c.MaxGenerations = 1
	c.Stagnation = 0
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c, r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEvaluateOneElitismMatchesFullReevaluation: with a population-
// independent fitness, supplying EvaluateOne must leave the evolution
// trajectory bit-identical to the full post-elitism re-evaluation — it only
// skips redundant work.
func TestEvaluateOneElitismMatchesFullReevaluation(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		run := func(fast bool) Result[bits] {
			c := oneMaxConfig(24)
			c.MaxGenerations = 40
			c.Stagnation = 0
			if fast {
				c.EvaluateOne = ones
			}
			res, err := Run(c, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		full, fast := run(false), run(true)
		if full.Generations != fast.Generations || full.Stagnated != fast.Stagnated {
			t.Fatalf("seed %d: EvaluateOne run diverged: %+v vs %+v", seed, fast, full)
		}
		if full.Best != fast.Best {
			t.Fatalf("seed %d: best individuals differ", seed)
		}
	}
}

// TestConstantKeyOnlyAffectsInitialDedup: the Key hook is consulted only
// while building the initial population. A constant (maximally colliding)
// Key makes every random candidate look like a duplicate, so the engine's
// bounded-miss fallback must kick in, fill the population to Np anyway, and
// the run must complete with fitness untouched by the hook.
func TestConstantKeyOnlyAffectsInitialDedup(t *testing.T) {
	c := oneMaxConfig(16)
	c.MaxGenerations = 30
	c.Stagnation = 0
	c.Key = func(bits) uint64 { return 42 }
	popSizes := map[int]bool{}
	c.OnGeneration = func(gen int, pop []bits, fit []float64) {
		popSizes[len(pop)] = true
	}
	res, err := Run(c, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(popSizes) != 1 || !popSizes[c.PopSize] {
		t.Fatalf("population size not constant at %d: %v", c.PopSize, popSizes)
	}
	if res.Generations != 30 {
		t.Fatalf("run did not complete: %d generations", res.Generations)
	}
	// The fallback accepts genotype duplicates; evolution still improves.
	if f := ones(res.Best); f < 12 {
		t.Fatalf("best fitness %g implausibly low for oneMax(16)", f)
	}
}

// TestRunSteadyStateAllocationFree: with non-allocating hooks, the
// per-generation cost of Run must be constant — the engine's arenas are
// reused, so 16x more generations may not allocate measurably more than
// the baseline run. This pins the property that the steady-state loop
// performs no per-generation allocations, with and without an Observer
// (whose diversity set the arena keeps). The chromosome is a value type (a
// 16-bit mask in an int) so the hooks themselves cannot allocate; every
// allocation belongs to the engine.
func TestRunSteadyStateAllocationFree(t *testing.T) {
	observed := 0
	newConfig := func(gens int, observe bool) Config[int] {
		c := Config[int]{
			PopSize: 20, CrossoverRate: 0.9, MutationRate: 0.1,
			MaxGenerations: gens, Stagnation: 0,
			Random: func(r *rng.Source) int { return r.Intn(1 << 16) },
			Crossover: func(a, b int, r *rng.Source) (int, int) {
				mask := (1 << (1 + r.Intn(15))) - 1
				return a&mask | b&^mask, b&mask | a&^mask
			},
			Mutate: func(ind int, r *rng.Source) int { return ind ^ (1 << r.Intn(16)) },
			EvaluateInto: func(pop []int, fit []float64) {
				for i, ind := range pop {
					fit[i] = float64(bitCount(ind))
				}
			},
		}
		if observe {
			c.Key = func(ind int) uint64 { return uint64(ind) }
			c.Observer = ObserverFunc(func(GenStats) { observed++ })
		}
		return c
	}
	for _, observe := range []bool{false, true} {
		measure := func(gens int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := Run(newConfig(gens, observe), rng.New(1)); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := measure(8), measure(128)
		// Fixed setup cost (initial population, arenas) plus a small slop;
		// the 120 extra generations must not contribute ~per-generation
		// allocations.
		if long > short+8 {
			t.Fatalf("observer=%v: steady state allocates per generation: 8 gens → %.0f allocs, 128 gens → %.0f",
				observe, short, long)
		}
	}
	if observed == 0 {
		t.Fatal("the Observer saw no generation")
	}
}

func bitCount(v int) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}
