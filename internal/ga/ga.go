// Package ga implements the standard genetic algorithm of Section 4.2 as a
// reusable engine: constant-size population, uniqueness-checked initial
// population with heuristic seeding, systematic binary tournament selection
// (Goldberg & Deb), single-point crossover and mutation hooks, elitism, and
// the paper's stopping criteria (generation cap or stagnation window).
//
// The engine is generic over the chromosome type; the bi-objective robust
// scheduling chromosome lives in internal/robust. Fitness is evaluated for
// the whole population at once because the paper's ε-constraint fitness
// (Eqn. 8) is population-based: an infeasible individual's value depends on
// the minimum feasible fitness of its generation.
package ga

import (
	"fmt"

	"robsched/internal/rng"
)

// Config assembles the problem-specific hooks and the GA parameters.
type Config[T any] struct {
	// PopSize is Np, the constant population size.
	PopSize int
	// CrossoverRate is pc: the fraction of the intermediate population
	// recombined each generation (the rest is copied unchanged).
	CrossoverRate float64
	// MutationRate is pm: the probability that an individual is mutated.
	MutationRate float64
	// MaxGenerations caps the evolution (paper: 1000).
	MaxGenerations int
	// Stagnation stops the run when the best fitness has not improved for
	// this many consecutive generations (paper: 100). Zero disables it.
	Stagnation int

	// Random generates one random individual.
	Random func(r *rng.Source) T
	// Crossover recombines two parents into two offspring. It must not
	// modify the parents.
	Crossover func(a, b T, r *rng.Source) (T, T)
	// Mutate returns a mutated copy of the individual. It must not modify
	// its argument.
	Mutate func(ind T, r *rng.Source) T
	// EvaluateInto writes the fitness of every individual of pop into fit
	// (len(fit) == len(pop); larger is better), so the engine reuses one
	// fitness arena across generations. It must be pure with respect to
	// the population: it must not mutate pop (memoizing per-individual
	// decode state is fine), and it must write the same values when called
	// again on the same individuals. The engine relies on this — elitism
	// may evaluate a population twice per generation.
	EvaluateInto func(pop []T, fit []float64)
	// EvaluateOne returns the fitness of a single individual. Optional: set
	// it only when fitness is population-independent (each individual's
	// value does not depend on its peers), and it must agree exactly with
	// EvaluateInto. When present, the engine re-scores only the elite
	// individual after elitism instead of re-evaluating the whole
	// population. Leave nil for population-relative fitness such as the
	// ε-constraint mode.
	EvaluateOne func(ind T) float64
	// Key returns a fingerprint used to reject duplicate individuals when
	// building the initial population (e.g. a hash of the genotype).
	// Optional; nil disables the check. Collisions are benign: a colliding
	// fresh individual is rejected as a duplicate and redrawn.
	Key func(ind T) uint64

	// Recycle, if non-nil, receives every individual a generation dropped:
	// one that no population slot, elite, running best or migrant refers to
	// any more. The operators may then overwrite it instead of allocating a
	// new one. Setting it promises that Random, Crossover and Mutate always
	// return new individuals that share no storage with any live one. Seeds
	// and individuals that crossed a migration are never recycled. Island
	// runs call Recycle from several goroutines at once.
	Recycle func(ind T)

	// Seeds are injected into the initial population before random filling
	// (the paper seeds one HEFT chromosome).
	Seeds []T

	// OnGeneration, if non-nil, observes every generation after evaluation:
	// the generation index (0 = initial population), the population and its
	// fitness values. Both slices are engine-owned arenas reused across
	// generations — observers that retain them past the callback must copy.
	// With Recycle set, the individuals themselves may be overwritten once
	// the callback returns, so an observer that keeps one must copy it too.
	// Used by the Fig. 2/3 evolution-trace experiments.
	OnGeneration func(gen int, pop []T, fit []float64)

	// Observer, if non-nil, receives per-generation telemetry (GenStats):
	// best/mean fitness, genotype diversity and operator counts. Unlike
	// OnGeneration it is also supported by RunIslands, which buffers each
	// island's stats and emits them deterministically at the epoch
	// barriers. With no Observer the engine skips all stats work.
	Observer Observer
}

func (c *Config[T]) validate() error {
	switch {
	case c.PopSize < 2:
		return fmt.Errorf("ga: PopSize=%d must be >= 2", c.PopSize)
	case c.CrossoverRate < 0 || c.CrossoverRate > 1:
		return fmt.Errorf("ga: CrossoverRate=%g out of [0,1]", c.CrossoverRate)
	case c.MutationRate < 0 || c.MutationRate > 1:
		return fmt.Errorf("ga: MutationRate=%g out of [0,1]", c.MutationRate)
	case c.MaxGenerations < 1:
		return fmt.Errorf("ga: MaxGenerations=%d must be >= 1", c.MaxGenerations)
	case c.Stagnation < 0:
		return fmt.Errorf("ga: Stagnation=%d must be >= 0", c.Stagnation)
	case c.Random == nil || c.Crossover == nil || c.Mutate == nil || c.EvaluateInto == nil:
		return fmt.Errorf("ga: Random, Crossover, Mutate and EvaluateInto hooks are required")
	case len(c.Seeds) > c.PopSize:
		return fmt.Errorf("ga: %d seeds exceed population size %d", len(c.Seeds), c.PopSize)
	}
	return nil
}

// Result reports the outcome of one GA run.
type Result[T any] struct {
	// Best is the fittest individual ever evaluated.
	Best T
	// Generations is the number of evolution steps performed (excluding
	// the initial population).
	Generations int
	// Stagnated reports whether the run stopped on the stagnation window
	// rather than the generation cap.
	Stagnated bool
}

// genArena holds the engine-owned buffers one population reuses across
// generations: the tournament output, the recombination target (ping-ponged
// with the live population slice), a spare fitness slice, the Fisher–Yates
// permutation scratch, the Observer's diversity set and the ownership
// bookkeeping behind Recycle. With non-allocating hooks, a steady-state
// generation performs zero allocations beyond what the operators
// themselves require.
type genArena[T any] struct {
	inter []T
	spare []T
	fit   []float64
	perm  []int
	// seen is genStats' set of distinct genotype keys, made on first use.
	seen map[uint64]struct{}

	// src[i] is the slot of the current population that slot i of the
	// next one copies (a tournament winner, or the elite), or freshSlot for
	// an individual an operator returned.
	src []int32
	// Ownership, kept only when Config.Recycle is set. One individual may
	// fill several slots (tournament copies, the elite), so id[i] names the
	// individual in slot i of the current population by the lowest slot
	// holding it, or is pinnedID when it must never be recycled. nextID is
	// id for the population being built, and first maps a current id to
	// the first next slot holding that individual.
	id, nextID, first []int32
}

const (
	freshSlot = -1 // src: an individual no current slot holds
	pinnedID  = -1 // id: a seed or an individual shared with another island
)

// newArena sizes the buffers for np individuals whose first seeds slots
// hold the configured seeds.
func newArena[T any](np, seeds int) *genArena[T] {
	ar := &genArena[T]{
		inter:  make([]T, np),
		spare:  make([]T, np),
		fit:    make([]float64, np),
		perm:   make([]int, np),
		src:    make([]int32, np),
		id:     make([]int32, np),
		nextID: make([]int32, np),
		first:  make([]int32, np),
	}
	for i := range ar.id {
		ar.id[i] = int32(i)
		if i < seeds {
			ar.id[i] = pinnedID
		}
	}
	return ar
}

// release hands recycle every individual of pop, the population a step
// just replaced, that no slot of the next population holds, and derives
// the next population's ids from src. A pinned individual stays pinned in
// every slot it is copied to and is never handed out.
func (ar *genArena[T]) release(pop []T, recycle func(T)) {
	for j := range ar.first {
		ar.first[j] = -1
	}
	for i, s := range ar.src {
		switch {
		case s == freshSlot:
			ar.nextID[i] = int32(i)
		case ar.id[s] == pinnedID:
			ar.nextID[i] = pinnedID
		default:
			g := ar.id[s]
			if ar.first[g] < 0 {
				ar.first[g] = int32(i)
			}
			ar.nextID[i] = ar.first[g]
		}
	}
	for j, g := range ar.id {
		if g == int32(j) && ar.first[j] < 0 {
			recycle(pop[j])
		}
	}
	ar.id, ar.nextID = ar.nextID, ar.id
}

// evict gives slot k of pop to a migrant, which is pinned: it is shared
// with the island that sent it. The individual leaving the slot goes to
// recycle when no other slot holds it.
func (ar *genArena[T]) evict(pop []T, k int, recycle func(T)) {
	g := ar.id[k]
	ar.id[k] = pinnedID
	if g != int32(k) {
		return // pinned, or also held by the lower slot g
	}
	// Every other holder sits above k, its lowest slot; the next lowest
	// becomes their id.
	next := int32(-1)
	for i := k + 1; i < len(ar.id); i++ {
		if ar.id[i] == g {
			if next < 0 {
				next = int32(i)
			}
			ar.id[i] = next
		}
	}
	if next < 0 {
		recycle(pop[k])
	}
}

// pin marks the individual in slot k, in every slot holding it, as never
// to be recycled: it is about to join another island's population.
func (ar *genArena[T]) pin(k int) {
	g := ar.id[k]
	if g == pinnedID {
		return
	}
	for i, x := range ar.id {
		if x == g {
			ar.id[i] = pinnedID
		}
	}
}

// advance runs one generation step — tournament, recombination, evaluation,
// elitism (the worst of the new population is replaced by the elite, then
// re-scored) — using ar's buffers, and returns the new population and its
// fitness. The elite is pop's first fittest individual, which is the
// running best Run and Island track. The buffers previously holding pop and
// fit are recycled into ar for the next call, so the steady state allocates
// nothing; with Recycle set, so are the individuals the step dropped. The
// trajectory is bit-identical to the historical allocate-per-generation
// loop.
func (c Config[T]) advance(pop []T, fit []float64, ar *genArena[T], r *rng.Source) ([]T, []float64, opCounts) {
	ei := argmax(fit)
	elite := pop[ei]
	c.tournamentInto(ar.inter, ar.src, pop, fit, ar.perm, r)
	next, nextFit := ar.spare, ar.fit
	oc := c.recombineInto(next, ar.inter, ar.src, r)
	c.EvaluateInto(next, nextFit)
	// Elitism: the worst of the new population is replaced by the best
	// of the current one (Section 4.2.3), then re-scored within the new
	// population. With a population-relative fitness (ε-constraint,
	// Eqn. 8) the whole population must be re-evaluated — the
	// carried-over individual is valued against its new peers — but a
	// population-independent fitness only needs the one replaced slot
	// re-scored via EvaluateOne.
	worst := argmin(nextFit)
	c.dropFresh(next[worst], ar.src[worst])
	next[worst], ar.src[worst] = elite, int32(ei)
	if c.EvaluateOne != nil {
		nextFit[worst] = c.EvaluateOne(elite)
	} else {
		c.EvaluateInto(next, nextFit)
	}
	if c.Recycle != nil {
		ar.release(pop, c.Recycle)
	}
	ar.spare, ar.fit = pop, fit
	return next, nextFit, oc
}

// dropFresh recycles ind, which is leaving its slot of the population being
// built, when an operator returned it this step: then no other slot holds
// it.
func (c Config[T]) dropFresh(ind T, src int32) {
	if src == freshSlot && c.Recycle != nil {
		c.Recycle(ind)
	}
}

// Run evolves a population and returns the best individual found. It is
// one Island stepped a generation at a time, with OnGeneration, the
// Observer and the stagnation stop applied after every step.
func Run[T any](c Config[T], r *rng.Source) (Result[T], error) {
	is, err := NewIsland(c, 0, r)
	if err != nil {
		return Result[T]{}, err
	}
	if c.OnGeneration != nil {
		c.OnGeneration(0, is.pop, is.fit)
	}
	if c.Observer != nil {
		c.Observer.ObserveGeneration(is.InitStats())
	}
	for gen := 1; gen <= c.MaxGenerations; gen++ {
		oc := is.step()
		if c.OnGeneration != nil {
			c.OnGeneration(gen, is.pop, is.fit)
		}
		if c.Observer != nil {
			c.Observer.ObserveGeneration(c.genStats(is.ar, 0, gen, is.pop, is.fit, oc))
		}
		if c.Stagnation > 0 && is.sinceImprove >= c.Stagnation {
			return Result[T]{Best: is.best, Generations: gen, Stagnated: true}, nil
		}
	}
	return Result[T]{Best: is.best, Generations: c.MaxGenerations}, nil
}

// initialPopulation seeds, then fills with unique random individuals
// (Section 4.2.2), and reports how many leading slots hold seeds. After a
// bounded number of duplicate rejections the uniqueness requirement is
// dropped so degenerate search spaces (e.g. a one-task graph) cannot hang
// the run.
func (c Config[T]) initialPopulation(r *rng.Source) ([]T, int) {
	pop := make([]T, 0, c.PopSize)
	seen := make(map[uint64]bool, c.PopSize)
	add := func(ind T) bool {
		if c.Key != nil {
			k := c.Key(ind)
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		pop = append(pop, ind)
		return true
	}
	for _, s := range c.Seeds {
		add(s)
	}
	seeds := len(pop)
	misses := 0
	for len(pop) < c.PopSize {
		if add(c.Random(r)) {
			misses = 0
			continue
		}
		misses++
		if misses > 50*c.PopSize {
			// Give up on uniqueness: accept duplicates.
			saved := c.Key
			c.Key = nil
			for len(pop) < c.PopSize {
				add(c.Random(r))
			}
			c.Key = saved
		}
	}
	return pop, seeds
}

// tournamentInto runs the systematic binary tournament into dst (len(pop)),
// recording in src the slot of pop each winner came from: the population is
// shuffled twice and adjacent pairs compete, so every individual
// participates in exactly two tournaments; the best individual always wins
// both (two copies), the worst always loses both (eliminated). perm is the
// engine-owned Fisher–Yates scratch (len(pop)); the RNG draw sequence —
// including the odd-population leftover bout whose second-round winner is
// discarded to keep size Np — matches the historical allocating
// implementation exactly.
func (c Config[T]) tournamentInto(dst []T, src []int32, pop []T, fit []float64, perm []int, r *rng.Source) {
	np := len(pop)
	k := 0
	for round := 0; round < 2; round++ {
		r.PermInto(perm)
		for i := 0; i+1 < np; i += 2 {
			a, b := perm[i], perm[i+1]
			if !(fit[a] >= fit[b]) {
				a = b
			}
			dst[k], src[k] = pop[a], int32(a)
			k++
		}
		if np%2 == 1 {
			// Odd population: the leftover individual fights a random
			// opponent so the intermediate population keeps size Np. The
			// second round's leftover winner falls past Np and is dropped,
			// but its opponent draw is still consumed.
			a := perm[np-1]
			b := perm[r.Intn(np-1)]
			if !(fit[a] >= fit[b]) {
				a = b
			}
			if k < np {
				dst[k], src[k] = pop[a], int32(a)
				k++
			}
		}
	}
}

// recombineInto applies crossover to a pc fraction of the intermediate
// population (pairing adjacent individuals, which the tournament already
// shuffled) and mutation with probability pm per individual, writing the
// offspring into dst (len(inter), disjoint from inter) and marking each
// operator's output freshSlot in src. A crossover child that is mutated
// in turn leaves the population at once, so it is recycled on the spot.
// The returned operator counts feed the Observer; tallying them costs no
// allocation.
func (c Config[T]) recombineInto(dst, inter []T, src []int32, r *rng.Source) opCounts {
	np := len(inter)
	var oc opCounts
	copy(dst, inter)
	for i := 0; i+1 < np; i += 2 {
		if r.Float64() < c.CrossoverRate {
			dst[i], dst[i+1] = c.Crossover(inter[i], inter[i+1], r)
			src[i], src[i+1] = freshSlot, freshSlot
			oc.crossovers++
		}
	}
	for i := range dst {
		if r.Float64() < c.MutationRate {
			m := c.Mutate(dst[i], r)
			c.dropFresh(dst[i], src[i])
			dst[i], src[i] = m, freshSlot
			oc.mutations++
		}
	}
	return oc
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
