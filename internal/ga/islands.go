package ga

import (
	"fmt"
	"sync"

	"robsched/internal/rng"
)

// IslandConfig runs K independent populations ("islands") of the same
// problem in parallel goroutines, exchanging their best individuals every
// MigrationEvery generations in a ring topology. Island models both cut
// wall-clock time on multicore machines and preserve diversity: separated
// populations explore different basins before migration cross-pollinates
// them.
type IslandConfig[T any] struct {
	// Base is the per-island configuration. Its Seeds go to island 0; all
	// islands share the hooks and parameters. OnGeneration is not
	// supported across islands and must be nil.
	Base Config[T]
	// Islands is the number of populations (>= 1; 1 degenerates to Run).
	Islands int
	// MigrationEvery is the generation interval between migrations
	// (default 25).
	MigrationEvery int
}

// DefaultMigrationEvery is the epoch length (generations between ring
// migrations) when IslandConfig.MigrationEvery is zero.
const DefaultMigrationEvery = 25

// Island is one population's live state together with the stepping
// operations of the island model: evolve an epoch, exchange a migrant,
// report the running best. RunIslands drives a set of Islands in
// goroutines; a distributed coordinator (internal/dist) drives the same
// state machine across worker processes — both produce bit-identical
// trajectories because every step is a pure function of the island's own
// RNG stream, its population and the migrants it receives.
type Island[T any] struct {
	cfg Config[T]
	idx int

	pop  []T
	fit  []float64
	rng  *rng.Source
	best T
	bf   float64
	ar   *genArena[T]

	// sinceImprove counts consecutive generations without a strict best-
	// fitness improvement, the per-island half of the global stagnation
	// criterion (a run stops when every island has stagnated).
	sinceImprove int

	// stats buffers the epoch's GenStats for deterministic emission at the
	// barrier (only filled when an Observer is configured).
	stats []GenStats
}

// NewIsland initializes island idx of an island-model run: it validates the
// configuration, builds and evaluates the initial population from r (the
// island's own stream — RunIslands derives one per island by root.Split()
// in island order) and records the initial best. Heuristic Seeds go to
// island 0 only, exactly as in RunIslands. Island never calls OnGeneration;
// Run, the one-island runner, does.
func NewIsland[T any](c Config[T], idx int, r *rng.Source) (*Island[T], error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if idx != 0 {
		c.Seeds = nil // the paper's heuristic seed goes to island 0
	}
	pop, seeds := c.initialPopulation(r)
	fit := make([]float64, c.PopSize)
	c.EvaluateInto(pop, fit)
	bi := argmax(fit)
	return &Island[T]{
		cfg: c, idx: idx,
		pop: pop, fit: fit, rng: r, best: pop[bi], bf: fit[bi],
		ar: newArena[T](c.PopSize, seeds),
	}, nil
}

// Index returns the island's position in the ring.
func (is *Island[T]) Index() int { return is.idx }

// Best returns the island's current best individual and its fitness (as
// valued within the island's own population at its last evaluation). With
// Recycle set, a later Epoch may overwrite the individual once the island
// drops it, so a caller that keeps it past the next Epoch must copy it.
func (is *Island[T]) Best() (T, float64) { return is.best, is.bf }

// SinceImprove returns the number of consecutive generations the island's
// best fitness has not strictly improved.
func (is *Island[T]) SinceImprove() int { return is.sinceImprove }

// InitStats returns the GenStats of the initial population (generation 0).
// Only meaningful when an Observer is configured on the base config; the
// island-model runner emits it before the first epoch.
func (is *Island[T]) InitStats() GenStats {
	return is.cfg.genStats(is.ar, is.idx, 0, is.pop, is.fit, opCounts{})
}

// Epoch advances the island by gens generations. startGen is the number of
// generations already evolved (for stats numbering); when an Observer is
// configured the per-generation stats are buffered on the island — the
// caller emits them at its barrier in (generation, island) order so the
// observed trajectory is independent of how epochs are scheduled.
func (is *Island[T]) Epoch(startGen, gens int) {
	for e := 0; e < gens; e++ {
		oc := is.step()
		if is.cfg.Observer != nil {
			is.stats = append(is.stats, is.cfg.genStats(is.ar, is.idx, startGen+e+1, is.pop, is.fit, oc))
		}
	}
}

// step advances the island one generation and updates its running best,
// which follows the population's current best even when fitness is flat
// (the ε-constraint fitness drifts with the population), and its count of
// generations without a strict improvement. It returns the generation's
// operator counts.
func (is *Island[T]) step() opCounts {
	next, fit, oc := is.cfg.advance(is.pop, is.fit, is.ar, is.rng)
	is.pop, is.fit = next, fit
	bi := argmax(fit)
	if fit[bi] > is.bf+1e-12 {
		is.sinceImprove = 0
	} else {
		is.sinceImprove++
	}
	is.best, is.bf = is.pop[bi], fit[bi]
	return oc
}

// Migrate implements the receiving half of the ring migration: the island's
// worst individual is replaced by the migrant (the left neighbour's best)
// and fitness is refreshed — population-independent fitnesses re-score just
// the replaced slot via EvaluateOne, population-relative ones re-evaluate
// the whole island. The running best is updated from the refreshed values.
// The migrant is never recycled: it may live on in the sender's population.
func (is *Island[T]) Migrate(migrant T) {
	worst := argmin(is.fit)
	if is.cfg.Recycle != nil {
		is.ar.evict(is.pop, worst, is.cfg.Recycle)
	}
	is.pop[worst] = migrant
	if is.cfg.EvaluateOne != nil {
		is.fit[worst] = is.cfg.EvaluateOne(migrant)
	} else {
		is.cfg.EvaluateInto(is.pop, is.fit)
	}
	bi := argmax(is.fit)
	is.best, is.bf = is.pop[bi], is.fit[bi]
}

// pinBest keeps the island's best individual from ever being recycled,
// before RunIslands shares it with the next island's population.
func (is *Island[T]) pinBest() {
	if is.cfg.Recycle != nil {
		is.ar.pin(argmax(is.fit))
	}
}

// takeStats drains the buffered epoch stats without freeing the backing
// array, so the next epoch appends into the same buffer.
func (is *Island[T]) takeStats() []GenStats {
	out := is.stats
	is.stats = is.stats[:0]
	return out
}

// RunIslands evolves the islands and returns the best individual across
// all of them, evaluated within its own island's final population.
func RunIslands[T any](c IslandConfig[T], root *rng.Source) (Result[T], error) {
	var zero Result[T]
	if c.Islands < 1 {
		return zero, fmt.Errorf("ga: Islands=%d must be >= 1", c.Islands)
	}
	if c.Base.OnGeneration != nil {
		return zero, fmt.Errorf("ga: OnGeneration is not supported with islands")
	}
	if c.Islands == 1 {
		return Run(c.Base, root)
	}
	every := c.MigrationEvery
	if every <= 0 {
		every = DefaultMigrationEvery
	}

	// Each island runs in epochs of `every` generations; between epochs
	// the ring migration replaces each island's worst individual with its
	// left neighbour's best. The per-island stepping lives in Island so
	// this in-process runner and the multi-process coordinator in
	// internal/dist share one state machine.
	states := make([]*Island[T], c.Islands)
	for i := range states {
		st, err := NewIsland(c.Base, i, root.Split())
		if err != nil {
			return zero, err
		}
		states[i] = st
	}
	// Observer: island stats are buffered per island while the goroutines
	// run and emitted only here on the calling goroutine, in (generation,
	// island) order — a deterministic interleaving no matter how the epochs
	// are scheduled. Generation 0 covers the initial populations.
	if c.Base.Observer != nil {
		for _, st := range states {
			c.Base.Observer.ObserveGeneration(st.InitStats())
		}
	}

	totalGens := c.Base.MaxGenerations
	gen := 0
	for gen < totalGens {
		epoch := every
		if gen+epoch > totalGens {
			epoch = totalGens - gen
		}
		var wg sync.WaitGroup
		for _, st := range states {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st.Epoch(gen, epoch)
			}()
		}
		wg.Wait()
		if c.Base.Observer != nil {
			buffered := make([][]GenStats, len(states))
			for i, st := range states {
				buffered[i] = st.takeStats()
			}
			for e := 0; e < epoch; e++ {
				for _, stats := range buffered {
					c.Base.Observer.ObserveGeneration(stats[e])
				}
			}
		}
		gen += epoch
		// Ring migration: island i's worst is replaced by island (i-1)'s
		// best, then fitness is refreshed.
		if gen < totalGens {
			bests := make([]T, c.Islands)
			for i, st := range states {
				bests[i], _ = st.Best()
				st.pinBest()
			}
			for i, st := range states {
				st.Migrate(bests[(i-1+c.Islands)%c.Islands])
			}
		}
		// Global stagnation: stop when every island has stagnated.
		if c.Base.Stagnation > 0 {
			all := true
			for _, st := range states {
				if st.SinceImprove() < c.Base.Stagnation {
					all = false
					break
				}
			}
			if all {
				return Result[T]{Best: pickBest(states).best, Generations: gen, Stagnated: true}, nil
			}
		}
	}
	return Result[T]{Best: pickBest(states).best, Generations: totalGens}, nil
}

// pickBest returns the island holding the globally best individual; ties
// keep the lowest island index, the same rule a coordinator applies when
// gathering bests over the wire.
func pickBest[T any](states []*Island[T]) *Island[T] {
	out := states[0]
	for _, s := range states[1:] {
		if s.bf > out.bf {
			out = s
		}
	}
	return out
}
