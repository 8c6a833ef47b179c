package ga

import "math"

// GenStats is the engine telemetry of one evaluated generation. Every field
// is computed serially from the population in index order, so for a fixed
// configuration the emitted trajectory is bit-identical and
// deterministically ordered across runs — including island runs, where
// stats are buffered per island and emitted at the epoch barriers in
// (generation, island) order.
type GenStats struct {
	// Island is the population's island index (0 for single-population
	// runs).
	Island int
	// Gen is the generation index; 0 is the initial population.
	Gen int
	// Best and Mean summarize the generation's fitness values.
	Best float64
	Mean float64
	// Diversity is the fraction of distinct genotypes in the population,
	// measured by Config.Key; NaN when no Key is configured. Collisions can
	// only under-report diversity, never affect the run.
	Diversity float64
	// Crossovers and Mutations count the operator applications that
	// produced this generation (both 0 for the initial population).
	Crossovers int
	Mutations  int
}

// Observer receives per-generation engine telemetry. Unlike OnGeneration it
// is supported by RunIslands; the stats it receives never expose
// engine-owned arenas, so observers may retain them freely. Observers run
// on the engine's calling goroutine (islands: at the epoch barrier) and
// must not mutate engine state.
type Observer interface {
	ObserveGeneration(GenStats)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(GenStats)

// ObserveGeneration implements Observer.
func (f ObserverFunc) ObserveGeneration(s GenStats) { f(s) }

// MultiObserver fans stats out to several observers in order, skipping
// nils; it returns nil when none remain (keeping the engine's no-observer
// fast path).
func MultiObserver(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiObserver(live)
}

type multiObserver []Observer

func (m multiObserver) ObserveGeneration(s GenStats) {
	for _, o := range m {
		o.ObserveGeneration(s)
	}
}

// opCounts tallies the operator applications of one generation step.
type opCounts struct {
	crossovers int
	mutations  int
}

// genStats assembles the telemetry of an evaluated generation of the
// population that owns ar. Only called when an Observer is configured; the
// diversity set is the arena's, made once and cleared on every call.
func (c Config[T]) genStats(ar *genArena[T], island, gen int, pop []T, fit []float64, oc opCounts) GenStats {
	sum := 0.0
	for _, f := range fit {
		sum += f
	}
	div := math.NaN()
	if c.Key != nil {
		if ar.seen == nil {
			ar.seen = make(map[uint64]struct{}, len(pop))
		}
		clear(ar.seen)
		for _, ind := range pop {
			ar.seen[c.Key(ind)] = struct{}{}
		}
		div = float64(len(ar.seen)) / float64(len(pop))
	}
	return GenStats{
		Island:     island,
		Gen:        gen,
		Best:       fit[argmax(fit)],
		Mean:       sum / float64(len(fit)),
		Diversity:  div,
		Crossovers: oc.crossovers,
		Mutations:  oc.mutations,
	}
}
