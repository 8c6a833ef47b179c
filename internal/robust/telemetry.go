package robust

import (
	"math"

	"robsched/internal/ga"
	"robsched/internal/obs"
)

// telemetryObserver adapts Options.Obs/Options.Trace into a ga.Observer.
// Registry updates are pure counts over the (deterministic) GenStats
// trajectory, so two identically-configured runs produce identical
// snapshots; the trace events additionally carry the engine telemetry as
// JSONL for offline inspection. Returns nil when both sinks are off so the
// engine keeps its no-observer fast path.
func telemetryObserver(reg *obs.Registry, tr *obs.Tracer) ga.Observer {
	if reg == nil && tr == nil {
		return nil
	}
	gens := reg.Counter("ga.generations")
	cross := reg.Counter("ga.crossovers")
	mut := reg.Counter("ga.mutations")
	best := reg.Gauge("ga.best_fitness")
	mean := reg.Gauge("ga.mean_fitness")
	div := reg.Gauge("ga.diversity")
	sc := tr.Scope("ga")
	return ga.ObserverFunc(func(s ga.GenStats) {
		if s.Gen > 0 {
			gens.Inc()
		}
		cross.Add(int64(s.Crossovers))
		mut.Add(int64(s.Mutations))
		best.Set(s.Best)
		mean.Set(s.Mean)
		attrs := []obs.Attr{
			obs.F("island", float64(s.Island)),
			obs.F("gen", float64(s.Gen)),
			obs.F("best", s.Best),
			obs.F("mean", s.Mean),
			obs.F("crossovers", float64(s.Crossovers)),
			obs.F("mutations", float64(s.Mutations)),
		}
		// Diversity is NaN when the engine has no Key hook; NaN is not
		// representable in JSON, so it is dropped rather than encoded.
		if !math.IsNaN(s.Diversity) {
			div.Set(s.Diversity)
			attrs = append(attrs, obs.F("diversity", s.Diversity))
		}
		sc.Event("generation", attrs...)
	})
}

// recordCacheStats adds one run's metrics-cache traffic (the Stats of the
// cache that served it) to the registry and emits it as a trace event.
func recordCacheStats(reg *obs.Registry, tr *obs.Tracer, d CacheStats) {
	reg.Counter("cache.hits").Add(d.Hits)
	reg.Counter("cache.misses").Add(d.Misses)
	reg.Counter("cache.evictions").Add(d.Evictions)
	tr.Scope("cache").Event("stats",
		obs.F("hits", float64(d.Hits)),
		obs.F("misses", float64(d.Misses)),
		obs.F("evictions", float64(d.Evictions)),
	)
}
