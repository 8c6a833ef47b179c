package robust

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"robsched/internal/ga"
	"robsched/internal/obs"
	"robsched/internal/rng"
)

func solveStats(t *testing.T, islands int) ([]ga.GenStats, *obs.Snapshot, *Result) {
	t.Helper()
	w := testWorkload(t, 4242, 25, 4)
	var got []ga.GenStats
	reg := obs.NewRegistry()
	opt := Options{
		Mode:    MinMakespan,
		PopSize: 16, CrossoverRate: 0.9, MutationRate: 0.1,
		MaxGenerations: 40, Stagnation: 0,
		Islands:  islands,
		Obs:      reg,
		Observer: ga.ObserverFunc(func(s ga.GenStats) { got = append(got, s) }),
	}
	res, err := Solve(w, opt, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	return got, &snap, res
}

// TestObserverIslandsDeterministic runs the island solver twice with
// identical configuration: the ordered trajectory and the registry snapshot
// must both reproduce exactly.
func TestObserverIslandsDeterministic(t *testing.T) {
	a, snapA, _ := solveStats(t, 3)
	b, snapB, _ := solveStats(t, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("island observer trajectories differ between identical runs")
	}
	if !reflect.DeepEqual(snapA, snapB) {
		t.Fatalf("island registry snapshots differ:\n%+v\n%+v", snapA, snapB)
	}
	// 3 islands, 40 generations each, plus gen 0 per island.
	if len(a) != 3*41 {
		t.Fatalf("observed %d stats, want %d", len(a), 3*41)
	}
}

// TestRegistryCountsMatchRun cross-checks the registry against ground truth
// from the run itself: ga.generations equals the result's generation count,
// operator counters equal the trajectory totals, and the cache counters
// partition the trajectory's lookups.
func TestRegistryCountsMatchRun(t *testing.T) {
	stats, snap, res := solveStats(t, 0)
	if got, want := snap.Counters["ga.generations"], int64(res.Generations); got != want {
		t.Fatalf("ga.generations = %d, want %d", got, want)
	}
	var cross, mut int64
	for _, s := range stats {
		cross += int64(s.Crossovers)
		mut += int64(s.Mutations)
	}
	if snap.Counters["ga.crossovers"] != cross || snap.Counters["ga.mutations"] != mut {
		t.Fatalf("operator counters = %d/%d, want %d/%d",
			snap.Counters["ga.crossovers"], snap.Counters["ga.mutations"], cross, mut)
	}
	if snap.Counters["cache.hits"]+snap.Counters["cache.misses"] == 0 {
		t.Fatal("cache counters are empty — cache traffic not recorded")
	}
	last := stats[len(stats)-1]
	if g := snap.Gauges["ga.best_fitness"]; g != last.Best {
		t.Fatalf("ga.best_fitness = %g, want %g", g, last.Best)
	}
	if d := snap.Gauges["ga.diversity"]; math.IsNaN(d) || d <= 0 || d > 1 {
		t.Fatalf("ga.diversity = %g, want in (0,1]", d)
	}
}

// TestCacheStatsCounters drives the cache directly and checks the traffic
// counters.
func TestCacheStatsCounters(t *testing.T) {
	w := testWorkload(t, 4300, 10, 3)
	g := pack(nil, Random(w, rng.New(9)))
	mc := NewMetricsCache()
	if _, ok := mc.lookup(g); ok {
		t.Fatal("lookup in empty cache must miss")
	}
	mc.insert(g, schedMetrics{m0: 1})
	if _, ok := mc.lookup(g); !ok {
		t.Fatal("lookup after insert must hit")
	}
	if st := mc.Stats(); st != (CacheStats{Hits: 1, Misses: 1}) {
		t.Fatalf("stats = %+v, want hits=1 misses=1", st)
	}

	var nilCache *MetricsCache
	if nilCache.Stats() != (CacheStats{}) {
		t.Fatal("nil cache stats must be zero")
	}
}

// TestSolveTraceEvents runs a traced solve and checks the JSONL stream:
// parseable, one ga/generation event per observed generation, the
// cache/stats event, and the robust/solve span.
func TestSolveTraceEvents(t *testing.T) {
	w := testWorkload(t, 4400, 15, 3)
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	opt := Options{
		Mode:    MinMakespan,
		PopSize: 12, CrossoverRate: 0.9, MutationRate: 0.1,
		MaxGenerations: 10, Stagnation: 0,
		Trace: tr,
	}
	res, err := Solve(w, opt, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	var genEvents, cacheEvents, solveSpans int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec obs.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable trace line %q: %v", line, err)
		}
		switch {
		case rec.Scope == "ga" && rec.Name == "generation":
			genEvents++
		case rec.Scope == "cache" && rec.Name == "stats":
			cacheEvents++
		case rec.Scope == "robust" && rec.Name == "solve" && rec.Kind == "span":
			solveSpans++
		}
	}
	if genEvents != res.Generations+1 {
		t.Fatalf("trace has %d generation events, want %d", genEvents, res.Generations+1)
	}
	if cacheEvents != 1 || solveSpans != 1 {
		t.Fatalf("cache events = %d, solve spans = %d, want 1/1", cacheEvents, solveSpans)
	}
}
