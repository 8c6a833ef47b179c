package robust

import (
	"fmt"
	"math"
	"testing"

	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// solveTrace is everything observable about one Solve run that the cache and
// worker-count invariance properties compare: the final best schedule's
// genotype and metrics, the termination bookkeeping, and (single-population
// runs only) the per-generation best-makespan/slack trajectory.
type solveTrace struct {
	order, proc []int
	m0, slack   float64
	gens        int
	stagnated   bool
	trajM0      []float64
	trajSlack   []float64
}

// solveTraced solves a fresh copy of the workload with the given options and
// collects the trace. Islands runs don't support OnGeneration, so their
// trace carries only the final result.
func solveTraced(t *testing.T, opt Options, seed uint64, wseed uint64, n, m int) solveTrace {
	t.Helper()
	w := testWorkload(t, wseed, n, m)
	var tr solveTrace
	if opt.Islands <= 1 {
		opt.OnGeneration = func(gen int, best *schedule.Schedule) {
			tr.trajM0 = append(tr.trajM0, best.Makespan())
			tr.trajSlack = append(tr.trajSlack, best.AvgSlack())
		}
	}
	res, err := Solve(w, opt, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	tr.order = res.Schedule.Order()
	tr.proc = res.Schedule.ProcAssignment()
	tr.m0 = res.Schedule.Makespan()
	tr.slack = res.Schedule.AvgSlack()
	tr.gens = res.Generations
	tr.stagnated = res.Stagnated
	return tr
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eqFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func assertTracesIdentical(t *testing.T, label string, a, b solveTrace) {
	t.Helper()
	if !eqInts(a.order, b.order) || !eqInts(a.proc, b.proc) {
		t.Fatalf("%s: best genotypes differ", label)
	}
	if a.m0 != b.m0 || a.slack != b.slack {
		t.Fatalf("%s: metrics differ: (%.17g,%.17g) vs (%.17g,%.17g)",
			label, a.m0, a.slack, b.m0, b.slack)
	}
	if a.gens != b.gens || a.stagnated != b.stagnated {
		t.Fatalf("%s: termination differs: (%d,%v) vs (%d,%v)",
			label, a.gens, a.stagnated, b.gens, b.stagnated)
	}
	if !eqFloats(a.trajM0, b.trajM0) || !eqFloats(a.trajSlack, b.trajSlack) {
		t.Fatalf("%s: per-generation trajectories differ", label)
	}
}

// TestSolveCacheIslandsBitIdentical is the cache's invariance property: for
// one and for four islands, the metrics cache (off / private /
// shared-prefilled) must leave the GA trajectory and final schedule
// bit-identical — the cache only skips redundant decodes, so every float
// the fitness combination sees is the same.
func TestSolveCacheIslandsBitIdentical(t *testing.T) {
	base := Options{
		Mode: EpsilonConstraint, Eps: 1.3,
		PopSize: 14, CrossoverRate: 0.9, MutationRate: 0.15,
		MaxGenerations: 60, Stagnation: 25, MigrationEvery: 10,
	}
	for _, islands := range []int{1, 4} {
		opt := base
		opt.Islands = islands
		opt.NoMetricsCache = true
		ref := solveTraced(t, opt, 99, 7, 40, 4)

		for _, cache := range []string{"off", "private", "shared"} {
			v := base
			v.Islands = islands
			switch cache {
			case "off":
				v.NoMetricsCache = true
			case "shared":
				// Pre-warm a shared cache with a full sibling solve: hits
				// from a foreign run must return the exact floats a decode
				// would.
				c := NewMetricsCache()
				warm := base
				warm.Islands = islands
				warm.Cache = c
				if _, err := Solve(testWorkload(t, 7, 40, 4), warm, rng.New(1234)); err != nil {
					t.Fatal(err)
				}
				v.Cache = c
			}
			got := solveTraced(t, v, 99, 7, 40, 4)
			assertTracesIdentical(t, fmt.Sprintf("islands=%d cache=%s", islands, cache), ref, got)
		}
	}
}

// TestSolveSharedCacheAcrossEpsIdentical models experiments.RunSweep: one
// cache and one HEFT baseline shared across an ε grid on the same workload
// must reproduce the isolated per-ε runs exactly.
func TestSolveSharedCacheAcrossEpsIdentical(t *testing.T) {
	w := testWorkload(t, 11, 35, 4)
	hs, err := HEFTBaseline(w)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewMetricsCache()
	epsGrid := []float64{1.0, 1.2, 1.5}
	for i, eps := range epsGrid {
		opt := Options{
			Mode: EpsilonConstraint, Eps: eps,
			PopSize: 12, CrossoverRate: 0.9, MutationRate: 0.15,
			MaxGenerations: 40, Stagnation: 0,
		}
		iso := opt
		iso.NoMetricsCache = true
		want, err := Solve(w, iso, rng.New(uint64(1000+i)))
		if err != nil {
			t.Fatal(err)
		}
		opt.HEFT = hs
		opt.Cache = cache
		got, err := Solve(w, opt, rng.New(uint64(1000+i)))
		if err != nil {
			t.Fatal(err)
		}
		if !eqInts(want.Schedule.Order(), got.Schedule.Order()) ||
			!eqInts(want.Schedule.ProcAssignment(), got.Schedule.ProcAssignment()) {
			t.Fatalf("eps=%g: shared-cache schedule differs from isolated run", eps)
		}
		if want.Schedule.Makespan() != got.Schedule.Makespan() ||
			want.Schedule.AvgSlack() != got.Schedule.AvgSlack() {
			t.Fatalf("eps=%g: shared-cache metrics differ", eps)
		}
		if want.Generations != got.Generations || want.Stagnated != got.Stagnated {
			t.Fatalf("eps=%g: termination differs", eps)
		}
	}
}

// TestMetricsCacheHitReturnsExactMetrics checks the basic contract on a
// genotype-equal, pointer-distinct chromosome: the hit returns exactly the
// inserted floats.
func TestMetricsCacheHitReturnsExactMetrics(t *testing.T) {
	w := testWorkload(t, 21, 20, 3)
	r := rng.New(5)
	c := Random(w, r)
	s, err := c.Decode(w)
	if err != nil {
		t.Fatal(err)
	}
	met := metricsFromSchedule(s)
	mc := NewMetricsCache()
	mc.insert(mc.key(c), c, met)

	dup := c.Clone() // genotype-equal, fresh pointer, no memoized state
	got, ok := mc.lookup(mc.key(dup), dup)
	if !ok {
		t.Fatal("genotype-equal chromosome missed the cache")
	}
	if got != met {
		t.Fatalf("hit returned %+v, inserted %+v", got, met)
	}
}

// TestMetricsCacheCollisionFallsBackToDecode injects a constant fingerprint
// so every genotype collides on one key: lookups for a different genotype
// must miss (the full-genotype guard rejects the colliding entry), and a
// Solve using the colliding cache must still be bit-identical to a cache-off
// run — a collision can only cost a redundant decode, never corrupt a result.
func TestMetricsCacheCollisionFallsBackToDecode(t *testing.T) {
	w := testWorkload(t, 31, 25, 3)
	r := rng.New(6)
	a := Random(w, r)
	b := Random(w, r)
	if eqInts(a.Order, b.Order) && eqInts(a.Proc, b.Proc) {
		t.Fatal("test needs two distinct genotypes")
	}
	sa, err := a.Decode(w)
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMetricsCache()
	mc.keyFn = func(*Chromosome) uint64 { return 42 }
	mc.insert(mc.key(a), a, metricsFromSchedule(sa))
	if _, ok := mc.lookup(mc.key(b), b); ok {
		t.Fatal("colliding key with different genotype reported a hit")
	}
	if _, ok := mc.lookup(mc.key(a), a); !ok {
		t.Fatal("genuine entry lost under colliding keys")
	}

	// End to end: an all-colliding cache degrades to decode-everything but
	// changes no result.
	opt := Options{
		Mode: EpsilonConstraint, Eps: 1.3,
		PopSize: 12, CrossoverRate: 0.9, MutationRate: 0.15,
		MaxGenerations: 40, Stagnation: 0,
	}
	ref := opt
	ref.NoMetricsCache = true
	want, err := Solve(w, ref, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	colliding := NewMetricsCache()
	colliding.keyFn = func(*Chromosome) uint64 { return 42 }
	opt.Cache = colliding
	got, err := Solve(w, opt, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	if !eqInts(want.Schedule.Order(), got.Schedule.Order()) ||
		!eqInts(want.Schedule.ProcAssignment(), got.Schedule.ProcAssignment()) ||
		want.Schedule.Makespan() != got.Schedule.Makespan() ||
		want.Generations != got.Generations {
		t.Fatal("all-colliding cache changed the Solve result")
	}
}

// TestMetricsCacheEvictionResetsShard fills a shard past its cap and checks
// the wholesale reset: the shard shrinks, stays consistent, and keeps
// serving correct entries afterwards.
func TestMetricsCacheEvictionResetsShard(t *testing.T) {
	mc := NewMetricsCache()
	// Pin every insert to shard 0 with distinct keys that are ≡ 0 mod the
	// shard count.
	mkChrom := func(i int) *Chromosome {
		return NewChromosome([]int{0, 1, 2}, []int{i, i + 1, i + 2})
	}
	for i := 0; i <= cacheShardCap; i++ {
		c := mkChrom(i)
		k := uint64(i) * cacheShardCount
		mc.insert(k, c, schedMetrics{m0: float64(i)})
	}
	sh := &mc.shards[0]
	if sh.n > cacheShardCap {
		t.Fatalf("shard grew past cap: n=%d", sh.n)
	}
	// The post-reset insert must still be retrievable.
	last := mkChrom(cacheShardCap)
	if met, ok := mc.lookup(uint64(cacheShardCap)*cacheShardCount, last); !ok || met.m0 != float64(cacheShardCap) {
		t.Fatalf("post-eviction entry lost: ok=%v met=%+v", ok, met)
	}
}

// cacheEntries returns every entry of mc by packed genotype.
func cacheEntries(mc *MetricsCache) map[string]cacheEntry {
	out := make(map[string]cacheEntry)
	for i := range mc.shards {
		for _, entries := range mc.shards[i].m {
			for _, e := range entries {
				out[fmt.Sprint(e.geno)] = e
			}
		}
	}
	return out
}

// TestSharedCacheCompletesM0OnlyEntries: an ε = 1.0 solve leaves the
// entries of its infeasible misses M0-only in a cache, and an ε = 2.0
// solve with the same seed shares it. Its hits on M0-only entries whose M0
// it reads as feasible complete those entries in place with the full
// triple, and its result is bit-identical to the same solve on a private
// cache and with no cache.
func TestSharedCacheCompletesM0OnlyEntries(t *testing.T) {
	w := testWorkload(t, 13, 30, 4)
	hs, err := HEFTBaseline(w)
	if err != nil {
		t.Fatal(err)
	}
	opt := func(eps float64) Options {
		return Options{
			Mode: EpsilonConstraint, Eps: eps, HEFT: hs,
			PopSize: 12, CrossoverRate: 0.9, MutationRate: 0.15,
			MaxGenerations: 40, Stagnation: 0,
		}
	}
	shared := NewMetricsCache()
	first := opt(1.0)
	first.Cache = shared
	if _, err := Solve(w, first, rng.New(5)); err != nil {
		t.Fatal(err)
	}
	before := cacheEntries(shared)
	m0Only := 0
	for _, e := range before {
		if math.IsNaN(e.met.avgSlack) {
			m0Only++
			if !math.IsNaN(e.met.minSlack) || e.met.m0 <= hs.Makespan() {
				t.Fatalf("M0-only entry %+v within the bound %v", e.met, hs.Makespan())
			}
		}
	}
	if m0Only == 0 {
		t.Fatal("the ε = 1.0 solve left no M0-only entry")
	}

	var results []*Result
	for _, variant := range []func(*Options){
		func(o *Options) { o.Cache = shared },
		func(o *Options) {},
		func(o *Options) { o.NoMetricsCache = true },
	} {
		o := opt(2.0)
		variant(&o)
		res, err := Solve(w, o, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for _, res := range results[1:] {
		got, want := results[0], res
		if !eqInts(got.Schedule.Order(), want.Schedule.Order()) ||
			!eqInts(got.Schedule.ProcAssignment(), want.Schedule.ProcAssignment()) ||
			got.Schedule.Makespan() != want.Schedule.Makespan() ||
			got.Schedule.AvgSlack() != want.Schedule.AvgSlack() ||
			got.Generations != want.Generations {
			t.Fatal("the shared-cache solve differs from a private-cache or cache-off solve")
		}
	}

	completed := 0
	for key, e := range cacheEntries(shared) {
		old, ok := before[key]
		if !ok || !math.IsNaN(old.met.avgSlack) || math.IsNaN(e.met.avgSlack) {
			continue
		}
		completed++
		n := len(e.geno) / 2
		order, proc := make([]int, n), make([]int, n)
		for i := range order {
			order[i], proc[i] = int(e.geno[i]), int(e.geno[n+i])
		}
		s, err := schedule.FromOrder(w, order, proc)
		if err != nil {
			t.Fatal(err)
		}
		if want := metricsFromSchedule(s); e.met != want || e.met.m0 > 2.0*hs.Makespan() {
			t.Fatalf("completed entry %+v, was %+v, the schedule's triple %+v", e.met, old.met, want)
		}
	}
	if completed == 0 {
		t.Fatal("the ε = 2.0 solve completed no M0-only entry")
	}
}

// TestDuplicateMissesShareOneTriple: two chromosomes of one population
// with the same new genotype both miss, get one triple — the full one's
// bits — and leave one cache entry; the second insert copies no genotype.
func TestDuplicateMissesShareOneTriple(t *testing.T) {
	w := testWorkload(t, 17, 25, 3)
	c := Random(w, rng.New(3))
	s, err := c.Decode(w)
	if err != nil {
		t.Fatal(err)
	}
	eval := newEvaluator(w, Options{}, 0, nil, math.Inf(1))
	pop := []*Chromosome{c.Clone(), c.Clone()}
	eval.ensureMetrics(pop)
	if st := eval.cache.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("cache traffic %+v, want two misses", st)
	}
	if len(cacheEntries(eval.cache)) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(cacheEntries(eval.cache)))
	}
	want := metricsFromSchedule(s)
	for i, d := range pop {
		if !d.hasMetr || d.metr != want {
			t.Fatalf("chromosome %d carries %+v, want %+v", i, d.metr, want)
		}
	}
	if raceEnabled {
		return
	}
	k := eval.cache.key(c)
	if allocs := testing.AllocsPerRun(10, func() { eval.cache.insert(k, c, want) }); allocs != 0 {
		t.Fatalf("inserting a cached genotype again costs %.0f allocations, want 0", allocs)
	}
}
