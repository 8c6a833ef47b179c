package robust

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"robsched/internal/platform"
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
		opt.OnGeneration = func(gen int, best *Chromosome) {
			s := decodeBest(t, w, best)
			tr.trajM0 = append(tr.trajM0, s.Makespan())
			tr.trajSlack = append(tr.trajSlack, s.AvgSlack())
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

// decodeBest decodes the chromosome an OnGeneration callback observes.
func decodeBest(t testing.TB, w *platform.Workload, best *Chromosome) *schedule.Schedule {
	t.Helper()
	s, err := best.Decode(w)
	if err != nil {
		t.Fatal(err)
	}
	return s
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
	g, k := mc.pack(nil, c)
	mc.insert(k, g, met)

	dup := c.Clone() // genotype-equal, fresh pointer, no memoized state
	g, k = mc.pack(nil, dup)
	got, ok := mc.lookup(k, g)
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
	ga, ka := mc.pack(nil, a)
	gb, kb := mc.pack(nil, b)
	if ka != 42 || kb != 42 {
		t.Fatalf("keys %d and %d, want the injected 42", ka, kb)
	}
	mc.insert(ka, ga, metricsFromSchedule(sa))
	if _, ok := mc.lookup(kb, gb); ok {
		t.Fatal("colliding key with different genotype reported a hit")
	}
	if _, ok := mc.lookup(ka, ga); !ok {
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
		g, _ := mc.pack(nil, mkChrom(i))
		k := uint64(i) * cacheShardCount
		mc.insert(k, g, schedMetrics{m0: float64(i)})
	}
	sh := &mc.shards[0]
	if len(sh.m) > cacheShardCap {
		t.Fatalf("shard grew past cap: %d entries", len(sh.m))
	}
	// The post-reset insert must still be retrievable.
	last, _ := mc.pack(nil, mkChrom(cacheShardCap))
	if met, ok := mc.lookup(uint64(cacheShardCap)*cacheShardCount, last); !ok || met.m0 != float64(cacheShardCap) {
		t.Fatalf("post-eviction entry lost: ok=%v met=%+v", ok, met)
	}
}

// cacheEntries returns every entry of mc by packed genotype.
func cacheEntries(mc *MetricsCache) map[string]cacheEntry {
	out := make(map[string]cacheEntry)
	for i := range mc.shards {
		for _, e := range mc.shards[i].m {
			out[e.geno] = e
		}
	}
	return out
}

// unpackGenes decodes a packed genotype: one uvarint per gene.
func unpackGenes(t *testing.T, geno string) []int {
	t.Helper()
	var genes []int
	for b := []byte(geno); len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			t.Fatalf("malformed packed genotype %q", geno)
		}
		genes = append(genes, int(v))
		b = b[n:]
	}
	return genes
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
		genes := unpackGenes(t, e.geno)
		n := len(genes) / 2
		s, err := schedule.FromOrder(w, genes[:n], genes[n:])
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
	g, k := eval.cache.pack(nil, c)
	if allocs := testing.AllocsPerRun(10, func() { eval.cache.insert(k, g, want) }); allocs != 0 {
		t.Fatalf("inserting a cached genotype again costs %.0f allocations, want 0", allocs)
	}
}

// TestPackedGenotypeExact: two packed genotypes are equal exactly when the
// genotypes are. It covers random genotypes, pairs one gene apart, genes
// that share their low seven bits (1 and 129), and a gene of 2^31 or more
// against its int32 and uint32 truncations (the key reads genes as uint32,
// so the last pair also shares a key).
func TestPackedGenotypeExact(t *testing.T) {
	mc := NewMetricsCache()
	check := func(a, b *Chromosome) {
		t.Helper()
		ga, _ := mc.pack(nil, a)
		gb, _ := mc.pack(nil, b)
		same := eqInts(a.Order, b.Order) && eqInts(a.Proc, b.Proc)
		if (string(ga) == string(gb)) != same {
			t.Fatalf("%v|%v against %v|%v: packed equal %v, genes equal %v", a.Order, a.Proc, b.Order, b.Proc, !same, same)
		}
	}
	// Variables, not constants, so the conversions compile where int has
	// 32 bits; there the wide genes truncate and the pairs are equal.
	var wide, wider uint64 = 1<<31 + 3, 1<<32 + 5
	tricky := [][2]int{{1, 129}, {0, 128}, {127, 255}, {int(wide), int(int32(wide))}, {int(wider), 5}, {-1, math.MaxInt}}
	for _, p := range tricky {
		for pos := 0; pos < 6; pos++ {
			a := keyCase(3, func(i int) int { return i }, func(i int) int { return i % 2 })
			b := a.Clone()
			if pos < 3 {
				a.Order[pos], b.Order[pos] = p[0], p[1]
			} else {
				a.Proc[pos-3], b.Proc[pos-3] = p[0], p[1]
			}
			check(a, b)
			check(a, a.Clone())
		}
	}
	r := rng.New(41)
	genes := []int{0, 1, 2, 127, 128, 129, 255, 16383, 16384, math.MaxInt32, int(wide), int(wider), -1}
	gene := func() int { return genes[r.Intn(len(genes))] }
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(5)
		a := keyCase(n, func(int) int { return gene() }, func(int) int { return gene() })
		b := keyCase(n, func(int) int { return gene() }, func(int) int { return gene() })
		check(a, b)
		one := a.Clone()
		if i := r.Intn(2 * n); i < n {
			one.Order[i] = gene()
		} else {
			one.Proc[i-n] = gene()
		}
		check(a, one)
	}
}

// TestMetricsCacheBytesPerEntry bounds what an entry costs: 1,000 distinct
// n=100, m=8 genotypes inserted into a new cache allocate at most 400
// bytes each, the packed genotype and the shards' maps included.
func TestMetricsCacheBytesPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	w := testWorkload(t, 43, 100, 8)
	r := rng.New(44)
	const entries = 1000
	genos := make([][]byte, entries)
	keys := make([]uint64, entries)
	distinct := make(map[string]bool, entries)
	probe := NewMetricsCache()
	for i := range genos {
		genos[i], keys[i] = probe.pack(nil, Random(w, r))
		distinct[string(genos[i])] = true
	}
	if len(distinct) != entries {
		t.Fatalf("%d distinct genotypes, want %d", len(distinct), entries)
	}
	best := math.Inf(1)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mc := NewMetricsCache()
		for i, g := range genos {
			mc.insert(keys[i], g, schedMetrics{m0: float64(i)})
		}
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.TotalAlloc-before.TotalAlloc)/entries)
	}
	if best > 400 {
		t.Fatalf("%.0f bytes allocated per entry, want at most 400", best)
	}
	t.Logf("%.0f bytes per entry", best)
}

// BenchmarkMetricsCache times the cache on n=100, m=8 genotypes: hit packs
// a genotype and finds it, and miss packs one, looks it up and inserts it.
func BenchmarkMetricsCache(b *testing.B) {
	w := testWorkload(b, 5, 100, 8)
	r := rng.New(1)
	pool := make([]*Chromosome, 1024)
	for i := range pool {
		pool[i] = Random(w, r)
	}
	var buf []byte
	b.Run("hit", func(b *testing.B) {
		mc := NewMetricsCache()
		for _, c := range pool {
			g, k := mc.pack(nil, c)
			mc.insert(k, g, schedMetrics{})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var k uint64
			buf, k = mc.pack(buf[:0], pool[i%len(pool)])
			if _, ok := mc.lookup(k, buf); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		var mc *MetricsCache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(pool) == 0 {
				mc = NewMetricsCache()
			}
			var k uint64
			buf, k = mc.pack(buf[:0], pool[i%len(pool)])
			if _, ok := mc.lookup(k, buf); ok {
				b.Fatal("hit")
			}
			mc.insert(k, buf, schedMetrics{})
		}
	})
}
