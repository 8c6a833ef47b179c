package robust

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"robsched/internal/ga"
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
// one and for four islands, the metrics cache (off / private) must leave
// the GA trajectory and final schedule bit-identical — the cache only
// skips redundant decodes, so every float the fitness combination sees is
// the same.
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

		for _, noCache := range []bool{true, false} {
			v := base
			v.Islands = islands
			v.NoMetricsCache = noCache
			got := solveTraced(t, v, 99, 7, 40, 4)
			assertTracesIdentical(t, fmt.Sprintf("islands=%d nocache=%v", islands, noCache), ref, got)
		}
	}
}

// TestUsedCacheRefused: a cache that served one Solve is refused by a
// second Solve, by SolveWeightedSum and by NewEngine, with an error and
// before any generation evolves or the cache is read. Its M0-only entries
// lack the slacks a run with a higher bound would read.
func TestUsedCacheRefused(t *testing.T) {
	w := testWorkload(t, 11, 35, 4)
	cache := NewMetricsCache()
	first := quickOptions(EpsilonConstraint, 1.0)
	first.Cache = cache
	if _, err := Solve(w, first, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	served := cache.Stats()
	if served.Misses == 0 {
		t.Fatal("the first solve left the cache untouched")
	}
	evolved := 0
	again := quickOptions(EpsilonConstraint, 2.0)
	again.Cache = cache
	again.Observer = ga.ObserverFunc(func(ga.GenStats) { evolved++ })
	again.OnGeneration = func(int, *Chromosome) { evolved++ }
	runs := map[string]func() error{
		"Solve": func() error { _, err := Solve(w, again, rng.New(2)); return err },
		"SolveWeightedSum": func() error {
			_, err := SolveWeightedSum(w, 0.5, again, rng.New(2))
			return err
		},
		"NewEngine": func() error { _, err := NewEngine(w, again); return err },
	}
	for name, run := range runs {
		if err := run(); !errors.Is(err, errCacheClaimed) {
			t.Fatalf("%s on a used cache: err = %v, want %v", name, err, errCacheClaimed)
		}
	}
	if evolved != 0 || cache.Stats() != served {
		t.Fatalf("refused runs evolved %d generations and moved the cache from %+v to %+v", evolved, served, cache.Stats())
	}
	// NoMetricsCache ignores the cache, so it claims nothing.
	off := again
	off.NoMetricsCache, off.Observer, off.OnGeneration = true, nil, nil
	if _, err := Solve(w, off, rng.New(2)); err != nil {
		t.Fatalf("a cache-off run with a used cache: %v", err)
	}
	// Engines built concurrently on one new cache: exactly one claims it.
	hs, err := HEFTBaseline(w)
	if err != nil {
		t.Fatal(err)
	}
	fresh := quickOptions(EpsilonConstraint, 1.0)
	fresh.HEFT, fresh.Cache = hs, NewMetricsCache()
	var built atomic.Int64
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := NewEngine(w, fresh); err == nil {
				built.Add(1)
			} else if !errors.Is(err, errCacheClaimed) {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := built.Load(); n != 1 {
		t.Fatalf("%d of 8 concurrent engines claimed one cache, want 1", n)
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
	mc.insert(pack(nil, c), met)

	dup := c.Clone() // genotype-equal, fresh pointer, no memoized state
	got, ok := mc.lookup(pack(nil, dup))
	if !ok {
		t.Fatal("genotype-equal chromosome missed the cache")
	}
	if got != met {
		t.Fatalf("hit returned %+v, inserted %+v", got, met)
	}
}

// TestMetricsCacheHitAllocatesNothing: a hit packs the genotype into a
// reused buffer and looks it up without allocating.
func TestMetricsCacheHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	w := testWorkload(t, 23, 100, 8)
	c := Random(w, rng.New(7))
	mc := NewMetricsCache()
	mc.insert(pack(nil, c), schedMetrics{m0: 1})
	buf := pack(nil, c)
	allocs := testing.AllocsPerRun(100, func() {
		buf = pack(buf[:0], c)
		if _, ok := mc.lookup(buf); !ok {
			t.Fatal("cached genotype missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("a hit allocates %.0f times, want 0", allocs)
	}
}

// TestMetricsCacheEvictionResetsMap fills the cache past its cap: the
// insert after the cacheCap-th resets the map wholesale, once, and the
// entry it inserts is still served.
func TestMetricsCacheEvictionResetsMap(t *testing.T) {
	mc := NewMetricsCache()
	mkChrom := func(i int) *Chromosome {
		return NewChromosome([]int{0, 1, 2}, []int{i, i + 1, i + 2})
	}
	for i := 0; i <= cacheCap; i++ {
		mc.insert(pack(nil, mkChrom(i)), schedMetrics{m0: float64(i)})
	}
	if st := mc.Stats(); st.Evictions != 1 {
		t.Fatalf("%d distinct inserts evicted %d times, want 1", cacheCap+1, st.Evictions)
	}
	if len(mc.m) != 1 {
		t.Fatalf("the reset cache holds %d entries, want 1", len(mc.m))
	}
	met, ok := mc.lookup(pack(nil, mkChrom(cacheCap)))
	if !ok || met.m0 != cacheCap {
		t.Fatalf("post-eviction entry lost: ok=%v met=%+v", ok, met)
	}
	if _, ok := mc.lookup(pack(nil, mkChrom(0))); ok {
		t.Fatal("an entry from before the reset was served")
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
	if len(eval.cache.m) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(eval.cache.m))
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
	g := pack(nil, c)
	if allocs := testing.AllocsPerRun(10, func() { eval.cache.insert(g, want) }); allocs != 0 {
		t.Fatalf("inserting a cached genotype again costs %.0f allocations, want 0", allocs)
	}
}

// TestPackedGenotypeExact: two packed genotypes are equal exactly when the
// genotypes are, so the packed genotype can be the metrics cache's key. It
// covers random genotypes, pairs one gene apart, genes that share their
// low seven bits (1 and 129), and a gene of 2^31 or more against its int32
// and uint32 truncations (Chromosome.Key reads genes as uint32, so the
// last pair shares a Key).
func TestPackedGenotypeExact(t *testing.T) {
	check := func(a, b *Chromosome) {
		t.Helper()
		ga, gb := pack(nil, a), pack(nil, b)
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
// n=100, m=8 genotypes inserted into a new cache allocate at most 330
// bytes each, the packed genotype and the map included.
func TestMetricsCacheBytesPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	w := testWorkload(t, 43, 100, 8)
	r := rng.New(44)
	const entries = 1000
	genos := make([][]byte, entries)
	distinct := make(map[string]bool, entries)
	for i := range genos {
		genos[i] = pack(nil, Random(w, r))
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
			mc.insert(g, schedMetrics{m0: float64(i)})
		}
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.TotalAlloc-before.TotalAlloc)/entries)
	}
	if best > 330 {
		t.Fatalf("%.0f bytes allocated per entry, want at most 330", best)
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
			mc.insert(pack(nil, c), schedMetrics{})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = pack(buf[:0], pool[i%len(pool)])
			if _, ok := mc.lookup(buf); !ok {
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
			buf = pack(buf[:0], pool[i%len(pool)])
			if _, ok := mc.lookup(buf); ok {
				b.Fatal("hit")
			}
			mc.insert(buf, schedMetrics{})
		}
	})
}
