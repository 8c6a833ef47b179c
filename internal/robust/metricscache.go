package robust

import (
	"math"
	"sync"
	"sync/atomic"

	"robsched/internal/schedule"
)

// schedMetrics is the genotype-deterministic triple every GA fitness in this
// package is combined from. Caching it per genotype is sound because a
// chromosome's schedule — and hence its expected makespan and slack — is a
// pure function of (Order, Proc) for a fixed workload.
type schedMetrics struct {
	m0       float64
	avgSlack float64
	minSlack float64
}

func metricsFromSchedule(s *schedule.Schedule) schedMetrics {
	return schedMetrics{m0: s.Makespan(), avgSlack: s.AvgSlack(), minSlack: s.MinSlack()}
}

// covers reports whether m holds what an objective that reads the slacks
// only when M0 <= upTo needs: the slacks, or an M0 above upTo. A triple
// computed with a bound (Chromosome.metrics) holds NaN slacks when M0 was
// above that bound. A computed slack is NaN only when expected durations
// overflow to +Inf; such a triple is then recomputed whenever its slacks
// are read, to the same bits.
func (m schedMetrics) covers(upTo float64) bool { return !math.IsNaN(m.avgSlack) || m.m0 > upTo }

// slack returns the robustness surrogate the slack metric selects.
func (m schedMetrics) slack(metric SlackMetric) float64 {
	if metric == MinSlack {
		return m.minSlack
	}
	return m.avgSlack
}

const (
	// cacheShardCount stripes the cache so concurrent islands rarely
	// contend on the same mutex.
	cacheShardCount = 16
	// cacheShardCap bounds the entries per shard; a full shard is reset
	// wholesale. At the paper's n=100 this caps the cache near 26 MB —
	// an eviction can only cost a redundant metrics computation, never
	// correctness.
	cacheShardCap = 1024
)

// MetricsCache memoizes schedule metrics by genotype fingerprint
// (Chromosome.Key: a position-weighted polynomial over the genes, finished
// with the murmur3 avalanche), so the GA only pays the O(V+E) metrics-only
// decode (schedule.Decoder.Metrics) for genuinely novel genotypes:
// crossovers of converged parents and no-op mutations produce children
// with already-seen genotypes. Every hit is confirmed by full genotype
// equality, so a fingerprint collision degrades to a recomputation instead
// of corrupting a run.
//
// A MetricsCache is safe for concurrent use and MAY be shared across Solve
// calls — the metrics are independent of Mode, ε and the slack metric — but
// only on the same workload: entries from a different workload would alias
// genotypes with different schedules. experiments.RunSweep shares one cache
// across its whole ε grid per graph.
type MetricsCache struct {
	// keyFn overrides the genotype fingerprint, letting tests inject
	// colliding keys; nil means (*Chromosome).Key.
	keyFn  func(*Chromosome) uint64
	shards [cacheShardCount]cacheShard

	// Traffic counters (atomic; see Stats). For a single population the
	// counts are deterministic: every lookup happens either in the cache
	// pass of ensureMetrics or on the EvaluateOne path, both on the one
	// goroutine that runs the population. Islands share the cache
	// concurrently, so when two of them meet the same new genotype in one
	// epoch, which one misses depends on timing; their split of hits and
	// misses can vary by a few between runs, never the trajectory.
	hits       atomic.Int64
	misses     atomic.Int64
	collisions atomic.Int64
	evictions  atomic.Int64
}

// CacheStats is a monotonic snapshot of a MetricsCache's traffic counters.
type CacheStats struct {
	// Hits and Misses partition every lookup.
	Hits   int64
	Misses int64
	// Collisions counts the misses that found entries under the same
	// fingerprint but failed the full genotype comparison — the collision
	// fallback degrading to a recomputation instead of a wrong metric.
	Collisions int64
	// Evictions counts wholesale shard resets (capacity pressure).
	Evictions int64
}

// Stats returns the cache's traffic counters; nil-safe (a nil cache reads
// all-zero). Callers observing a single run on a shared cache subtract a
// before-snapshot with Sub.
func (mc *MetricsCache) Stats() CacheStats {
	if mc == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:       mc.hits.Load(),
		Misses:     mc.misses.Load(),
		Collisions: mc.collisions.Load(),
		Evictions:  mc.evictions.Load(),
	}
}

// Sub returns the per-field difference s - prev, turning two monotonic
// snapshots into the traffic of the interval between them.
func (s CacheStats) Sub(prev CacheStats) CacheStats {
	return CacheStats{
		Hits:       s.Hits - prev.Hits,
		Misses:     s.Misses - prev.Misses,
		Collisions: s.Collisions - prev.Collisions,
		Evictions:  s.Evictions - prev.Evictions,
	}
}

type cacheShard struct {
	mu sync.Mutex
	m  map[uint64][]cacheEntry
	n  int
}

// cacheEntry keeps the full genotype (order then proc, packed as int32)
// alongside the metrics so hits can be verified exactly.
type cacheEntry struct {
	geno []int32
	met  schedMetrics
}

// NewMetricsCache returns an empty cache ready for concurrent use.
func NewMetricsCache() *MetricsCache { return &MetricsCache{} }

func (mc *MetricsCache) key(c *Chromosome) uint64 {
	if mc.keyFn != nil {
		return mc.keyFn(c)
	}
	return c.Key()
}

// lookup returns the metrics recorded for c's genotype, if any. k must be
// mc.key(c); callers pass it in so the hot path hashes the genotype once.
func (mc *MetricsCache) lookup(k uint64, c *Chromosome) (schedMetrics, bool) {
	sh := &mc.shards[k%cacheShardCount]
	sh.mu.Lock()
	entries := sh.m[k]
	for _, e := range entries {
		if genoEqual(e.geno, c.Order, c.Proc) {
			sh.mu.Unlock()
			mc.hits.Add(1)
			return e.met, true
		}
	}
	sh.mu.Unlock()
	mc.misses.Add(1)
	if len(entries) > 0 {
		mc.collisions.Add(1)
	}
	return schedMetrics{}, false
}

// insert records the metrics of c's genotype under key k (= mc.key(c)),
// copying the genotype so later mutations of the caller's slices cannot
// corrupt the entry. Duplicate inserts of the same genotype (two
// chromosomes of one generation, or of two islands, that share a new
// genotype) collapse to one entry, and copy nothing.
func (mc *MetricsCache) insert(k uint64, c *Chromosome, met schedMetrics) {
	sh := &mc.shards[k%cacheShardCount]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.n >= cacheShardCap {
		sh.m = nil
		sh.n = 0
		mc.evictions.Add(1)
	}
	if sh.m == nil {
		sh.m = make(map[uint64][]cacheEntry, 64)
	}
	for _, e := range sh.m[k] {
		if genoEqual(e.geno, c.Order, c.Proc) {
			return
		}
	}
	geno := packGenes(make([]int32, 0, len(c.Order)+len(c.Proc)), c)
	sh.m[k] = append(sh.m[k], cacheEntry{geno: geno, met: met})
	sh.n++
}

// complete overwrites the M0-only metrics recorded for c's genotype under
// key k with met, its full triple. An entry evicted since its lookup is
// left evicted. Neither counts as cache traffic.
func (mc *MetricsCache) complete(k uint64, c *Chromosome, met schedMetrics) {
	sh := &mc.shards[k%cacheShardCount]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	entries := sh.m[k]
	for i := range entries {
		if genoEqual(entries[i].geno, c.Order, c.Proc) {
			entries[i].met = met
			return
		}
	}
}

// packGenes appends c's genotype, order then proc, to dst as int32.
func packGenes(dst []int32, c *Chromosome) []int32 {
	for _, v := range c.Order {
		dst = append(dst, int32(v))
	}
	for _, v := range c.Proc {
		dst = append(dst, int32(v))
	}
	return dst
}

// genoEqual reports whether the packed genotype equals (order, proc).
func genoEqual(geno []int32, order, proc []int) bool {
	if len(geno) != len(order)+len(proc) {
		return false
	}
	for i, v := range order {
		if geno[i] != int32(v) {
			return false
		}
	}
	off := len(order)
	for i, v := range proc {
		if geno[off+i] != int32(v) {
			return false
		}
	}
	return true
}
