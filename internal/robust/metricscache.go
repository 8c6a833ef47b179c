package robust

import (
	"encoding/binary"
	"slices"
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

// slack returns the robustness surrogate the slack metric selects.
func (m schedMetrics) slack(metric SlackMetric) float64 {
	if metric == MinSlack {
		return m.minSlack
	}
	return m.avgSlack
}

const (
	// cacheCap bounds the entries of a cache; a full cache is reset
	// wholesale. At the paper's n=100, m=8 a full cache holds 16,384
	// entries in about 5 MB (306 bytes each, map included) — an eviction
	// can only cost redundant metrics computations, never correctness.
	cacheCap = 16384
	// cacheSize is the size hint of the map of a cache NewMetricsCache
	// built. A run's private cache takes a smaller one when the run is
	// short (newEvaluator).
	cacheSize = 1024
)

// MetricsCache memoizes schedule metrics by packed genotype (see pack), so
// the GA only pays the O(V+E) metrics-only decode
// (schedule.Decoder.MetricsUpTo) for genuinely novel genotypes: no-op
// mutations, and crossover children equal to an individual other than
// their parents, are new chromosomes with already-seen genotypes. (A child
// with a parent's genes is that parent, memo included, and never reaches
// the cache.) The packed genotype is the map key itself, so a hit is exact
// by construction.
//
// A MetricsCache is the cache of exactly one run: the engine of the run it
// serves claims it, and NewEngine refuses a cache another engine claimed.
// Every entry is then computed at the bound of the one run that reads it
// (see evaluator.upTo), so an M0-only entry is never read for its slacks.
// The cache is one map under one mutex, safe for concurrent use: the
// islands of one run share it.
type MetricsCache struct {
	mu sync.Mutex
	m  map[string]schedMetrics
	// size is the size hint the map is made with.
	size int
	// claimed is set by the engine the cache serves.
	claimed atomic.Bool

	// Traffic counters, guarded by mu (see Stats). For a single population
	// the counts are deterministic: every lookup happens either in the
	// cache pass of ensureMetrics or on the EvaluateOne path, both on the
	// one goroutine that runs the population. Islands share the cache
	// concurrently, so when two of them meet the same new genotype in one
	// epoch, which one misses depends on timing; their split of hits and
	// misses can vary by a few between runs, never the trajectory.
	hits, misses, evictions int64
}

// CacheStats is a monotonic snapshot of a MetricsCache's traffic counters.
type CacheStats struct {
	// Hits and Misses partition every lookup.
	Hits   int64
	Misses int64
	// Evictions counts wholesale resets of a full cache (cacheCap
	// entries).
	Evictions int64
}

// Stats returns the cache's traffic counters, those of the one run it
// served; nil-safe (a nil cache reads all-zero).
func (mc *MetricsCache) Stats() CacheStats {
	if mc == nil {
		return CacheStats{}
	}
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return CacheStats{Hits: mc.hits, Misses: mc.misses, Evictions: mc.evictions}
}

// NewMetricsCache returns an empty cache ready for concurrent use, for one
// run whose Options.Cache it is.
func NewMetricsCache() *MetricsCache { return &MetricsCache{size: cacheSize} }

// pack appends c's packed genotype, the cache's key, to dst: one uvarint
// per gene, order genes then processor genes. uvarint is a prefix code, so
// two packed genotypes of one workload are equal exactly when their genes
// are, for every int. A gene below 128 is its own one-byte uvarint (200
// bytes at n = 100, m = 8), so pack first copies each gene's low byte and
// ORs the genes together; only when the OR reaches 128 (n or m above 128,
// or a malformed gene) does a second pass write the uvarints. The byte
// pass runs in about two thirds of the uvarint pass's time.
func pack(dst []byte, c *Chromosome) []byte {
	start, n := len(dst), len(c.Order)
	dst = slices.Grow(dst, n+len(c.Proc))[:start+n+len(c.Proc)]
	b, or := dst[start:], 0
	for i, v := range c.Order {
		b[i] = byte(v)
		or |= v
	}
	for i, v := range c.Proc {
		b[n+i] = byte(v)
		or |= v
	}
	if uint(or) < 0x80 {
		return dst
	}
	dst = dst[:start]
	for _, v := range c.Order {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	for _, v := range c.Proc {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// lookup returns the metrics recorded for the packed genotype g.
func (mc *MetricsCache) lookup(g []byte) (schedMetrics, bool) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	met, ok := mc.m[string(g)]
	if ok {
		mc.hits++
	} else {
		mc.misses++
	}
	return met, ok
}

// insert records met for the packed genotype g, copying g so later reuse
// of the caller's buffer cannot corrupt the entry, unless g is already
// cached: duplicate inserts of the same genotype (two chromosomes of one
// generation, or of two islands, that share a new genotype) collapse to
// one entry and copy nothing. A full cache is reset first.
func (mc *MetricsCache) insert(g []byte, met schedMetrics) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if len(mc.m) >= cacheCap {
		mc.m = nil
		mc.evictions++
	}
	if mc.m == nil {
		mc.m = make(map[string]schedMetrics, mc.size)
	}
	if _, ok := mc.m[string(g)]; !ok {
		mc.m[string(g)] = met
	}
}
