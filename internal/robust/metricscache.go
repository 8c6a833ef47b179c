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
	// cacheShardCount stripes the cache so concurrent islands rarely
	// contend on the same mutex.
	cacheShardCount = 16
	// cacheShardCap bounds the entries per shard; a full shard is reset
	// wholesale. At the paper's n=100, m=8 a full cache holds 16,384
	// entries in about 5.1 MB (314 bytes each, maps included) — an
	// eviction can only cost a redundant metrics computation, never
	// correctness.
	cacheShardCap = 1024
	// cacheShardSize is the size hint of a shard's map in a cache
	// NewMetricsCache built. A run's private cache takes a smaller one when
	// the run is short (Options.privateShardSize).
	cacheShardSize = 64
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
// A MetricsCache is the cache of exactly one run: the engine of the run it
// serves claims it, and NewEngine refuses a cache another engine claimed.
// Every entry is then computed at the bound of the one run that reads it
// (see evaluator.upTo), so an M0-only entry is never read for its slacks.
// The cache is safe for concurrent use: the islands of one run share it.
type MetricsCache struct {
	// keyFn overrides the genotype fingerprint, letting tests inject
	// colliding keys; nil means (*Chromosome).Key.
	keyFn  func(*Chromosome) uint64
	shards [cacheShardCount]cacheShard
	// shardSize is the size hint each shard's map is made with.
	shardSize int
	// claimed is set by the engine the cache serves.
	claimed atomic.Bool

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
	// Collisions counts the misses that found an entry under the same
	// fingerprint holding another genotype — the collision fallback
	// degrading to a recomputation instead of a wrong metric.
	Collisions int64
	// Evictions counts wholesale shard resets (capacity pressure).
	Evictions int64
}

// Stats returns the cache's traffic counters, those of the one run it
// served; nil-safe (a nil cache reads all-zero).
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

// cacheShard holds at most one entry per fingerprint: the first genotype
// inserted under a key keeps it, and a colliding genotype is scored on
// every miss but never cached.
type cacheShard struct {
	mu sync.Mutex
	m  map[uint64]cacheEntry
}

// cacheEntry keeps the packed genotype (see pack) alongside the metrics so
// hits can be verified exactly.
type cacheEntry struct {
	geno string
	met  schedMetrics
}

// NewMetricsCache returns an empty cache ready for concurrent use, for one
// run whose Options.Cache it is.
func NewMetricsCache() *MetricsCache { return &MetricsCache{shardSize: cacheShardSize} }

// pack appends c's packed genotype to dst and returns it with c's key
// (mc.keyFn's, when set). The packed form is one uvarint per gene, order
// genes then processor genes. uvarint is a prefix code, so two packed
// genotypes of one workload are equal exactly when their genes are, for
// every int. A gene below 128 takes one byte, its own value, so while
// every gene is below 128 (n and m at most 128) the key loop writes the
// packed form as it goes; otherwise a second pass writes the uvarints.
func (mc *MetricsCache) pack(dst []byte, c *Chromosome) ([]byte, uint64) {
	start, genes := len(dst), len(c.Order)+len(c.Proc)
	dst = slices.Grow(dst, genes)[:start+genes]
	k, or := keyGenes(c, dst[start:])
	if or >= 0x80 {
		dst = dst[:start]
		for _, v := range c.Order {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
		for _, v := range c.Proc {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
	}
	if mc.keyFn != nil {
		k = mc.keyFn(c)
	}
	return dst, k
}

// lookup returns the metrics recorded for the packed genotype g under key
// k; mc.pack returns both, so the hot path walks the genes once.
func (mc *MetricsCache) lookup(k uint64, g []byte) (schedMetrics, bool) {
	sh := &mc.shards[k%cacheShardCount]
	sh.mu.Lock()
	e, ok := sh.m[k]
	sh.mu.Unlock()
	if ok && e.geno == string(g) {
		mc.hits.Add(1)
		return e.met, true
	}
	mc.misses.Add(1)
	if ok {
		mc.collisions.Add(1)
	}
	return schedMetrics{}, false
}

// insert records met for the packed genotype g under key k, copying g so
// later reuse of the caller's buffer cannot corrupt the entry, unless the
// key already holds an entry: duplicate inserts of the same genotype (two
// chromosomes of one generation, or of two islands, that share a new
// genotype) collapse to one entry and copy nothing, and a colliding
// genotype is not cached.
func (mc *MetricsCache) insert(k uint64, g []byte, met schedMetrics) {
	sh := &mc.shards[k%cacheShardCount]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.m) >= cacheShardCap {
		sh.m = nil
		mc.evictions.Add(1)
	}
	if sh.m == nil {
		sh.m = make(map[uint64]cacheEntry, mc.shardSize)
	}
	if _, ok := sh.m[k]; !ok {
		sh.m[k] = cacheEntry{geno: string(g), met: met}
	}
}

// keyBase is the odd weight base of the genotype hash; keyGene biases
// every gene by one so task/processor 0 still contributes to its
// position's term.
const keyBase = 0x9e3779b97f4a7c15

func keyGene(v int) uint64 { return uint64(uint32(v)) + 1 }

// keyPow serves the grow-only table of keyBase powers; readers are
// lock-free (atomic load), growth copies under a mutex.
var keyPow struct {
	mu  sync.Mutex
	tab atomic.Value // []uint64; tab[i] = keyBase^i
}

func keyPowers(k int) []uint64 {
	if t, _ := keyPow.tab.Load().([]uint64); len(t) >= k {
		return t
	}
	keyPow.mu.Lock()
	defer keyPow.mu.Unlock()
	t, _ := keyPow.tab.Load().([]uint64)
	if len(t) >= k {
		return t
	}
	nt := make([]uint64, k+k/2+8)
	nt[0] = 1
	for i := 1; i < len(nt); i++ {
		nt[i] = nt[i-1] * keyBase
	}
	keyPow.tab.Store(nt)
	return nt
}

// mixKey is the 64-bit murmur3 finalizer: the raw hash is additive and
// position-weighted, so low-entropy genotypes need the avalanche to spread
// across the metrics-cache shards.
func mixKey(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Key fingerprints the genotype for the GA's initial-population uniqueness
// check and the solver's metrics cache: the avalanched form of the
// position-weighted polynomial Σ keyGene(g_i)·keyBase^i over the order
// genes (positions 0..n-1) then the proc genes (positions n..2n-1). It is
// a pure function of the genes, computed afresh on every call and never
// written to the chromosome, so islands may key a shared migrant
// concurrently. Equal genotypes always collide by construction; a
// collision between distinct genotypes is benign everywhere it is
// consumed — the GA redraws one "duplicate" random individual, and the
// metrics cache verifies full genotype equality before trusting a hit.
func (c *Chromosome) Key() uint64 {
	k, _ := keyGenes(c, nil)
	return k
}

// keyGenes is the key loop of Key and pack: it returns c's key. Given a
// non-nil b of one byte per gene, it also writes each gene's low byte to
// b, order genes then processor genes, and returns the bitwise OR of the
// genes, so pack can tell whether b is the packed genotype.
func keyGenes(c *Chromosome, b []byte) (key uint64, or uint) {
	n := len(c.Order)
	pow := keyPowers(n + len(c.Proc))
	pack := b != nil
	raw := uint64(0)
	for i, v := range c.Order {
		raw += keyGene(v) * pow[i]
		if pack {
			or |= uint(v)
			b[i] = byte(v)
		}
	}
	for i, v := range c.Proc {
		raw += keyGene(v) * pow[n+i]
		if pack {
			or |= uint(v)
			b[n+i] = byte(v)
		}
	}
	return mixKey(raw), or
}
