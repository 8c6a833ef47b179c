package sim

import (
	"math"
	"sort"
	"testing"

	"robsched/internal/rng"
)

// quantileSorted is the reference the quantile selection is held to: the
// exact empirical p-quantile of a sorted sample, the smallest sampled value
// x such that at least a p fraction of the samples are <= x
// (sorted[ceil(p·n)−1]).
func quantileSorted(sorted []float64, p float64) float64 {
	return sorted[quantileIndex(len(sorted), p)]
}

func TestQuantileSortedConvention(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// sorted[ceil(p*n)-1]: the smallest sample covering a p fraction.
	for _, c := range []struct{ p, want float64 }{
		{0.50, 5}, {0.95, 10}, {0.99, 10}, {0.10, 1}, {1.0, 10}, {0.001, 1},
	} {
		if got := quantileSorted(sorted, c.p); got != c.want {
			t.Errorf("quantileSorted(p=%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := quantileSorted([]float64{42}, 0.5); got != 42 {
		t.Errorf("single-sample quantile = %g", got)
	}
}

func TestMetricsQuantilesOrdered(t *testing.T) {
	w := testWorkload(t, 51, 60, 4, 4)
	s := heftSchedule(t, w)
	m, err := Evaluate(s, Options{Realizations: 2000}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if !(m.MinMakespan <= m.P50 && m.P50 <= m.P95 && m.P95 <= m.P99 && m.P99 <= m.MaxMakespan+1e-9) {
		t.Fatalf("quantiles out of order: min %g p50 %g p95 %g p99 %g max %g",
			m.MinMakespan, m.P50, m.P95, m.P99, m.MaxMakespan)
	}
	// The median should sit near the mean for this roughly symmetric
	// distribution.
	if math.Abs(m.P50-m.MeanMakespan)/m.MeanMakespan > 0.1 {
		t.Errorf("median %g far from mean %g", m.P50, m.MeanMakespan)
	}
}

func TestDeadlineMissRate(t *testing.T) {
	w := testWorkload(t, 53, 40, 4, 3)
	s := heftSchedule(t, w)
	// A deadline below any realization misses always; above all, never.
	low, err := Evaluate(s, Options{Realizations: 300, Deadline: 1e-6}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if low.DeadlineMissRate != 1 {
		t.Errorf("tiny deadline miss rate = %g, want 1", low.DeadlineMissRate)
	}
	high, err := Evaluate(s, Options{Realizations: 300, Deadline: 1e12}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if high.DeadlineMissRate != 0 {
		t.Errorf("huge deadline miss rate = %g, want 0", high.DeadlineMissRate)
	}
	// A deadline at the p95 estimate should miss roughly 5% of the time.
	m, err := Evaluate(s, Options{Realizations: 2000}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	at95, err := Evaluate(s, Options{Realizations: 2000, Deadline: m.P95}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if at95.DeadlineMissRate < 0.01 || at95.DeadlineMissRate > 0.12 {
		t.Errorf("p95 deadline miss rate = %g, want ~0.05", at95.DeadlineMissRate)
	}
	// Without a deadline the field is NaN.
	if !math.IsNaN(m.DeadlineMissRate) {
		t.Errorf("unset deadline produced %g", m.DeadlineMissRate)
	}
}

func TestQuantileStableAcrossWorkerCounts(t *testing.T) {
	// Quantiles are exact order statistics of the full makespan sample and
	// must therefore be bit-identical across worker counts (they were only
	// approximately stable under the former per-worker P² estimators).
	w := testWorkload(t, 55, 60, 4, 4)
	s := heftSchedule(t, w)
	a, err := Evaluate(s, Options{Realizations: 2000, Workers: 1}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(s, Options{Realizations: 2000, Workers: 8}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.P50 != b.P50 || a.P95 != b.P95 || a.P99 != b.P99 {
		t.Errorf("quantiles differ across worker counts: %+v vs %+v", a, b)
	}
}

// TestQuantilesMatchSort: the P50, P95 and P99 MetricsFromSamples selects
// are the bits quantileSorted reads after sort.Float64s, for every sample
// size 1–300 and 1,000, on distinct values, heavy ties, ±Inf and NaN (which
// sort.Float64s orders first), and already sorted or reversed samples. The
// selection DeadlineForConfidence reads is checked at further levels, and
// MetricsFromSamples must leave the caller's slice as it was.
func TestQuantilesMatchSort(t *testing.T) {
	r := rng.New(613)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 7}
	sizes := []int{1000}
	for n := 1; n <= 300; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for shape := 0; shape < 5; shape++ {
			x := make([]float64, n)
			for i := range x {
				switch shape {
				case 0, 3, 4: // distinct
					x[i] = r.Uniform(100, 200)
				case 1: // ties
					x[i] = float64(r.Intn(4))
				case 2: // specials among ordinary values
					x[i] = r.Uniform(100, 200)
					if r.Float64() < 0.2 {
						x[i] = specials[r.Intn(len(specials))]
					}
				}
			}
			sorted := append([]float64(nil), x...)
			sort.Float64s(sorted)
			switch shape {
			case 3:
				copy(x, sorted)
			case 4:
				for i := range x {
					x[i] = sorted[n-1-i]
				}
			}
			orig := append([]float64(nil), x...)
			m := MetricsFromSamples(150, x, 0)
			for _, q := range []struct {
				name string
				p    float64
				got  float64
			}{{"P50", 0.50, m.P50}, {"P95", 0.95, m.P95}, {"P99", 0.99, m.P99}} {
				if want := quantileSorted(sorted, q.p); math.Float64bits(q.got) != math.Float64bits(want) {
					t.Fatalf("n=%d shape %d: %s %v, sort gives %v", n, shape, q.name, q.got, want)
				}
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(orig[i]) {
					t.Fatalf("n=%d shape %d: MetricsFromSamples reordered its input", n, shape)
				}
			}
			for _, p := range []float64{0.001, 0.1, 0.5, 0.9, 0.975, 1} {
				y := append([]float64(nil), x...)
				got := selectNth(y, quantileIndex(n, p))
				if want := quantileSorted(sorted, p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d shape %d: quantile %v selected %v, sort gives %v", n, shape, p, got, want)
				}
			}
		}
	}
}
