package main

import (
	"math"
	"sort"
	"time"

	"robsched/internal/rng"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks; xs need not be sorted and is
// left untouched. It returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, the median and the third quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}

// tailPercentile returns the highest of the percentiles 50, 90, 99 and 99.9
// that has at least ten samples beyond it in a sample of n, or 0 when even
// the median lacks them (n < 20). Reporting a percentile past that point
// would rest on a handful of outliers.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9} {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// sink keeps the results of timed work alive so the compiler cannot drop
// the calls being timed.
var sink float64

// refData is the fixed input of refUnit, and refScratch its sort buffer.
var refData, refScratch = func() ([]float64, []float64) {
	d := make([]float64, 1<<12)
	r := rng.New(1)
	for i := range d {
		d[i] = 10 * r.Float64()
	}
	return d, make([]float64, len(d))
}()

// refUnit is the benchmark's fixed unit of reference work, timed between
// requests: sorting a copy of refData, then ten passes of Exp and Log over
// it — about 0.75 ms on the calibration machine, half branching and memory
// traffic, half floating-point throughput.
//
// The speed of a shared machine drifts with its other tenants' load: on the
// 2-vCPU calibration machine it switched for minutes at a time between
// states 1.5x apart, slowing every request alike. Reported as a multiple of
// the run's median unit (unit "ref"), a time cancels the drift that raw
// times carry. In the slow state the GA and Monte-Carlo requests slowed by
// 1.47-1.63x, the sort alone by 1.28x, the Exp/Log passes alone by 1.68x
// and a floating-point multiply-add chain by 1.06x; mixing the first two
// tracks the requests best.
func refUnit() float64 {
	copy(refScratch, refData)
	sort.Float64s(refScratch)
	x := refScratch[len(refScratch)/2]
	for r := 0; r < 10; r++ {
		for i, v := range refData {
			if i&1 == 0 {
				x += math.Exp(-v)
			} else {
				x += math.Log(v + 1)
			}
		}
	}
	return x
}

// refSeconds times five reference units and returns the median duration.
func refSeconds() float64 {
	xs := make([]float64, 5)
	for i := range xs {
		t := time.Now()
		sink += refUnit()
		xs[i] = time.Since(t).Seconds()
	}
	return median(xs)
}
