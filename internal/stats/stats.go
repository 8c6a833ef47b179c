// Package stats provides the summary statistics and metric arithmetic the
// experiment harness builds its tables from: means, correlations, safe
// log-ratios (the paper plots natural-log ratios of improvements, which
// degenerate when a robustness metric is infinite), and the overall
// performance score P(s) of Eqn. 9.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs; NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// RatioCap bounds the ratios fed to LogRatio when one side is infinite (a
// robustness metric with zero tardiness or miss rate). exp(±RatioLogCap)
// is the effective ratio bound.
const RatioLogCap = 20.0

// SafeRatio returns a/b guarded for the infinities the robustness metrics
// produce: Inf/Inf = 1 (both schedules perfectly robust), Inf/x caps high,
// x/Inf caps low, and non-positive denominators cap by sign.
func SafeRatio(a, b float64) float64 {
	aInf, bInf := math.IsInf(a, 1), math.IsInf(b, 1)
	switch {
	case aInf && bInf:
		return 1
	case aInf:
		return math.Exp(RatioLogCap)
	case bInf:
		return math.Exp(-RatioLogCap)
	case b <= 0 || a <= 0:
		// Degenerate metric; treat as no information.
		return 1
	default:
		return a / b
	}
}

// LogRatio returns ln(SafeRatio(a, b)) clamped to ±RatioLogCap. The paper's
// figures plot natural-log ratios (e.g. "log ratio of the change relative
// to step 0", "log ratio of relative improvement over HEFT").
func LogRatio(a, b float64) float64 {
	l := math.Log(SafeRatio(a, b))
	if l > RatioLogCap {
		return RatioLogCap
	}
	if l < -RatioLogCap {
		return -RatioLogCap
	}
	return l
}

// OverallPerformance computes P(s) of Eqn. 9:
//
//	P(s) = r·ln(M_HEFT / M(s)) + (1−r)·ln(R(s) / R_HEFT)
//
// where r in [0,1] weights makespan emphasis against robustness emphasis.
// Infinite robustness values are capped via LogRatio.
func OverallPerformance(r, makespan, makespanHEFT, robustness, robustnessHEFT float64) float64 {
	if r < 0 || r > 1 {
		return math.NaN()
	}
	return r*LogRatio(makespanHEFT, makespan) + (1-r)*LogRatio(robustness, robustnessHEFT)
}

// Pearson returns the Pearson correlation coefficient of two equally sized
// samples; NaN when either sample is constant or shorter than 2.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation of two equally sized
// samples (Pearson on mid-ranks; ties averaged).
func Spearman(xs, ys []float64) float64 {
	return Pearson(ranks(xs), ranks(ys))
}

// ranks returns the mid-ranks of xs (1-based, ties averaged).
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		mid := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = mid
		}
		i = j + 1
	}
	return out
}
