// Package pareto provides the multi-objective optimization machinery the
// bi-objective scheduling problem rests on (Deb, "Multi-Objective
// Optimization using Evolutionary Algorithms", the paper's reference for
// non-dominated solutions): Pareto dominance, fast non-dominated sorting,
// crowding distance, and the 2-D hypervolume indicator. All objectives are
// minimized; callers maximizing an objective negate it.
package pareto

import (
	"fmt"
	"math"
	"sort"
)

// Dominates reports whether a Pareto-dominates b: a is no worse in every
// objective and strictly better in at least one. Vectors must have equal
// length.
func Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		panic(fmt.Sprintf("pareto: dominance between %d- and %d-dim vectors", len(a), len(b)))
	}
	strictly := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strictly = true
		}
	}
	return strictly
}

// Filter returns the indices of the non-dominated points, in input order.
func Filter(objs [][]float64) []int {
	var out []int
	for i := range objs {
		dominated := false
		for j := range objs {
			if i != j && Dominates(objs[j], objs[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// NonDominatedSort partitions the points into fronts (Deb's fast
// non-dominated sort): front 0 is the Pareto front, front k+1 is the
// Pareto front after removing fronts 0..k. Indices within a front keep
// input order.
func NonDominatedSort(objs [][]float64) [][]int {
	n := len(objs)
	dominatedBy := make([]int, n) // how many points dominate i
	dominates := make([][]int, n) // which points i dominates
	var first []int
	// Each pair is compared once, in the row of its lower index; by the end
	// of row i every pair holding i has been, so dominatedBy[i] is final.
	// Every dominates list grows in increasing index order, which fixes the
	// order of the indices in each front.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case Dominates(objs[i], objs[j]):
				dominates[i] = append(dominates[i], j)
				dominatedBy[j]++
			case Dominates(objs[j], objs[i]):
				dominates[j] = append(dominates[j], i)
				dominatedBy[i]++
			}
		}
		if dominatedBy[i] == 0 {
			first = append(first, i)
		}
	}
	var fronts [][]int
	cur := first
	for len(cur) > 0 {
		fronts = append(fronts, cur)
		var next []int
		for _, i := range cur {
			for _, j := range dominates[i] {
				dominatedBy[j]--
				if dominatedBy[j] == 0 {
					next = append(next, j)
				}
			}
		}
		cur = next
	}
	return fronts
}

// CrowdingDistance returns NSGA-II's crowding distance for each member of
// the front (aligned with front's order): boundary points get +Inf, the
// rest the normalized perimeter of their objective-space neighbourhood.
func CrowdingDistance(objs [][]float64, front []int) []float64 {
	k := len(front)
	dist := make([]float64, k)
	if k == 0 {
		return dist
	}
	if k <= 2 {
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		return dist
	}
	dims := len(objs[front[0]])
	order := make([]int, k) // positions into front
	for d := 0; d < dims; d++ {
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return objs[front[order[a]]][d] < objs[front[order[b]]][d]
		})
		lo := objs[front[order[0]]][d]
		hi := objs[front[order[k-1]]][d]
		dist[order[0]] = math.Inf(1)
		dist[order[k-1]] = math.Inf(1)
		if hi == lo {
			continue
		}
		for i := 1; i < k-1; i++ {
			gap := objs[front[order[i+1]]][d] - objs[front[order[i-1]]][d]
			dist[order[i]] += gap / (hi - lo)
		}
	}
	return dist
}

// Hypervolume2D returns the area dominated by the given 2-objective points
// (both minimized) and bounded by the reference point, which must be
// weakly dominated by every point; points beyond the reference contribute
// nothing. Larger is better.
func Hypervolume2D(objs [][]float64, ref [2]float64) float64 {
	// Keep only the non-dominated points inside the reference box.
	var pts [][2]float64
	for _, idx := range Filter(objs) {
		o := objs[idx]
		if len(o) != 2 {
			panic(fmt.Sprintf("pareto: Hypervolume2D on %d-dim point", len(o)))
		}
		if o[0] < ref[0] && o[1] < ref[1] {
			pts = append(pts, [2]float64{o[0], o[1]})
		}
	}
	if len(pts) == 0 {
		return 0
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a][0] < pts[b][0] })
	hv := 0.0
	prevY := ref[1]
	for _, p := range pts {
		if p[1] >= prevY {
			continue // dominated in the sweep (equal x, worse y)
		}
		hv += (ref[0] - p[0]) * (prevY - p[1])
		prevY = p[1]
	}
	return hv
}
