package pareto

import (
	"math"
	"testing"
	"testing/quick"

	"robsched/internal/rng"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false}, // equal: no strict gain
		{[]float64{1, 1}, []float64{1, 2}, true},
		{[]float64{2, 2}, []float64{1, 1}, false},
		{[]float64{0}, []float64{1}, true},
	}
	for i, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("case %d: Dominates(%v,%v) = %v", i, c.a, c.b, got)
		}
	}
}

func TestDominatesPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Dominates([]float64{1}, []float64{1, 2})
}

func TestFilter(t *testing.T) {
	objs := [][]float64{
		{1, 5}, // front
		{2, 4}, // front
		{3, 3}, // front
		{3, 5}, // dominated by {1,5}? no: 1<=3, 5<=5 strict in first → dominated
		{2, 6}, // dominated by {1,5}
		{5, 1}, // front
	}
	got := Filter(objs)
	want := map[int]bool{0: true, 1: true, 2: true, 5: true}
	if len(got) != len(want) {
		t.Fatalf("Filter = %v", got)
	}
	for _, i := range got {
		if !want[i] {
			t.Fatalf("Filter = %v", got)
		}
	}
}

func TestNonDominatedSort(t *testing.T) {
	objs := [][]float64{
		{1, 4}, {4, 1}, // front 0
		{2, 5}, {5, 2}, // front 1
		{3, 6}, {6, 3}, // front 2
	}
	fronts := NonDominatedSort(objs)
	if len(fronts) != 3 {
		t.Fatalf("got %d fronts: %v", len(fronts), fronts)
	}
	wantSizes := []int{2, 2, 2}
	for i, f := range fronts {
		if len(f) != wantSizes[i] {
			t.Fatalf("front %d = %v", i, f)
		}
	}
	if !(fronts[0][0] == 0 && fronts[0][1] == 1) {
		t.Fatalf("front 0 = %v", fronts[0])
	}
}

func TestNonDominatedSortCoversAll(t *testing.T) {
	r := rng.New(1)
	check := func(nRaw uint8) bool {
		n := int(nRaw%30) + 1
		objs := make([][]float64, n)
		for i := range objs {
			objs[i] = []float64{r.Uniform(0, 10), r.Uniform(0, 10)}
		}
		fronts := NonDominatedSort(objs)
		seen := make([]bool, n)
		total := 0
		for fi, f := range fronts {
			for _, i := range f {
				if seen[i] {
					return false
				}
				seen[i] = true
				total++
				// No point in a front may be dominated by another point of
				// the same front.
				for _, j := range f {
					if i != j && Dominates(objs[j], objs[i]) {
						return false
					}
				}
				// Every point in front fi > 0 must be dominated by some
				// point in front fi-1.
				if fi > 0 {
					dominated := false
					for _, j := range fronts[fi-1] {
						if Dominates(objs[j], objs[i]) {
							dominated = true
							break
						}
					}
					if !dominated {
						return false
					}
				}
			}
		}
		return total == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestNonDominatedSortOrder: the fronts, and the order of the indices in
// each, equal those of the textbook all-ordered-pairs loop, on points with
// many ties (coordinates drawn from a few values) in two and three
// objectives. NSGA-II's survivors and crowding depend on that order.
func TestNonDominatedSortOrder(t *testing.T) {
	allPairs := func(objs [][]float64) [][]int {
		n := len(objs)
		dominatedBy := make([]int, n)
		dominates := make([][]int, n)
		var cur []int
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if Dominates(objs[i], objs[j]) {
					dominates[i] = append(dominates[i], j)
				} else if Dominates(objs[j], objs[i]) {
					dominatedBy[i]++
				}
			}
			if dominatedBy[i] == 0 {
				cur = append(cur, i)
			}
		}
		var fronts [][]int
		for len(cur) > 0 {
			fronts = append(fronts, cur)
			var next []int
			for _, i := range cur {
				for _, j := range dominates[i] {
					if dominatedBy[j]--; dominatedBy[j] == 0 {
						next = append(next, j)
					}
				}
			}
			cur = next
		}
		return fronts
	}
	r := rng.New(3)
	for trial := 0; trial < 300; trial++ {
		n, dim := 1+r.Intn(60), 2+r.Intn(2)
		objs := make([][]float64, n)
		for i := range objs {
			objs[i] = make([]float64, dim)
			for k := range objs[i] {
				objs[i][k] = float64(r.Intn(5))
			}
		}
		got, want := NonDominatedSort(objs), allPairs(objs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d fronts, want %d", trial, len(got), len(want))
		}
		for f := range want {
			if len(got[f]) != len(want[f]) {
				t.Fatalf("trial %d: front %d = %v, want %v", trial, f, got[f], want[f])
			}
			for k := range want[f] {
				if got[f][k] != want[f][k] {
					t.Fatalf("trial %d: front %d = %v, want %v", trial, f, got[f], want[f])
				}
			}
		}
	}
}

func TestFilterMatchesFirstFront(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(40)
		objs := make([][]float64, n)
		for i := range objs {
			objs[i] = []float64{r.Uniform(0, 5), r.Uniform(0, 5), r.Uniform(0, 5)}
		}
		f0 := NonDominatedSort(objs)[0]
		filt := Filter(objs)
		if len(f0) != len(filt) {
			t.Fatalf("front-0 size %d != filter size %d", len(f0), len(filt))
		}
		set := map[int]bool{}
		for _, i := range f0 {
			set[i] = true
		}
		for _, i := range filt {
			if !set[i] {
				t.Fatalf("filter index %d not in front 0", i)
			}
		}
	}
}

func TestCrowdingDistance(t *testing.T) {
	objs := [][]float64{{0, 4}, {1, 2}, {2, 1}, {4, 0}}
	front := []int{0, 1, 2, 3}
	d := CrowdingDistance(objs, front)
	if !math.IsInf(d[0], 1) || !math.IsInf(d[3], 1) {
		t.Fatalf("boundaries not infinite: %v", d)
	}
	// Interior: point 1 neighbourhood (x: 2-0=2, y: 4-1=3) normalized by
	// ranges (4, 4): 0.5 + 0.75 = 1.25.
	if math.Abs(d[1]-1.25) > 1e-12 {
		t.Errorf("d[1] = %g, want 1.25", d[1])
	}
	// Point 2: (4-1)/4 + (2-0)/4 = 0.75+0.5 = 1.25.
	if math.Abs(d[2]-1.25) > 1e-12 {
		t.Errorf("d[2] = %g, want 1.25", d[2])
	}
}

func TestCrowdingDistanceSmallFronts(t *testing.T) {
	objs := [][]float64{{1, 1}, {2, 2}}
	if d := CrowdingDistance(objs, []int{0}); !math.IsInf(d[0], 1) {
		t.Error("singleton not infinite")
	}
	d := CrowdingDistance(objs, []int{0, 1})
	if !math.IsInf(d[0], 1) || !math.IsInf(d[1], 1) {
		t.Error("pair not infinite")
	}
	if got := CrowdingDistance(objs, nil); len(got) != 0 {
		t.Error("empty front")
	}
}

func TestCrowdingDistanceDegenerateDimension(t *testing.T) {
	// All points share one objective value: that dimension contributes
	// nothing and must not divide by zero.
	objs := [][]float64{{1, 5}, {2, 5}, {3, 5}}
	d := CrowdingDistance(objs, []int{0, 1, 2})
	if math.IsNaN(d[1]) {
		t.Fatal("NaN crowding distance")
	}
}

func TestHypervolume2D(t *testing.T) {
	// Single point (1,1) with ref (3,3): area (3-1)*(3-1) = 4.
	if hv := Hypervolume2D([][]float64{{1, 1}}, [2]float64{3, 3}); hv != 4 {
		t.Errorf("single point hv = %g, want 4", hv)
	}
	// Two staircase points.
	objs := [][]float64{{1, 2}, {2, 1}}
	// Sweep: (3-1)*(3-2)=2 then (3-2)*(2-1)=1 → 3.
	if hv := Hypervolume2D(objs, [2]float64{3, 3}); hv != 3 {
		t.Errorf("staircase hv = %g, want 3", hv)
	}
	// Dominated points add nothing.
	objs = append(objs, []float64{2.5, 2.5})
	if hv := Hypervolume2D(objs, [2]float64{3, 3}); hv != 3 {
		t.Errorf("dominated point changed hv to %g", hv)
	}
	// Points beyond the reference are ignored.
	if hv := Hypervolume2D([][]float64{{5, 5}}, [2]float64{3, 3}); hv != 0 {
		t.Errorf("out-of-box point hv = %g", hv)
	}
	if hv := Hypervolume2D(nil, [2]float64{3, 3}); hv != 0 {
		t.Errorf("empty hv = %g", hv)
	}
}

func TestHypervolumeMonotoneInPoints(t *testing.T) {
	// Adding a non-dominated point never decreases the hypervolume.
	r := rng.New(3)
	for trial := 0; trial < 100; trial++ {
		var objs [][]float64
		ref := [2]float64{10, 10}
		prev := 0.0
		for k := 0; k < 8; k++ {
			objs = append(objs, []float64{r.Uniform(0, 10), r.Uniform(0, 10)})
			hv := Hypervolume2D(objs, ref)
			if hv < prev-1e-12 {
				t.Fatalf("hypervolume decreased: %g -> %g", prev, hv)
			}
			prev = hv
		}
	}
}
