package ga

import (
	"math"
	"reflect"
	"testing"

	"robsched/internal/rng"
)

// collect runs the config with a recording observer and returns the full
// GenStats trajectory.
func collectStats(t *testing.T, c Config[bits], seed uint64) []GenStats {
	t.Helper()
	var got []GenStats
	c.Observer = ObserverFunc(func(s GenStats) { got = append(got, s) })
	if _, err := Run(c, rng.New(seed)); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestObserverTrajectoryShape(t *testing.T) {
	c := oneMaxConfig(16)
	c.MaxGenerations = 30
	c.Stagnation = 0
	stats := collectStats(t, c, 11)
	if len(stats) != 31 {
		t.Fatalf("got %d stats, want 31 (gen 0..30)", len(stats))
	}
	for i, s := range stats {
		if s.Gen != i || s.Island != 0 {
			t.Fatalf("stats[%d] = {Island:%d Gen:%d}, want {0 %d}", i, s.Island, s.Gen, i)
		}
		if s.Best < s.Mean-1e-12 {
			t.Fatalf("gen %d: best %g < mean %g", i, s.Best, s.Mean)
		}
		if s.Diversity < 0 || s.Diversity > 1 || math.IsNaN(s.Diversity) {
			t.Fatalf("gen %d: diversity %g outside (0,1]", i, s.Diversity)
		}
	}
	if stats[0].Crossovers != 0 || stats[0].Mutations != 0 {
		t.Fatalf("gen 0 must report zero operator counts, got %+v", stats[0])
	}
	anyOps := false
	for _, s := range stats[1:] {
		if s.Crossovers > 0 || s.Mutations > 0 {
			anyOps = true
		}
		// Each generation fills PopSize-1 slots from pairs; crossovers are
		// per-pair and mutations per-child, so both are bounded by PopSize.
		if s.Crossovers > c.PopSize || s.Mutations > c.PopSize {
			t.Fatalf("gen %d: implausible operator counts %+v", s.Gen, s)
		}
	}
	if !anyOps {
		t.Fatal("no operator applications observed over 30 generations")
	}
}

func TestObserverDiversityNaNWithoutKey(t *testing.T) {
	c := oneMaxConfig(8)
	c.Key = nil
	c.MaxGenerations = 3
	c.Stagnation = 0
	for _, s := range collectStats(t, c, 3) {
		if !math.IsNaN(s.Diversity) {
			t.Fatalf("gen %d: diversity = %g, want NaN without Key", s.Gen, s.Diversity)
		}
	}
}

// TestObserverDeterministic pins the core contract: same config + same seed
// → bit-identical, identically ordered GenStats sequences.
func TestObserverDeterministic(t *testing.T) {
	c := oneMaxConfig(24)
	c.MaxGenerations = 40
	c.Stagnation = 0
	a := collectStats(t, c, 99)
	b := collectStats(t, c, 99)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("observer trajectories differ between identical runs")
	}
}

// TestObserverMatchesResult cross-checks the trajectory against the engine's
// own result: the final best stat must equal the fitness of Result.Best and the
// number of evolved generations must equal Result.Generations.
func TestObserverMatchesResult(t *testing.T) {
	c := oneMaxConfig(16)
	c.MaxGenerations = 50
	c.Stagnation = 10
	var got []GenStats
	c.Observer = ObserverFunc(func(s GenStats) { got = append(got, s) })
	res, err := Run(c, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != res.Generations+1 {
		t.Fatalf("observed %d stats, want Generations+1 = %d", len(got), res.Generations+1)
	}
	last := got[len(got)-1]
	if f := ones(res.Best); last.Best != f {
		t.Fatalf("final observed best %g != result best %g", last.Best, f)
	}
}

// TestObserverIslandsDeterministicOrder runs an island configuration twice
// and demands the identical ordered sequence — the epoch-barrier buffering
// must erase goroutine scheduling from the emission order.
func TestObserverIslandsDeterministicOrder(t *testing.T) {
	runOnce := func() []GenStats {
		base := oneMaxConfig(16)
		base.MaxGenerations = 30
		base.Stagnation = 0
		var got []GenStats
		base.Observer = ObserverFunc(func(s GenStats) { got = append(got, s) })
		_, err := RunIslands(IslandConfig[bits]{Base: base, Islands: 3, MigrationEvery: 7}, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a := runOnce()
	b := runOnce()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("island observer trajectories differ between identical runs")
	}
	// 3 islands × (gen 0 + 30 generations).
	if len(a) != 3*31 {
		t.Fatalf("observed %d stats, want %d", len(a), 3*31)
	}
	// Gen 0 for all islands in index order, then strict (gen, island) order.
	for i := 0; i < 3; i++ {
		if a[i].Gen != 0 || a[i].Island != i {
			t.Fatalf("prefix[%d] = {Island:%d Gen:%d}, want island %d gen 0", i, a[i].Island, a[i].Gen, i)
		}
	}
	for i := 3; i < len(a); i++ {
		gen, island := 1+(i-3)/3, (i-3)%3
		if a[i].Gen != gen || a[i].Island != island {
			t.Fatalf("stats[%d] = {Island:%d Gen:%d}, want {%d %d}", i, a[i].Island, a[i].Gen, island, gen)
		}
	}
}

func TestMultiObserver(t *testing.T) {
	if MultiObserver() != nil || MultiObserver(nil, nil) != nil {
		t.Fatal("MultiObserver of no live observers must be nil")
	}
	var one []int
	o1 := ObserverFunc(func(s GenStats) { one = append(one, s.Gen) })
	if got := MultiObserver(nil, o1); got == nil {
		t.Fatal("single live observer must survive")
	} else {
		got.ObserveGeneration(GenStats{Gen: 7})
	}
	var order []string
	oa := ObserverFunc(func(GenStats) { order = append(order, "a") })
	ob := ObserverFunc(func(GenStats) { order = append(order, "b") })
	MultiObserver(oa, nil, ob).ObserveGeneration(GenStats{})
	if len(one) != 1 || one[0] != 7 {
		t.Fatalf("single observer saw %v, want [7]", one)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("fan-out order = %v, want [a b]", order)
	}
}
