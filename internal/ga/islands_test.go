package ga

import (
	"testing"

	"robsched/internal/rng"
)

func TestRunIslandsValidation(t *testing.T) {
	c := IslandConfig[bits]{Base: oneMaxConfig(8), Islands: 0}
	if _, err := RunIslands(c, rng.New(1)); err == nil {
		t.Error("Islands=0 accepted")
	}
	c = IslandConfig[bits]{Base: oneMaxConfig(8), Islands: 2}
	c.Base.OnGeneration = func(int, []bits, []float64) {}
	if _, err := RunIslands(c, rng.New(1)); err == nil {
		t.Error("OnGeneration accepted with islands")
	}
	bad := oneMaxConfig(8)
	bad.PopSize = 1
	if _, err := RunIslands(IslandConfig[bits]{Base: bad, Islands: 2}, rng.New(1)); err == nil {
		t.Error("invalid base config accepted")
	}
}

func TestRunIslandsSingleIslandDelegates(t *testing.T) {
	c := oneMaxConfig(16)
	c.MaxGenerations = 100
	c.Stagnation = 0
	res, err := RunIslands(IslandConfig[bits]{Base: c, Islands: 1}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if f := ones(res.Best); f < 14 {
		t.Fatalf("single island fitness %g", f)
	}
}

func TestRunIslandsSolvesOneMax(t *testing.T) {
	const n = 24
	c := oneMaxConfig(n)
	c.MaxGenerations = 300
	c.Stagnation = 0
	res, err := RunIslands(IslandConfig[bits]{Base: c, Islands: 4, MigrationEvery: 20}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if f := ones(res.Best); f != n {
		t.Fatalf("islands reached fitness %g after %d generations, want %d",
			f, res.Generations, n)
	}
}

func TestRunIslandsSeedMigrates(t *testing.T) {
	// Give island 0 the optimal seed with crossover and mutation disabled:
	// only migration can spread it, and the global best must be optimal.
	const n = 12
	c := oneMaxConfig(n)
	c.Seeds = []bits{allOnes(n)}
	c.CrossoverRate = 0
	c.MutationRate = 0
	c.MaxGenerations = 60
	c.Stagnation = 0
	res, err := RunIslands(IslandConfig[bits]{Base: c, Islands: 3, MigrationEvery: 10}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if f := ones(res.Best); f != n {
		t.Fatalf("optimal seed lost: best %g", f)
	}
}

func TestRunIslandsDeterministic(t *testing.T) {
	run := func() string {
		c := oneMaxConfig(20)
		c.MaxGenerations = 60
		c.Stagnation = 0
		res, err := RunIslands(IslandConfig[bits]{Base: c, Islands: 3, MigrationEvery: 15}, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		return string(res.Best)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("island run not deterministic: %v vs %v", []byte(a), []byte(b))
	}
}

func TestRunIslandsStagnation(t *testing.T) {
	c := oneMaxConfig(6)
	c.MaxGenerations = 2000
	c.Stagnation = 15
	res, err := RunIslands(IslandConfig[bits]{Base: c, Islands: 3, MigrationEvery: 10}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stagnated {
		t.Fatalf("islands did not stagnate on trivial problem (gens=%d)", res.Generations)
	}
	if res.Generations >= 2000 {
		t.Fatal("ran to the cap despite stagnation")
	}
}
