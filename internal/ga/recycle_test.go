package ga

import (
	"math"
	"sync"
	"testing"

	"robsched/internal/rng"
)

// pooled is a oneMax individual that knows whether it sits on the free list.
type pooled struct {
	genes []byte
	free  bool
}

// recycler is the problem side of Config.Recycle for pooled individuals: a
// mutex-guarded free list the operators draw from, which fails the test
// when an individual is recycled twice or a recycled one is still in use.
type recycler struct {
	t      *testing.T
	mu     sync.Mutex
	list   []*pooled
	reused int
}

func (rc *recycler) get(n int) *pooled {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if k := len(rc.list); k > 0 {
		p := rc.list[k-1]
		rc.list = rc.list[:k-1]
		p.free = false
		rc.reused++
		return p
	}
	return &pooled{genes: make([]byte, n)}
}

func (rc *recycler) put(p *pooled) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if p.free {
		rc.t.Error("an individual was recycled twice")
	}
	p.free = true
	rc.list = append(rc.list, p)
}

// live fails the test when p has been recycled.
func (rc *recycler) live(p *pooled) {
	if p.free {
		rc.t.Error("a recycled individual is still in use")
	}
}

// pooledConfig is oneMax over pooled individuals. With rc set, the
// operators overwrite recycled individuals; without, they always allocate.
func pooledConfig(n int, rc *recycler) Config[*pooled] {
	get := func() *pooled { return &pooled{genes: make([]byte, n)} }
	live := func(*pooled) {}
	if rc != nil {
		get = func() *pooled { return rc.get(n) }
		live = rc.live
	}
	c := Config[*pooled]{
		PopSize: 20, CrossoverRate: 0.9, MutationRate: 0.1, MaxGenerations: 60,
		Random: func(r *rng.Source) *pooled {
			p := get()
			for i := range p.genes {
				p.genes[i] = byte(r.Intn(2))
			}
			return p
		},
		Crossover: func(a, b *pooled, r *rng.Source) (*pooled, *pooled) {
			live(a)
			live(b)
			cut := 1 + r.Intn(n-1)
			c1, c2 := get(), get()
			copy(c1.genes, a.genes[:cut])
			copy(c1.genes[cut:], b.genes[cut:])
			copy(c2.genes, b.genes[:cut])
			copy(c2.genes[cut:], a.genes[cut:])
			return c1, c2
		},
		Mutate: func(ind *pooled, r *rng.Source) *pooled {
			live(ind)
			out := get()
			copy(out.genes, ind.genes)
			out.genes[r.Intn(n)] ^= 1
			return out
		},
		EvaluateInto: func(pop []*pooled, fit []float64) {
			for i, p := range pop {
				live(p)
				fit[i] = 0
				for _, g := range p.genes {
					fit[i] += float64(g)
				}
			}
		},
	}
	if rc != nil {
		c.Recycle = rc.put
	}
	return c
}

// TestRecycleKeepsTrajectory: handing dropped individuals back to the
// operators changes no fitness of any generation and no result, never
// touches an individual that is still live, and does reuse individuals.
func TestRecycleKeepsTrajectory(t *testing.T) {
	run := func(rc *recycler) ([]float64, Result[*pooled]) {
		c := pooledConfig(24, rc)
		c.Seeds = []*pooled{{genes: make([]byte, 24)}}
		var trace []float64
		c.OnGeneration = func(gen int, pop []*pooled, fit []float64) {
			for _, p := range pop {
				if rc != nil {
					rc.live(p)
				}
			}
			trace = append(trace, fit...)
		}
		res, err := Run(c, rng.New(17))
		if err != nil {
			t.Fatal(err)
		}
		return trace, res
	}
	rc := &recycler{t: t}
	want, wantRes := run(nil)
	got, gotRes := run(rc)
	if len(got) != len(want) {
		t.Fatalf("%d fitness values with Recycle, %d without", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("fitness %d differs with Recycle: %v != %v", i, got[i], want[i])
		}
	}
	if string(gotRes.Best.genes) != string(wantRes.Best.genes) {
		t.Fatal("Recycle changed the result")
	}
	rc.live(gotRes.Best)
	if rc.reused == 0 {
		t.Fatal("no individual was ever recycled")
	}
}

// TestRecycleIslandsMigratingEveryGeneration: with a migration after every
// generation, each island's best also lives in its neighbour's population.
// Neither side may recycle it, and the trajectory must match a run without
// Recycle. Run under -race, a recycled migrant shows up as a data race too.
func TestRecycleIslandsMigratingEveryGeneration(t *testing.T) {
	run := func(rc *recycler) Result[*pooled] {
		c := pooledConfig(24, rc)
		c.Seeds = []*pooled{{genes: make([]byte, 24)}}
		res, err := RunIslands(IslandConfig[*pooled]{Base: c, Islands: 4, MigrationEvery: 1}, rng.New(23))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rc := &recycler{t: t}
	want, got := run(nil), run(rc)
	if string(got.Best.genes) != string(want.Best.genes) {
		t.Fatal("Recycle changed the island result")
	}
	rc.live(got.Best)
	if rc.reused == 0 {
		t.Fatal("no individual was ever recycled")
	}
}

// TestEvictRecyclesOnlyTheLastHolder: a migrant's slot releases the
// individual it held only when no other slot still holds it, and a pinned
// individual never.
func TestEvictRecyclesOnlyTheLastHolder(t *testing.T) {
	pop := []string{"seed", "a", "b", "a", "c", "b"}
	ar := newArena[string](len(pop), 1)
	copy(ar.id, []int32{pinnedID, 1, 2, 1, 4, 2})
	var got string
	recycle := func(s string) { got += s }
	for _, step := range []struct {
		slot int
		want string // "" when nothing may be recycled
	}{
		{1, ""},  // "a" is still in slot 3
		{3, "a"}, // its last holder
		{5, ""},  // "b" is still in slot 2
		{2, "b"},
		{0, ""}, // a seed
		{4, "c"},
		{4, ""}, // the migrant put there by the previous step
	} {
		got = ""
		ar.evict(pop, step.slot, recycle)
		pop[step.slot] = "migrant"
		if got != step.want {
			t.Fatalf("evicting slot %d recycled %q, want %q", step.slot, got, step.want)
		}
	}
}

// TestMigrantsAreNeverRecycled drives Island.Migrate directly, as a
// distributed host does: however long the island evolves afterwards, no
// migrant is recycled and no recycled individual stays in the population.
func TestMigrantsAreNeverRecycled(t *testing.T) {
	rc := &recycler{t: t}
	c := pooledConfig(16, rc)
	st, err := NewIsland(c, 0, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	migrants := make([]*pooled, 0, 8)
	for e := 0; e < 8; e++ {
		st.Epoch(e, 1)
		m := &pooled{genes: make([]byte, 16)}
		for i := range m.genes {
			m.genes[i] = 1
		}
		migrants = append(migrants, m)
		st.Migrate(m)
		for _, p := range st.pop {
			rc.live(p)
		}
	}
	for _, m := range migrants {
		rc.live(m)
	}
	st.Epoch(8, 20)
	for _, m := range migrants {
		rc.live(m)
	}
}
