package dag

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"robsched/internal/rng"
)

// diamond builds the 4-node diamond 0->{1,2}->3.
func diamond(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(4)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(0, 2, 2)
	b.MustAddEdge(1, 3, 3)
	b.MustAddEdge(2, 3, 4)
	return b.MustBuild()
}

// randomDAG builds a random DAG where every edge goes from a lower to a
// higher node id, so acyclicity holds by construction.
func randomDAG(r *rng.Source, n int, p float64) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				b.MustAddEdge(u, v, r.Uniform(0, 10))
			}
		}
	}
	return b.MustBuild()
}

func TestBuildValidation(t *testing.T) {
	if _, err := NewBuilder(0).Build(); err == nil {
		t.Error("empty graph accepted")
	}
	b := NewBuilder(3)
	if err := b.AddEdge(0, 3, 1); err == nil {
		t.Error("out-of-range target accepted")
	}
	if err := b.AddEdge(-1, 0, 1); err == nil {
		t.Error("out-of-range source accepted")
	}
	if err := b.AddEdge(1, 1, 1); err == nil {
		t.Error("self loop accepted")
	}
	if err := b.AddEdge(0, 1, -2); err == nil {
		t.Error("negative data accepted")
	}
	// Non-finite data: data < 0 is false for NaN and +Inf, so each needs
	// its own rejection naming the edge.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := b.AddEdge(0, 2, v); err == nil || !strings.Contains(err.Error(), "edge 0->2") {
			t.Errorf("data %v: error %v, want one naming edge 0->2", v, err)
		}
	}
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := b.AddEdge(0, 1, 5); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestBuildDetectsCycle(t *testing.T) {
	b := NewBuilder(3)
	b.MustAddEdge(0, 1, 0)
	b.MustAddEdge(1, 2, 0)
	b.MustAddEdge(2, 0, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("cycle not detected")
	}
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatal("cycle error should mention cycle")
	}
}

func TestSingleNodeGraph(t *testing.T) {
	g := NewBuilder(1).MustBuild()
	if g.N() != 1 || g.EdgeCount() != 0 {
		t.Fatalf("unexpected shape: n=%d edges=%d", g.N(), g.EdgeCount())
	}
	if got := g.Entries(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Entries = %v", got)
	}
	if got := g.Exits(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Exits = %v", got)
	}
	if got := g.TopologicalOrder(); len(got) != 1 || got[0] != 0 {
		t.Errorf("TopologicalOrder = %v", got)
	}
}

func TestDiamondBasics(t *testing.T) {
	g := diamond(t)
	if g.N() != 4 || g.EdgeCount() != 4 {
		t.Fatalf("n=%d edges=%d", g.N(), g.EdgeCount())
	}
	if got := g.Entries(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Entries = %v", got)
	}
	if got := g.Exits(); len(got) != 1 || got[0] != 3 {
		t.Errorf("Exits = %v", got)
	}
	if g.InDegree(3) != 2 || g.OutDegree(0) != 2 {
		t.Errorf("degrees wrong: in(3)=%d out(0)=%d", g.InDegree(3), g.OutDegree(0))
	}
	if d, ok := g.Data(0, 2); !ok || d != 2 {
		t.Errorf("Data(0,2) = %g,%v", d, ok)
	}
	if _, ok := g.Data(2, 0); ok {
		t.Error("Data(2,0) should not exist")
	}
	if !g.HasEdge(1, 3) || g.HasEdge(3, 1) || g.HasEdge(1, 2) {
		t.Error("HasEdge answers wrong")
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	g := diamond(t)
	es := g.Edges()
	if len(es) != 4 {
		t.Fatalf("got %d edges", len(es))
	}
	for i := 1; i < len(es); i++ {
		a, b := es[i-1], es[i]
		if a.From > b.From || (a.From == b.From && a.To >= b.To) {
			t.Fatalf("edges not sorted: %v then %v", a, b)
		}
	}
}

func TestCanonicalTopoOrderIsValidAndDeterministic(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 25; trial++ {
		g := randomDAG(r, 2+r.Intn(40), 0.3)
		o1 := g.TopologicalOrder()
		o2 := g.TopologicalOrder()
		if !g.IsTopologicalOrder(o1) {
			t.Fatalf("canonical order invalid: %v", o1)
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatal("canonical order not deterministic")
			}
		}
	}
}

func TestTopologicalOrderReturnsCopy(t *testing.T) {
	g := diamond(t)
	o := g.TopologicalOrder()
	o[0] = 99
	if g.TopologicalOrder()[0] == 99 {
		t.Fatal("TopologicalOrder exposed internal slice")
	}
}

func TestRandomTopologicalOrderProperty(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 50; trial++ {
		g := randomDAG(r, 2+r.Intn(50), 0.25)
		order := g.RandomTopologicalOrder(r)
		if !g.IsTopologicalOrder(order) {
			t.Fatalf("random order invalid for n=%d: %v", g.N(), order)
		}
	}
}

func TestRandomTopologicalOrderCoversAlternatives(t *testing.T) {
	// In the diamond, nodes 1 and 2 can appear in either order; with enough
	// samples both must occur.
	g := diamond(t)
	r := rng.New(9)
	saw12, saw21 := false, false
	for i := 0; i < 200; i++ {
		o := g.RandomTopologicalOrder(r)
		pos := make(map[int]int, 4)
		for i, v := range o {
			pos[v] = i
		}
		if pos[1] < pos[2] {
			saw12 = true
		} else {
			saw21 = true
		}
	}
	if !saw12 || !saw21 {
		t.Fatalf("random topological order never varied: saw12=%v saw21=%v", saw12, saw21)
	}
}

func TestIsTopologicalOrderRejects(t *testing.T) {
	g := diamond(t)
	cases := [][]int{
		{3, 1, 2, 0},    // reversed
		{0, 1, 2},       // short
		{0, 1, 2, 2},    // repeat
		{0, 1, 2, 4},    // out of range
		{1, 0, 2, 3},    // violates 0->1
		{0, 1, 3, 2},    // violates 2->3
		{0, -1, 2, 3},   // negative
		{0, 1, 2, 3, 3}, // long
	}
	for _, c := range cases {
		if g.IsTopologicalOrder(c) {
			t.Errorf("accepted invalid order %v", c)
		}
	}
	if !g.IsTopologicalOrder([]int{0, 2, 1, 3}) {
		t.Error("rejected valid order")
	}
}

func TestLevels(t *testing.T) {
	g := diamond(t)
	levels := g.Levels()
	want := [][]int{{0}, {1, 2}, {3}}
	if len(levels) != len(want) {
		t.Fatalf("got %d levels, want %d", len(levels), len(want))
	}
	for i := range want {
		if len(levels[i]) != len(want[i]) {
			t.Fatalf("level %d = %v, want %v", i, levels[i], want[i])
		}
		for j := range want[i] {
			if levels[i][j] != want[i][j] {
				t.Fatalf("level %d = %v, want %v", i, levels[i], want[i])
			}
		}
	}
	if g.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", g.Depth())
	}
}

func TestLevelsLongestPath(t *testing.T) {
	// 0->1->2 and 0->2 directly: node 2 must sit at level 2, not 1.
	b := NewBuilder(3)
	b.MustAddEdge(0, 1, 0)
	b.MustAddEdge(1, 2, 0)
	b.MustAddEdge(0, 2, 0)
	g := b.MustBuild()
	levels := g.Levels()
	if len(levels) != 3 || levels[2][0] != 2 {
		t.Fatalf("levels = %v, want node 2 at depth 2", levels)
	}
}

func TestTransitiveClosure(t *testing.T) {
	g := diamond(t)
	c := g.TransitiveClosure()
	reach := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 3}, {2, 3}}
	for _, p := range reach {
		if !c.Reachable(p[0], p[1]) {
			t.Errorf("Reachable(%d,%d) = false", p[0], p[1])
		}
		if c.Reachable(p[1], p[0]) {
			t.Errorf("Reachable(%d,%d) = true (backwards)", p[1], p[0])
		}
	}
	if !c.Independent(1, 2) || c.Independent(0, 3) || c.Independent(1, 1) {
		t.Error("Independence answers wrong")
	}
}

func TestClosureMatchesDFS(t *testing.T) {
	r := rng.New(21)
	for trial := 0; trial < 20; trial++ {
		g := randomDAG(r, 2+r.Intn(70), 0.15)
		c := g.TransitiveClosure()
		// Reference reachability by DFS from each node.
		for u := 0; u < g.N(); u++ {
			seen := make([]bool, g.N())
			stack := []int{u}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, a := range g.Successors(v) {
					if !seen[a.To] {
						seen[a.To] = true
						stack = append(stack, a.To)
					}
				}
			}
			for v := 0; v < g.N(); v++ {
				if v == u {
					continue
				}
				if seen[v] != c.Reachable(u, v) {
					t.Fatalf("closure mismatch %d->%d: dfs=%v closure=%v", u, v, seen[v], c.Reachable(u, v))
				}
			}
		}
	}
}

func TestDescendants(t *testing.T) {
	g := diamond(t)
	c := g.TransitiveClosure()
	d := c.Descendants(0)
	if len(d) != 3 || d[0] != 1 || d[1] != 2 || d[2] != 3 {
		t.Fatalf("Descendants(0) = %v", d)
	}
	if len(c.Descendants(3)) != 0 {
		t.Fatalf("Descendants(3) = %v, want empty", c.Descendants(3))
	}
}

func TestClosureLargeBitsetBoundary(t *testing.T) {
	// 130 nodes spans three 64-bit words; chain graph checks word boundaries.
	n := 130
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.MustAddEdge(i, i+1, 0)
	}
	c := b.MustBuild().TransitiveClosure()
	if !c.Reachable(0, n-1) || !c.Reachable(63, 64) || !c.Reachable(127, 128) {
		t.Fatal("chain reachability across word boundaries failed")
	}
	if got := len(c.Descendants(0)); got != n-1 {
		t.Fatalf("Descendants(0) size = %d, want %d", got, n-1)
	}
}

func TestWithExtraEdges(t *testing.T) {
	g := diamond(t)
	g2, err := g.WithExtraEdges([]Edge{{1, 2, 0}})
	if err != nil {
		t.Fatalf("WithExtraEdges: %v", err)
	}
	if !g2.HasEdge(1, 2) || g2.EdgeCount() != 5 {
		t.Fatal("extra edge missing")
	}
	if !g.HasEdge(0, 1) || g.EdgeCount() != 4 {
		t.Fatal("original graph mutated")
	}
	if _, err := g.WithExtraEdges([]Edge{{3, 0, 0}}); err == nil {
		t.Fatal("cycle-creating extra edge accepted")
	}
	if _, err := g.WithExtraEdges([]Edge{{0, 1, 0}}); err == nil {
		t.Fatal("duplicate extra edge accepted")
	}
}

func TestDot(t *testing.T) {
	g := diamond(t)
	dot := g.Dot("fig1")
	for _, want := range []string{"digraph \"fig1\"", "n0 -> n1", "n2 -> n3", "label=\"4\""} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot output missing %q:\n%s", want, dot)
		}
	}
}

func TestQuickRandomDAGInvariants(t *testing.T) {
	r := rng.New(33)
	check := func(nRaw uint8, pRaw uint8) bool {
		n := int(nRaw%60) + 1
		p := float64(pRaw%100) / 100
		g := randomDAG(r, n, p)
		order := g.TopologicalOrder()
		if !g.IsTopologicalOrder(order) {
			return false
		}
		// Entry/exit consistency with degrees.
		for _, e := range g.Entries() {
			if g.InDegree(e) != 0 {
				return false
			}
		}
		for _, e := range g.Exits() {
			if g.OutDegree(e) != 0 {
				return false
			}
		}
		// Levels partition all nodes.
		total := 0
		for _, lv := range g.Levels() {
			total += len(lv)
		}
		return total == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTransitiveClosure(b *testing.B) {
	r := rng.New(1)
	g := randomDAG(r, 100, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.TransitiveClosure()
	}
}

func BenchmarkRandomTopologicalOrder(b *testing.B) {
	r := rng.New(1)
	g := randomDAG(r, 100, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RandomTopologicalOrder(r)
	}
}
