// Package dag implements the directed-acyclic task-graph model used by the
// robust scheduling problem (Section 3.1 of the paper).
//
// A task graph G = (V, E) has n task nodes and directed edges that carry the
// amount of data transferred between dependent tasks (the matrix D in the
// paper). The package provides construction with full validation, canonical
// and random topological orders, level decomposition, transitive closure for
// independence queries (needed by Corollary 3.5), and Graphviz export.
//
// Graphs are immutable after Build, which makes them safe to share across
// the goroutines that fan out Monte-Carlo realizations.
package dag

import (
	"fmt"
	"math"
	"sort"
)

// Arc is one directed edge endpoint as seen from a node's adjacency list.
type Arc struct {
	// To is the neighbouring node: the successor when the Arc comes from
	// Successors, the predecessor when it comes from Predecessors.
	To int
	// Data is the amount of data transferred along the edge (d_ij).
	Data float64
}

// Edge is a fully specified directed edge.
type Edge struct {
	From, To int
	Data     float64
}

// Graph is an immutable directed acyclic task graph.
type Graph struct {
	n     int
	succ  [][]Arc
	pred  [][]Arc
	topo  []int
	edges int
}

// Builder accumulates nodes and edges and validates them into a Graph.
type Builder struct {
	n     int
	edges []Edge
	seen  map[[2]int]bool
}

// NewBuilder returns a Builder for a graph with n nodes, identified 0..n-1.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, seen: make(map[[2]int]bool)}
}

// AddEdge records a directed edge from -> to carrying data units of
// communication. It returns an error for out-of-range endpoints, self loops,
// duplicate edges, or data sizes that are negative, NaN or infinite.
func (b *Builder) AddEdge(from, to int, data float64) error {
	switch {
	case from < 0 || from >= b.n:
		return fmt.Errorf("dag: edge source %d out of range [0,%d)", from, b.n)
	case to < 0 || to >= b.n:
		return fmt.Errorf("dag: edge target %d out of range [0,%d)", to, b.n)
	case from == to:
		return fmt.Errorf("dag: self loop on node %d", from)
	case !(data >= 0) || math.IsInf(data, 1):
		return fmt.Errorf("dag: data size %g on edge %d->%d is not finite and non-negative", data, from, to)
	}
	key := [2]int{from, to}
	if b.seen[key] {
		return fmt.Errorf("dag: duplicate edge %d->%d", from, to)
	}
	b.seen[key] = true
	b.edges = append(b.edges, Edge{from, to, data})
	return nil
}

// MustAddEdge is AddEdge but panics on error; intended for hand-built fixed
// graphs whose shape is known at compile time.
func (b *Builder) MustAddEdge(from, to int, data float64) {
	if err := b.AddEdge(from, to, data); err != nil {
		panic(err)
	}
}

// Build validates acyclicity and returns the immutable Graph.
func (b *Builder) Build() (*Graph, error) {
	if b.n <= 0 {
		return nil, fmt.Errorf("dag: graph must have at least one node, got %d", b.n)
	}
	g := &Graph{
		n:     b.n,
		succ:  make([][]Arc, b.n),
		pred:  make([][]Arc, b.n),
		edges: len(b.edges),
	}
	for _, e := range b.edges {
		g.succ[e.From] = append(g.succ[e.From], Arc{e.To, e.Data})
		g.pred[e.To] = append(g.pred[e.To], Arc{e.From, e.Data})
	}
	// Keep adjacency deterministic regardless of insertion order.
	for i := 0; i < g.n; i++ {
		sort.Slice(g.succ[i], func(a, b int) bool { return g.succ[i][a].To < g.succ[i][b].To })
		sort.Slice(g.pred[i], func(a, b int) bool { return g.pred[i][a].To < g.pred[i][b].To })
	}
	topo, err := kahn(g.n, g.succ, g.pred, nil)
	if err != nil {
		return nil, err
	}
	g.topo = topo
	return g, nil
}

// MustBuild is Build but panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// kahn runs Kahn's algorithm over the combined succ adjacency plus optional
// extra edges, always popping the smallest ready node so the order is
// canonical. It reports an error containing the cycle size if the graph is
// not acyclic.
func kahn(n int, succ [][]Arc, pred [][]Arc, extra [][]int) ([]int, error) {
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(pred[v])
	}
	for _, tails := range extra {
		for _, to := range tails {
			indeg[to]++
		}
	}
	// Min-heap over ready nodes keeps the order canonical.
	heap := make([]int, 0, n)
	push := func(v int) {
		heap = append(heap, v)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p] <= heap[i] {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() int {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < last && heap[l] < heap[small] {
				small = l
			}
			if r < last && heap[r] < heap[small] {
				small = r
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
		return top
	}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			push(v)
		}
	}
	order := make([]int, 0, n)
	for len(heap) > 0 {
		v := pop()
		order = append(order, v)
		for _, a := range succ[v] {
			indeg[a.To]--
			if indeg[a.To] == 0 {
				push(a.To)
			}
		}
		if extra != nil {
			for _, to := range extra[v] {
				indeg[to]--
				if indeg[to] == 0 {
					push(to)
				}
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dag: graph contains a cycle involving %d node(s)", n-len(order))
	}
	return order, nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int { return g.edges }

// Successors returns the outgoing arcs of v. The caller must not modify it.
func (g *Graph) Successors(v int) []Arc { return g.succ[v] }

// Predecessors returns the incoming arcs of v (Arc.To is the predecessor).
// The caller must not modify it.
func (g *Graph) Predecessors(v int) []Arc { return g.pred[v] }

// OutDegree returns the number of immediate successors of v.
func (g *Graph) OutDegree(v int) int { return len(g.succ[v]) }

// InDegree returns the number of immediate predecessors of v.
func (g *Graph) InDegree(v int) int { return len(g.pred[v]) }

// Entries returns the nodes with no predecessors, in increasing order.
func (g *Graph) Entries() []int {
	var out []int
	for v := 0; v < g.n; v++ {
		if len(g.pred[v]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// Exits returns the nodes with no successors, in increasing order.
func (g *Graph) Exits() []int {
	var out []int
	for v := 0; v < g.n; v++ {
		if len(g.succ[v]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// HasEdge reports whether the edge u->v exists.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.Data(u, v)
	return ok
}

// Data returns the data size on edge u->v and whether the edge exists.
func (g *Graph) Data(u, v int) (float64, bool) {
	arcs := g.succ[u]
	lo, hi := 0, len(arcs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case arcs[mid].To < v:
			lo = mid + 1
		case arcs[mid].To > v:
			hi = mid
		default:
			return arcs[mid].Data, true
		}
	}
	return 0, false
}

// Edges returns all edges sorted by (From, To).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for u := 0; u < g.n; u++ {
		for _, a := range g.succ[u] {
			out = append(out, Edge{u, a.To, a.Data})
		}
	}
	return out
}

// TopologicalOrder returns a copy of the canonical topological order.
func (g *Graph) TopologicalOrder() []int {
	out := make([]int, g.n)
	copy(out, g.topo)
	return out
}

// IsTopologicalOrder reports whether perm is a permutation of the nodes that
// respects every precedence constraint.
func (g *Graph) IsTopologicalOrder(perm []int) bool {
	if len(perm) != g.n {
		return false
	}
	pos := make([]int, g.n)
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range perm {
		if v < 0 || v >= g.n || pos[v] != -1 {
			return false
		}
		pos[v] = i
	}
	for u := 0; u < g.n; u++ {
		for _, a := range g.succ[u] {
			if pos[u] > pos[a.To] {
				return false
			}
		}
	}
	return true
}

// RandomTopologicalOrder returns a topological order sampled by running
// Kahn's algorithm with a uniformly random choice among ready nodes. This is
// how the GA generates initial scheduling strings (Section 4.2.2).
type intSource interface{ Intn(int) int }

func (g *Graph) RandomTopologicalOrder(r intSource) []int {
	indeg := make([]int, g.n)
	ready := make([]int, 0, g.n)
	for v := 0; v < g.n; v++ {
		indeg[v] = len(g.pred[v])
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	order := make([]int, 0, g.n)
	for len(ready) > 0 {
		i := r.Intn(len(ready))
		v := ready[i]
		last := len(ready) - 1
		ready[i] = ready[last]
		ready = ready[:last]
		order = append(order, v)
		for _, a := range g.succ[v] {
			indeg[a.To]--
			if indeg[a.To] == 0 {
				ready = append(ready, a.To)
			}
		}
	}
	return order
}

// Levels returns the longest-path layering of the graph: level 0 holds the
// entry nodes and each node sits one past its deepest predecessor. Nodes
// within a level are sorted.
func (g *Graph) Levels() [][]int {
	depth := make([]int, g.n)
	maxDepth := 0
	for _, v := range g.topo {
		for _, a := range g.pred[v] {
			if d := depth[a.To] + 1; d > depth[v] {
				depth[v] = d
			}
		}
		if depth[v] > maxDepth {
			maxDepth = depth[v]
		}
	}
	levels := make([][]int, maxDepth+1)
	for v := 0; v < g.n; v++ {
		levels[depth[v]] = append(levels[depth[v]], v)
	}
	return levels
}

// Depth returns the number of levels in the longest-path layering.
func (g *Graph) Depth() int { return len(g.Levels()) }

// WithExtraEdges returns a new Graph equal to g plus the given zero-data
// edges, or an error if an extra edge duplicates an existing one or creates
// a cycle. Definition 3.1's disjunctive graph G_s is built this way.
func (g *Graph) WithExtraEdges(extra []Edge) (*Graph, error) {
	b := NewBuilder(g.n)
	for _, e := range g.Edges() {
		if err := b.AddEdge(e.From, e.To, e.Data); err != nil {
			return nil, err
		}
	}
	for _, e := range extra {
		if err := b.AddEdge(e.From, e.To, e.Data); err != nil {
			return nil, err
		}
	}
	return b.Build()
}
