package dag

import "math/bits"

// Closure is a precomputed transitive closure supporting O(1) reachability
// and independence queries. Two tasks are independent when neither reaches
// the other; Corollary 3.5 of the paper states that the makespan is immune
// to simultaneous delays, each within its own slack, on any set of pairwise
// independent tasks of the disjunctive graph.
type Closure struct {
	words int
	bits  []uint64 // row-major: bits[v*words ...] = set of nodes reachable from v
}

// TransitiveClosure computes the closure of g with a bitset DP over the
// reverse topological order, O(V*E/64).
func (g *Graph) TransitiveClosure() *Closure {
	words := (g.n + 63) / 64
	c := &Closure{words: words, bits: make([]uint64, g.n*words)}
	for i := len(g.topo) - 1; i >= 0; i-- {
		v := g.topo[i]
		row := c.bits[v*words : (v+1)*words]
		for _, a := range g.succ[v] {
			row[a.To/64] |= 1 << (uint(a.To) % 64)
			child := c.bits[a.To*words : (a.To+1)*words]
			for w := range row {
				row[w] |= child[w]
			}
		}
	}
	return c
}

// Reachable reports whether there is a directed path from u to v (u != v).
func (c *Closure) Reachable(u, v int) bool {
	return c.bits[u*c.words+v/64]&(1<<(uint(v)%64)) != 0
}

// Independent reports whether u and v are distinct and neither reaches the
// other.
func (c *Closure) Independent(u, v int) bool {
	return u != v && !c.Reachable(u, v) && !c.Reachable(v, u)
}

// Descendants returns the nodes reachable from v, in increasing order.
func (c *Closure) Descendants(v int) []int {
	var out []int
	row := c.bits[v*c.words : (v+1)*c.words]
	for w, word := range row {
		for word != 0 {
			idx := w*64 + bits.TrailingZeros64(word)
			out = append(out, idx)
			word &= word - 1
		}
	}
	return out
}
