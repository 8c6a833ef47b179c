// Package robust implements the paper's contribution: the bi-objective
// genetic algorithm of Section 4 that schedules a DAG onto heterogeneous
// processors to maximize robustness (average slack) subject to the
// ε-constraint M0(s) <= ε·M_HEFT, together with the two single-objective
// modes (minimize makespan / maximize slack) used by the Fig. 2 and Fig. 3
// experiments.
package robust

import (
	"fmt"
	"slices"
	"sync"

	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// Chromosome is the GA encoding of Section 4.2.1: a scheduling string (a
// topological order of the task graph giving the global execution order)
// plus the task→processor assignment. The per-processor assignment strings
// of the paper are recovered by filtering the scheduling string by
// processor, which is exactly how the paper's mutation operator re-inserts
// tasks ("keeping the relative order of all the tasks assigned on that
// processor according to the scheduling string").
type Chromosome struct {
	Order []int // scheduling string: a topological order of the tasks
	Proc  []int // assignment: processor of each task (indexed by task id)

	// metr memoizes the fitness-relevant metrics triple: the only thing the
	// GA reads of a chromosome's schedule. It is populated either by the
	// metrics-only decode (schedule.Decoder.MetricsUpTo), which never
	// builds the schedule, or — via the run's MetricsCache, which holds
	// triples computed at the same bound — without computing anything,
	// which is what makes re-evaluations and genotype-duplicate
	// individuals free. One run fills it, so an M0-only triple always has
	// M0 above that run's bound (see evaluator.upTo). Code that needs the
	// full schedule decodes it on demand (Decode).
	metr    schedMetrics
	hasMetr bool
}

// NewChromosome wraps the given order and assignment without copying.
func NewChromosome(order, proc []int) *Chromosome {
	return &Chromosome{Order: order, Proc: proc}
}

// Random generates a valid chromosome uniformly: a random topological order
// and independent uniform processor choices (Section 4.2.2).
func Random(w *platform.Workload, r *rng.Source) *Chromosome {
	order := w.G.RandomTopologicalOrder(r)
	proc := make([]int, w.N())
	for i := range proc {
		proc[i] = r.Intn(w.M())
	}
	return NewChromosome(order, proc)
}

// FromSchedule encodes an existing schedule (e.g. HEFT's) as a chromosome,
// used to seed the initial population.
func FromSchedule(s *schedule.Schedule) *Chromosome {
	c := NewChromosome(s.Order(), s.ProcAssignment())
	c.metr = metricsFromSchedule(s)
	c.hasMetr = true
	return c
}

// Clone returns a deep copy without the memoized metrics. Order and Proc
// share one backing array (carved with full-capacity subslices, so neither
// can grow into the other) — one allocation instead of two.
func (c *Chromosome) Clone() *Chromosome { return c.cloneInto(nil) }

// cloneInto is Clone into dst, a chromosome nothing refers to any more,
// overwriting its genes in place when its buffers are large enough; a nil
// dst gets a new chromosome, a too small one new buffers.
func (c *Chromosome) cloneInto(dst *Chromosome) *Chromosome {
	n, p := len(c.Order), len(c.Proc)
	if dst == nil {
		dst = new(Chromosome)
	}
	if cap(dst.Order) < n || cap(dst.Proc) < p {
		buf := make([]int, n+p)
		dst.Order, dst.Proc = buf[:n:n], buf[n:]
	}
	*dst = Chromosome{Order: dst.Order[:n], Proc: dst.Proc[:p]}
	copy(dst.Order, c.Order)
	copy(dst.Proc, c.Proc)
	return dst
}

// keyBase is the odd weight base of the genotype hash; keyGene biases
// every gene by one so task/processor 0 still contributes to its
// position's term.
const keyBase = 0x9e3779b97f4a7c15

func keyGene(v int) uint64 { return uint64(uint32(v)) + 1 }

// mixKey is the 64-bit murmur3 finalizer, which finishes every key: the
// raw hash is additive and position-weighted, and the avalanche spreads
// low-entropy genotypes over all 64 bits.
func mixKey(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Key fingerprints the genotype for the GA's initial-population uniqueness
// check and its diversity gauge (ga.Config.Key): the avalanched form of the
// position-weighted polynomial Σ keyGene(g_i)·keyBase^i over the order
// genes (positions 0..n-1) then the proc genes (positions n..2n-1). It is
// a pure function of the genes, computed afresh on every call and never
// written to the chromosome, so islands may key a shared migrant
// concurrently. Equal genotypes always collide by construction; a
// collision between distinct genotypes is benign — the GA redraws one
// "duplicate" random individual. The metrics cache does not use it: its
// key is the packed genotype itself (pack).
func (c *Chromosome) Key() uint64 {
	raw, pow := uint64(0), uint64(1)
	for _, v := range c.Order {
		raw += keyGene(v) * pow
		pow *= keyBase
	}
	for _, v := range c.Proc {
		raw += keyGene(v) * pow
		pow *= keyBase
	}
	return mixKey(raw)
}

// Genes returns independent copies of the genotype's order and assignment
// strings. Serializers that outlive the chromosome use it instead of
// aliasing Order/Proc, so a frozen copy can never observe a slice some later
// consumer re-wraps.
func (c *Chromosome) Genes() (order, proc []int) {
	order = append([]int(nil), c.Order...)
	proc = append([]int(nil), c.Proc...)
	return order, proc
}

// Decode builds a new schedule the chromosome represents, which the caller
// owns. Operators maintain the invariant that Order is a topological order;
// malformed genotypes (non-permutations, out-of-range processors,
// precedence inversions) are still rejected with an error.
func (c *Chromosome) Decode(w *platform.Workload) (*schedule.Schedule, error) {
	s, err := schedule.FromOrder(w, c.Order, c.Proc)
	if err != nil {
		return nil, fmt.Errorf("robust: invalid chromosome: %w", err)
	}
	return s, nil
}

// metrics computes the metrics triple of the schedule the chromosome
// represents without building it, rejecting the genotypes Decode rejects.
// The slacks are computed only when M0 <= upTo; otherwise they are NaN
// (schedule.Decoder.MetricsUpTo), and the triple is M0-only.
func (c *Chromosome) metrics(d *schedule.Decoder, upTo float64) (schedMetrics, error) {
	m0, avgSlack, minSlack, _, err := d.MetricsUpTo(c.Order, c.Proc, upTo)
	if err != nil {
		return schedMetrics{}, fmt.Errorf("robust: invalid chromosome: %w", err)
	}
	return schedMetrics{m0: m0, avgSlack: avgSlack, minSlack: minSlack}, nil
}

// Crossover implements the paper's single-point operator (Section 4.2.5).
//
// Scheduling strings: a random cut splits both parents; each child keeps
// its own left part and reorders its right-part tasks by their relative
// order in the other parent. Because both parents are topological orders,
// the children are too: a precedence u→v with u left / v right is trivially
// respected, both-left keeps the parent's order, and both-right inherits
// the other parent's (topological) relative order.
//
// Assignment strings: each parent's assignment is viewed as a processor
// string indexed by task; a second random cut exchanges the right parts.
//
// Both children are new chromosomes without a metrics memo, even when one
// has a parent's genes.
func Crossover(a, b *Chromosome, r *rng.Source) (*Chromosome, *Chromosome) {
	c1, c2 := crossoverInto(nil, a, b, r)
	if c1 == a || c1 == b {
		c1 = c1.Clone()
	}
	if c2 == a || c2 == b {
		c2 = c2.Clone()
	}
	return c1, c2
}

// crossoverInto is the GA's Crossover. It draws the same cuts and computes
// the same genes, but a child with a parent's genes is that parent itself,
// metrics memo included, and only a new child takes a chromosome from free
// (nil allocates). On converged parents most children are parents.
func crossoverInto(free *freeList[Chromosome], a, b *Chromosome, r *rng.Source) (*Chromosome, *Chromosome) {
	n := len(a.Order)
	if n < 2 {
		return a, b
	}
	cut := 1 + r.Intn(n-1)
	pcut := 1 + r.Intn(n-1)
	sameProcTail := slices.Equal(a.Proc[pcut:], b.Proc[pcut:])
	if slices.Equal(a.Order[:cut], b.Order[:cut]) {
		// The tails hold the same tasks, so child 1's order is b's and
		// child 2's is a's. The children are (b, a) when the processors
		// agree before pcut, (a, b) when the orders are equal and the
		// processors agree from pcut on, and new otherwise.
		switch {
		case slices.Equal(a.Proc[:pcut], b.Proc[:pcut]):
			return b, a
		case sameProcTail && slices.Equal(a.Order[cut:], b.Order[cut:]):
			return a, b
		}
	}
	sc := getOpScratch(n)
	defer putOpScratch(sc)
	return crossChild(free, a, b, cut, pcut, sameProcTail, sc), crossChild(free, b, a, cut, pcut, sameProcTail, sc)
}

// crossChild returns the child of p that keeps p.Order[:cut] and
// p.Proc[:pcut], reorders the rest of its order by q.Order and takes
// q.Proc[pcut:]: p itself when that is p's genotype (sameProcTail says
// whether p and q agree from pcut on), otherwise a chromosome from free.
func crossChild(free *freeList[Chromosome], p, q *Chromosome, cut, pcut int, sameProcTail bool, sc *opScratch) *Chromosome {
	tail := sc.pos[cut:len(p.Order)]
	reorderTail(tail, p.Order[cut:], q.Order, sc.mark)
	if sameProcTail && slices.Equal(tail, p.Order[cut:]) {
		return p
	}
	c := p.cloneInto(free.get())
	copy(c.Order[cut:], tail)
	copy(c.Proc[pcut:], q.Proc[pcut:])
	return c
}

// reorderTail writes the tasks of tail into dst (len(tail)) in the relative
// order they have in ref. It scans ref from its end, placing each task of
// tail from the back of dst, and stops once all are placed: in a converged
// population a tail's tasks sit at ref's end. mark must be an all-false
// slice of at least len(ref) entries; each mark is cleared as its task is
// placed, so mark is all-false again on return.
func reorderTail(dst, tail, ref []int, mark []bool) {
	for _, v := range tail {
		mark[v] = true
	}
	j := len(dst) - 1
	for i := len(ref) - 1; j >= 0; i-- {
		if v := ref[i]; mark[v] {
			mark[v] = false
			dst[j] = v
			j--
		}
	}
}

// opScratch pools the operators' working buffers: pos holds Mutate's
// position index, or the reordered tail a crossover child is compared with
// before it takes a chromosome, and mark is kept all-false between uses.
type opScratch struct {
	pos  []int
	mark []bool
}

var opPool = sync.Pool{New: func() any { return new(opScratch) }}

func getOpScratch(n int) *opScratch {
	sc := opPool.Get().(*opScratch)
	if cap(sc.pos) < n {
		sc.pos = make([]int, n)
		sc.mark = make([]bool, n)
	}
	return sc
}

func putOpScratch(sc *opScratch) { opPool.Put(sc) }

// Mutate implements the paper's operator (Section 4.2.6): a random task v
// is moved to a uniformly random position within its feasible range in the
// scheduling string — strictly after the last of its immediate predecessors
// and strictly before the first of its immediate successors — and then
// reassigned to a uniformly random processor.
func Mutate(w *platform.Workload, c *Chromosome, r *rng.Source) *Chromosome {
	return mutateInto(nil, w, c, r)
}

// mutateInto is Mutate writing the mutant into dst, a chromosome nothing
// refers to any more (or nil).
func mutateInto(dst *Chromosome, w *platform.Workload, c *Chromosome, r *rng.Source) *Chromosome {
	out := c.cloneInto(dst)
	n := len(out.Order)
	v := r.Intn(n)
	sc := getOpScratch(n)
	defer putOpScratch(sc)
	pos := sc.pos[:n]
	for i, t := range out.Order {
		pos[t] = i
	}
	lo := 0 // first feasible index for v
	for _, a := range w.G.Predecessors(v) {
		if p := pos[a.To] + 1; p > lo {
			lo = p
		}
	}
	hi := n - 1 // last feasible index for v
	for _, a := range w.G.Successors(v) {
		if p := pos[a.To] - 1; p < hi {
			hi = p
		}
	}
	to := lo + r.Intn(hi-lo+1)
	moveWithin(out.Order, pos[v], to)
	out.Proc[v] = r.Intn(w.M())
	return out
}

// moveWithin moves the element at index from to index to, shifting the
// elements in between.
func moveWithin(xs []int, from, to int) {
	v := xs[from]
	switch {
	case from < to:
		copy(xs[from:to], xs[from+1:to+1])
	case from > to:
		copy(xs[to+1:from+1], xs[to:from])
	}
	xs[to] = v
}
