package heft

import (
	"math"

	"robsched/internal/platform"
	"robsched/internal/schedule"
)

// PEFT schedules the workload with the Predict Earliest Finish Time
// heuristic (Arabnejad & Barbosa, IEEE TPDS 2014), the best-known
// successor to HEFT. It precomputes an optimistic cost table (OCT):
//
//	OCT(v, p) = max over successors s of
//	            min over processors q of
//	            [ OCT(s, q) + w(s, q) + (p == q ? 0 : mean comm(v→s)) ]
//
// — the optimistic remaining time to finish if v runs on p. Tasks are
// ranked by their mean OCT row; each is placed on the processor minimizing
// the *predicted* EFT: the insertion-based EFT plus OCT(v, p), so the
// placement looks one hop ahead instead of being purely greedy.
func PEFT(w *platform.Workload, opts Options) (*schedule.Schedule, error) {
	oct := OptimisticCostTable(w)
	n, m := w.N(), w.M()
	// Rank = mean OCT across processors.
	rank := make([]float64, n)
	for v := 0; v < n; v++ {
		sum := 0.0
		for p := 0; p < m; p++ {
			sum += oct.At(v, p)
		}
		rank[v] = sum / float64(m)
	}
	// Ready-list scheduling in decreasing rank order with the
	// OCT-augmented processor choice.
	return scheduleByList(w, readyOrder(w, rank), opts, nil, -1, oct)
}

// OptimisticCostTable computes PEFT's OCT matrix (n×m): zero for exit
// tasks, otherwise the optimistic remaining completion time after v on p.
func OptimisticCostTable(w *platform.Workload) platform.Matrix {
	n, m := w.N(), w.M()
	oct := platform.NewMatrix(n, m)
	topo := w.G.TopologicalOrder()
	for i := n - 1; i >= 0; i-- {
		v := topo[i]
		for p := 0; p < m; p++ {
			worst := 0.0
			for _, a := range w.G.Successors(v) {
				s := a.To
				best := math.Inf(1)
				for q := 0; q < m; q++ {
					c := oct.At(s, q) + w.ExpectedAt(s, q)
					if p != q {
						c += w.Sys.MeanCommCost(a.Data)
					}
					if c < best {
						best = c
					}
				}
				if best > worst {
					worst = best
				}
			}
			oct.Set(v, p, worst)
		}
	}
	return oct
}
