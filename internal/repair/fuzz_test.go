package repair

import (
	"math"
	"strings"
	"testing"

	"robsched/internal/dynamic"
	"robsched/internal/fault"
	"robsched/internal/gen"
	"robsched/internal/heft"
	"robsched/internal/rng"
	"robsched/internal/wio"
)

// FuzzExecute drives the fault-aware executor with arbitrary fault
// scenarios and policies: it must never panic, always terminate, never
// place completed work on a dead processor or inside an outage, and keep
// the completion fraction in [0, 1]. Invalid inputs must be rejected with
// an error, not a crash.
func FuzzExecute(f *testing.F) {
	f.Add(uint64(1), `{"procs": 0}`, math.Inf(1), 2, 0.0)
	f.Add(uint64(2), `{"procs": 3, "failures": [{"proc": 0, "at": 10}]}`, 0.05, 1, 0.0)
	f.Add(uint64(3), `{"procs": 2, "outages": [{"proc": 1, "start": 5, "end": 9}]}`, 0.0, 3, 2.0)
	f.Add(uint64(4), `{"procs": 2, "slowdowns": [{"proc": 0, "start": 0, "end": 50, "factor": 4}]}`, math.Inf(1), 0, 1.5)
	f.Add(uint64(5), `{"procs": 1, "failures": [{"proc": 0, "at": 0}]}`, math.Inf(1), 2, 3.0)
	f.Add(uint64(6), `not json`, -1.0, -2, -0.5)
	f.Fuzz(func(t *testing.T, seed uint64, scenarioDoc string, threshold float64, retries int, drop float64) {
		p := gen.PaperParams()
		p.N = 5 + int(seed%8)
		p.M = 1 + int(seed%4)
		p.MeanUL = 1 + float64(seed%5)
		w, err := gen.Random(p, rng.New(seed))
		if err != nil {
			return
		}
		s, err := heft.HEFT(w, heft.Options{})
		if err != nil {
			return
		}
		durs := dynamic.RealizeMatrix(w, rng.New(seed+1))
		sc, err := wio.ReadScenario(strings.NewReader(scenarioDoc))
		if err != nil {
			sc = fault.None()
		}
		pol := FaultPolicy{
			Policy:     Policy{Threshold: threshold},
			MaxRetries: retries,
			DropFactor: drop,
		}
		o, err := ExecuteFaults(s, durs, sc, pol)
		if err != nil {
			return // rejected input is fine; panicking or hanging is not
		}
		if o.CompletionFraction < 0 || o.CompletionFraction > 1 {
			t.Fatalf("completion fraction %g out of range", o.CompletionFraction)
		}
		completedCount := 0
		for v := 0; v < w.N(); v++ {
			if !o.Completed[v] {
				continue
			}
			completedCount++
			pr := o.Proc[v]
			if pr < 0 || pr >= w.M() {
				t.Fatalf("task %d on processor %d of %d", v, pr, w.M())
			}
			if !sc.Alive(pr, o.Start[v]) {
				t.Fatalf("task %d started at %g on processor %d, dead by then", v, o.Start[v], pr)
			}
			if got := sc.NextStart(pr, o.Start[v]); got != o.Start[v] {
				t.Fatalf("task %d started inside an outage (start %g, feasible %g)", v, o.Start[v], got)
			}
			for _, a := range w.G.Predecessors(v) {
				if !o.Completed[a.To] {
					t.Fatalf("task %d completed without predecessor %d", v, a.To)
				}
			}
		}
		// Every task is accounted for exactly once: completed, dropped or
		// unfinished.
		if completedCount+len(o.Dropped)+len(o.Unfinished) != w.N() {
			t.Fatalf("%d completed + %d dropped + %d unfinished != %d tasks",
				completedCount, len(o.Dropped), len(o.Unfinished), w.N())
		}
		if o.Failed != (len(o.Unfinished) > 0) {
			t.Fatalf("Failed=%v with %d unfinished", o.Failed, len(o.Unfinished))
		}
	})
}
