package schedule

import (
	"math"
	"testing"

	"robsched/internal/gen"
	"robsched/internal/platform"
	"robsched/internal/rng"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// pullTriple is an oracle for the expected-duration analysis that shares
// none of its passes: it reads each task's expected duration off the
// workload, runs the pull-style realized-duration passes (SlackWith) over
// them, requires every per-task slack to equal s.Slack(v) bit for bit, and
// returns the makespan with the slack average (summed in task-id order,
// Eqn. 3) and minimum.
func pullTriple(t *testing.T, ctx string, w *platform.Workload, s *Schedule) (m0, avg, lowest float64) {
	t.Helper()
	n := w.N()
	dur := make([]float64, n)
	for v := range dur {
		dur[v] = w.ExpectedAt(v, s.Proc(v))
	}
	slack, m0 := s.SlackWith(dur)
	sum := 0.0
	for v, sl := range slack {
		if !sameBits(sl, s.Slack(v)) {
			t.Fatalf("%s: slack of task %d is %v, the pull-style passes give %v", ctx, v, s.Slack(v), sl)
		}
		sum += sl
		if v == 0 || sl < lowest {
			lowest = sl
		}
	}
	return m0, sum / float64(n), lowest
}

// crowdedProc assigns every task to one of two random processors, so that
// most consecutive same-processor pairs are also data edges: the duplicate
// arcs the metrics kernel counts once more than the schedule does.
func crowdedProc(r *rng.Source, n, m int) []int {
	a, b := r.Intn(m), r.Intn(m)
	proc := make([]int, n)
	for v := range proc {
		proc[v] = a
		if r.Intn(2) == 1 {
			proc[v] = b
		}
	}
	return proc
}

// TestMetricsMatchDecode: on paper workloads (n=100, m=8) at CCR 0.1, 1 and
// 10 and on small random ones (m down to 1), the metrics kernel's triple
// equals the decoded schedule's Makespan, AvgSlack and MinSlack and the
// pull-style oracle's triple, bit for bit. Chromosomes are random
// topological orders with uniform or crowded assignments, each followed by
// a chain of operator-like children.
func TestMetricsMatchDecode(t *testing.T) {
	var s Schedule
	check := func(ctx string, w *platform.Workload, dec *Decoder, order, proc []int) {
		t.Helper()
		m0, avg, lowest, err := dec.Metrics(order, proc)
		if err != nil {
			t.Fatalf("%s: Metrics: %v", ctx, err)
		}
		if err := dec.DecodeInto(&s, order, proc); err != nil {
			t.Fatalf("%s: DecodeInto: %v", ctx, err)
		}
		if !sameBits(m0, s.Makespan()) || !sameBits(avg, s.AvgSlack()) || !sameBits(lowest, s.MinSlack()) {
			t.Fatalf("%s: Metrics gives (%v, %v, %v), DecodeInto (%v, %v, %v)", ctx,
				m0, avg, lowest, s.Makespan(), s.AvgSlack(), s.MinSlack())
		}
		rm0, ravg, rlow := pullTriple(t, ctx, w, &s)
		if !sameBits(m0, rm0) || !sameBits(avg, ravg) || !sameBits(lowest, rlow) {
			t.Fatalf("%s: Metrics gives (%v, %v, %v), the pull-style passes (%v, %v, %v)", ctx,
				m0, avg, lowest, rm0, ravg, rlow)
		}
	}
	run := func(ctx string, w *platform.Workload, r *rng.Source, chromosomes int) {
		dec := NewDecoder(w)
		n, m := w.N(), w.M()
		for c := 0; c < chromosomes; c++ {
			order := w.G.RandomTopologicalOrder(r)
			var proc []int
			if c%2 == 1 {
				proc = crowdedProc(r, n, m)
			} else {
				proc = make([]int, n)
				for v := range proc {
					proc[v] = r.Intn(m)
				}
			}
			check(ctx, w, dec, order, proc)
			for k := 0; k < 3; k++ {
				order, proc = deriveChild(r, w, order, proc)
				check(ctx, w, dec, order, proc)
			}
		}
	}
	r := rng.New(53)
	for _, ccr := range []float64{0.1, 1, 10} {
		for g := 0; g < 4; g++ {
			p := gen.PaperParams()
			p.CCR = ccr
			w, err := gen.Random(p, r.Split())
			if err != nil {
				t.Fatal(err)
			}
			run("paper workload", w, r, 30)
		}
	}
	for trial := 0; trial < 40; trial++ {
		run("random workload", randomWorkload(t, r, 2+r.Intn(40), 1+r.Intn(5)), r, 5)
	}
}

// TestExpectedAnalysisMatchesRealizedPasses: the push-style expected
// analysis every constructor runs agrees with the pull-style passes the
// Monte-Carlo realizations use — MakespanWith and SlackWith over the
// schedule's own expected durations reproduce Makespan and every Slack(v)
// bit for bit — for schedules decoded from a scheduling string and for
// schedules New builds from per-processor lists, whose analysis runs over
// a Kahn order instead.
func TestExpectedAnalysisMatchesRealizedPasses(t *testing.T) {
	r := rng.New(59)
	for trial := 0; trial < 60; trial++ {
		w := randomWorkload(t, r, 2+r.Intn(50), 1+r.Intn(5))
		n, m := w.N(), w.M()
		order := w.G.RandomTopologicalOrder(r)
		proc := crowdedProc(r, n, m)
		if trial%2 == 0 {
			for v := range proc {
				proc[v] = r.Intn(m)
			}
		}
		decoded, err := FromOrder(w, order, proc)
		if err != nil {
			t.Fatal(err)
		}
		lists := make([][]int, m)
		for p := range lists {
			lists[p] = decoded.ProcOrder(p)
		}
		built, err := New(w, proc, lists)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]*Schedule{"FromOrder": decoded, "New": built} {
			dur := s.ExpectedDurations()
			if got := s.MakespanWith(dur); !sameBits(got, s.Makespan()) {
				t.Fatalf("%s: MakespanWith(ExpectedDurations()) = %v, Makespan() = %v", name, got, s.Makespan())
			}
			slack, ms := s.SlackWith(dur)
			if !sameBits(ms, s.Makespan()) {
				t.Fatalf("%s: SlackWith makespan %v, Makespan() %v", name, ms, s.Makespan())
			}
			for v, sl := range slack {
				if !sameBits(sl, s.Slack(v)) {
					t.Fatalf("%s: task %d: SlackWith gives %v, Slack(v) %v", name, v, sl, s.Slack(v))
				}
			}
		}
		if !sameBits(built.Makespan(), decoded.Makespan()) || !sameBits(built.AvgSlack(), decoded.AvgSlack()) {
			t.Fatalf("New and FromOrder disagree on the same processor orders")
		}
	}
}

// TestMetricsRejectsLikeDecode: on the malformed chromosomes of every kind
// DecodeInto rejects, Metrics fails with the same error.
func TestMetricsRejectsLikeDecode(t *testing.T) {
	r := rng.New(61)
	w := randomWorkload(t, r, 12, 3)
	dec := NewDecoder(w)
	order := w.G.RandomTopologicalOrder(r)
	proc := make([]int, w.N())
	e, ok := anyEdge(w)
	if !ok {
		t.Fatal("workload has no edge")
	}
	inverted := append([]int(nil), order...)
	i, j := indexOf(inverted, e[0]), indexOf(inverted, e[1])
	inverted[i], inverted[j] = inverted[j], inverted[i]
	cases := map[string][2][]int{
		"short order":     {order[1:], proc},
		"short proc":      {order, proc[1:]},
		"repeated task":   {append([]int{order[1]}, order[1:]...), proc},
		"task range":      {append(append([]int(nil), order[1:]...), w.N()), proc},
		"processor range": {order, append(append([]int(nil), proc[1:]...), w.M())},
		"inversion":       {inverted, proc},
	}
	var s Schedule
	for name, c := range cases {
		derr := dec.DecodeInto(&s, c[0], c[1])
		_, _, _, merr := dec.Metrics(c[0], c[1])
		if derr == nil || merr == nil || derr.Error() != merr.Error() {
			t.Fatalf("%s: DecodeInto error %v, Metrics error %v", name, derr, merr)
		}
	}
}

// TestMinSlackIsZero pins a property of the minimum-slack surrogate: every
// schedule has a critical path, whose tasks have Tl + Bl = M0 and so zero
// slack, which makes MinSlack 0 up to rounding on any schedule. Random and
// crowded chromosomes on paper workloads at three CCRs and on small random
// workloads all read |MinSlack| ≤ 1e-9.
func TestMinSlackIsZero(t *testing.T) {
	r := rng.New(67)
	var ws []*platform.Workload
	for _, ccr := range []float64{0.1, 1, 10} {
		p := gen.PaperParams()
		p.CCR = ccr
		w, err := gen.Random(p, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	for trial := 0; trial < 10; trial++ {
		ws = append(ws, randomWorkload(t, r, 2+r.Intn(50), 1+r.Intn(5)))
	}
	for _, w := range ws {
		dec := NewDecoder(w)
		for c := 0; c < 50; c++ {
			order := w.G.RandomTopologicalOrder(r)
			proc := crowdedProc(r, w.N(), w.M())
			if c%2 == 0 {
				for v := range proc {
					proc[v] = r.Intn(w.M())
				}
			}
			_, _, lowest, err := dec.Metrics(order, proc)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(lowest) > 1e-9 {
				t.Fatalf("n=%d m=%d: MinSlack = %v, want 0 up to rounding", w.N(), w.M(), lowest)
			}
		}
	}
}
