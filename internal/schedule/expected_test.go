package schedule

import (
	"math"
	"testing"

	"robsched/internal/gen"
	"robsched/internal/platform"
	"robsched/internal/rng"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// pushAnalysis is the reference for the analysis kernel: the push-form
// expected-duration analysis the kernel replaced. It reads every expected
// duration through Workload.ExpectedAt and every communication cost
// through System.CommCost, and it pushes each finish plus cost forward to
// the arc's target with compare-and-store. It returns the analysis, the
// cost of every succ arc, and the kernel's error for a malformed
// chromosome.
func pushAnalysis(w *platform.Workload, order, proc []int) (*analysis, []float64, error) {
	n, m := w.N(), w.M()
	arcs := tablesFor(w).arcs
	pos := make([]int32, n)
	if err := checkChromosome(n, m, order, proc, pos); err != nil {
		return nil, nil, err
	}
	a := new(analysis)
	a.carve(make([]float64, 5*n), n)
	comm := make([]float64, len(arcs.succTo))
	plast := make([]int32, m)
	for p := range plast {
		plast[p] = -1
	}
	for i, v := range order {
		p := proc[v]
		st := a.start[v]
		if u := plast[p]; u >= 0 {
			if t := a.finish[u]; t > st {
				st = t
			}
		}
		plast[p] = int32(v)
		d := w.ExpectedAt(v, p)
		f := st + d
		a.expDur[v], a.start[v], a.finish[v] = d, st, f
		if f > a.makespan {
			a.makespan = f
		}
		for k := arcs.succOff[v]; k < arcs.succOff[v+1]; k++ {
			to := arcs.succTo[k]
			if pos[to] < int32(i) {
				return nil, nil, errNotTopological
			}
			c := w.Sys.CommCost(p, proc[to], arcs.succData[k])
			comm[k] = c
			if t := f + c; t > a.start[to] {
				a.start[to] = t
			}
		}
	}
	for p := range plast {
		plast[p] = -1
	}
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		best := 0.0
		for k := arcs.succOff[v]; k < arcs.succOff[v+1]; k++ {
			if c := comm[k] + a.bl[arcs.succTo[k]]; c > best {
				best = c
			}
		}
		p := proc[v]
		if u := plast[p]; u >= 0 {
			if c := a.bl[u]; c > best {
				best = c
			}
		}
		plast[p] = int32(v)
		a.bl[v] = a.expDur[v] + best
	}
	a.avgSlack, a.minSlack = slackInto(a.slack, a.makespan, a.start, a.bl)
	return a, comm, nil
}

// samePush fails the test unless the schedule s decoded from (order,
// proc) carries the push-form reference's analysis and communication
// costs, in both CSR directions, bit for bit.
func samePush(t *testing.T, ctx string, w *platform.Workload, order, proc []int, s *Schedule) {
	t.Helper()
	ref, comm, err := pushAnalysis(w, order, proc)
	if err != nil {
		t.Fatalf("%s: reference rejects a decoded chromosome: %v", ctx, err)
	}
	if !sameBits(s.makespan, ref.makespan) || !sameBits(s.avgSlack, ref.avgSlack) || !sameBits(s.minSlack, ref.minSlack) {
		t.Fatalf("%s: schedule gives (%v, %v, %v), the reference (%v, %v, %v)", ctx,
			s.makespan, s.avgSlack, s.minSlack, ref.makespan, ref.avgSlack, ref.minSlack)
	}
	predComm := make([]float64, len(comm))
	for k, j := range s.arcs.sMirror {
		predComm[j] = comm[k]
	}
	for i, pair := range [][2][]float64{
		{s.expDur, ref.expDur}, {s.start, ref.start}, {s.finish, ref.finish}, {s.bl, ref.bl},
		{s.slack, ref.slack}, {s.succComm, comm}, {s.predComm, predComm},
	} {
		for v := range pair[1] {
			if !sameBits(pair[0][v], pair[1][v]) {
				t.Fatalf("%s: vector %d differs at %d: %v, the reference %v", ctx, i, v, pair[0][v], pair[1][v])
			}
		}
	}
}

// sameBounded fails the test unless MetricsUpTo, at bounds below, at and
// above m0 and at ±Inf, agrees with the unbounded result (m0, avg,
// lowest, wantErr): the same error, or M0 bit for bit with the slacks
// exactly when M0 <= bound and NaN otherwise.
func sameBounded(t *testing.T, dec *Decoder, order, proc []int, m0, avg, lowest float64, wantErr error) {
	t.Helper()
	for _, bound := range []float64{math.Inf(-1), 0, math.Nextafter(m0, 0), m0, math.Nextafter(m0, math.Inf(1)), 2 * m0, math.Inf(1)} {
		gm0, gavg, glow, full, err := dec.MetricsUpTo(order, proc, bound)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("bound %v: MetricsUpTo error %v, want %v", bound, err, wantErr)
		case err != nil:
			if err.Error() != wantErr.Error() {
				t.Fatalf("bound %v: MetricsUpTo error %q, want %q", bound, err, wantErr)
			}
		case !sameBits(gm0, m0):
			t.Fatalf("bound %v: MetricsUpTo M0 %v, want %v", bound, gm0, m0)
		case full != (m0 <= bound):
			t.Fatalf("bound %v: MetricsUpTo computed the slacks: %v, with M0 %v", bound, full, m0)
		case full && (!sameBits(gavg, avg) || !sameBits(glow, lowest)):
			t.Fatalf("bound %v: MetricsUpTo slacks (%v, %v), want (%v, %v)", bound, gavg, glow, avg, lowest)
		case !full && (!math.IsNaN(gavg) || !math.IsNaN(glow)):
			t.Fatalf("bound %v: MetricsUpTo slacks (%v, %v) without computing them, want NaN", bound, gavg, glow)
		}
	}
}

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
// pull-style oracle's triple, bit for bit; the decoded schedule equals the
// push-form reference in every vector, and the bounded kernel agrees at
// bounds around M0. Chromosomes are random
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
		samePush(t, ctx, w, order, proc, &s)
		sameBounded(t, dec, order, proc, m0, avg, lowest, nil)
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

// TestExpectedAnalysisMatchesRealizedPasses: the expected analysis every
// constructor runs agrees with the pull-style passes the
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
		_, _, rerr := pushAnalysis(w, c[0], c[1])
		if derr == nil || merr == nil || rerr == nil || derr.Error() != merr.Error() || rerr.Error() != merr.Error() {
			t.Fatalf("%s: DecodeInto error %v, Metrics error %v, reference error %v", name, derr, merr, rerr)
		}
		sameBounded(t, dec, c[0], c[1], 0, 0, 0, merr)
	}
}

// TestCostTablesOverRates: the analysis's cost tables hold, per arc and
// direction, a zero and one cost per distinct transfer rate, and the
// kernel reproduces the push-form
// reference bit for bit, on systems with one distinct rate, two, and
// m(m−1) (every directed pair its own rate), and on one processor. No
// golden covers a non-uniform system.
func TestCostTablesOverRates(t *testing.T) {
	r := rng.New(71)
	systems := []struct {
		name  string
		m     int
		rate  func(p, q int) float64
		rates int
	}{
		{"one processor", 1, nil, 0},
		{"one rate", 4, func(p, q int) float64 { return 2.5 }, 1},
		{"two rates", 5, func(p, q int) float64 { return []float64{0.7, 3}[(p+q)%2] }, 2},
		{"every pair", 4, func(p, q int) float64 { return 0.5 + float64(4*p+q)/3 }, 12},
	}
	for _, sys := range systems {
		rates := platform.NewMatrix(sys.m, sys.m)
		for p := 0; p < sys.m; p++ {
			for q := 0; q < sys.m; q++ {
				if p != q {
					rates.Set(p, q, sys.rate(p, q))
				}
			}
		}
		system, err := platform.NewSystem(rates)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			base := randomWorkload(t, r, 2+r.Intn(40), sys.m)
			w, err := platform.NewWorkload(base.G, system, base.BCET, base.UL)
			if err != nil {
				t.Fatal(err)
			}
			dec := NewDecoder(w)
			if got := dec.t.cols; got != 1+sys.rates {
				t.Fatalf("%s: tables hold %d costs per arc, want %d", sys.name, got, 1+sys.rates)
			}
			if got, want := len(dec.t.succQ), w.G.EdgeCount()*(1+sys.rates); got != want || len(dec.t.predQ) != want {
				t.Fatalf("%s: tables hold %d and %d costs, want %d", sys.name, got, len(dec.t.predQ), want)
			}
			for c := 0; c < 5; c++ {
				order := w.G.RandomTopologicalOrder(r)
				proc := make([]int, w.N())
				for v := range proc {
					proc[v] = r.Intn(sys.m)
				}
				s, err := dec.Decode(order, proc)
				if err != nil {
					t.Fatal(err)
				}
				samePush(t, sys.name, w, order, proc, s)
				m0, avg, lowest, err := dec.Metrics(order, proc)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(m0, s.Makespan()) || !sameBits(avg, s.AvgSlack()) || !sameBits(lowest, s.MinSlack()) {
					t.Fatalf("%s: Metrics gives (%v, %v, %v), the schedule (%v, %v, %v)", sys.name,
						m0, avg, lowest, s.Makespan(), s.AvgSlack(), s.MinSlack())
				}
				sameBounded(t, dec, order, proc, m0, avg, lowest, nil)
			}
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
