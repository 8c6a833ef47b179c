package schedule

import (
	"fmt"
	"testing"

	"robsched/internal/gen"
	"robsched/internal/rng"
)

// FuzzDecode hammers the chromosome decoder with arbitrary workloads,
// GA-like chromosomes (a random topological order and random processors,
// then up to three chained derivations like the GA's operators apply) and
// byte-directed corruptions of them: out-of-range and duplicate tasks,
// out-of-range processors, precedence inversions and wrong lengths. The
// invariant is total: DecodeInto accepts exactly the well-formed
// chromosomes, producing a schedule bit-identical to FromOrder's, rejects
// every malformed one with an error, and never panics. The target already
// holds another workload's schedule, so its arenas are reused when large
// enough; after a rejection the uncorrupted chromosome is decoded into the
// same target and must still match FromOrder bit for bit. The metrics
// kernel (Decoder.Metrics) must accept exactly the chromosomes DecodeInto
// accepts, fail with DecodeInto's error on the others, and return the
// decoded schedule's makespan and slack summary bit for bit; the push-form
// reference must agree with both, and the bounded kernel must agree with
// the unbounded one at bounds below, at and above M0 and at ±Inf.
func FuzzDecode(f *testing.F) {
	f.Add(uint64(1), uint64(2), 0, []byte(nil))
	f.Add(uint64(7), uint64(11), 5, []byte{2, 3, 9})
	f.Add(uint64(42), uint64(13), 1, []byte{0, 200, 1, 7})
	f.Add(uint64(99), uint64(3), 2, []byte{3, 1, 1, 255})
	f.Fuzz(func(t *testing.T, wseed, dseed uint64, edits int, corrupt []byte) {
		p := gen.PaperParams()
		p.N = 2 + int(wseed%40)
		p.M = 1 + int(wseed%6)
		w, err := gen.Random(p, rng.New(wseed))
		if err != nil {
			return
		}
		n, m := w.N(), w.M()
		r := rng.New(dseed)
		order := w.G.RandomTopologicalOrder(r)
		proc := make([]int, n)
		for i := range proc {
			proc[i] = r.Intn(m)
		}
		for e := 0; e < edits%4; e++ {
			order, proc = deriveChild(r, w, order, proc)
		}
		cleanOrder := append([]int(nil), order...)
		cleanProc := append([]int(nil), proc...)
		var got Schedule
		fillWithOther(t, &got, wseed)
		// Each (op, arg) byte pair applies one corruption; the signed arg
		// reaches negative and out-of-range values.
		for i := 0; i+1 < len(corrupt); i += 2 {
			arg := int(int8(corrupt[i+1]))
			switch corrupt[i] % 4 {
			case 0:
				if len(order) > 0 {
					order[abs(arg)%len(order)] = arg
				}
			case 1:
				if len(proc) > 0 {
					proc[abs(arg)%len(proc)] = arg
				}
			case 2:
				if len(order) > 1 {
					a, b := abs(arg)%len(order), (abs(arg)+1)%len(order)
					order[a], order[b] = order[b], order[a]
				}
			case 3:
				if arg < 0 && len(order) > 0 {
					order = order[:len(order)-1]
				} else {
					proc = append(proc, arg)
				}
			}
		}
		valid := len(order) == n && len(proc) == n && w.G.IsTopologicalOrder(order)
		for _, q := range proc {
			valid = valid && q >= 0 && q < m
		}
		dec := NewDecoder(w)
		err = dec.DecodeInto(&got, order, proc)
		sameMetrics(t, dec, order, proc, &got, err)
		if !valid {
			if err == nil {
				t.Fatalf("malformed chromosome accepted: order=%v proc=%v", order, proc)
			}
			order, proc = cleanOrder, cleanProc
			err := dec.DecodeInto(&got, order, proc)
			if err != nil {
				t.Fatalf("valid chromosome rejected after a failed decode: %v", err)
			}
			sameMetrics(t, dec, order, proc, &got, err)
		} else if err != nil {
			t.Fatalf("valid chromosome rejected: %v", err)
		}
		want, err := FromOrder(w, order, proc)
		if err != nil {
			t.Fatalf("FromOrder rejected a chromosome DecodeInto accepted: %v", err)
		}
		sameSchedule(t, "fuzz", &got, want)
		samePush(t, "fuzz", w, order, proc, &got)
	})
}

// sameMetrics fails the test unless Metrics agrees with the DecodeInto
// call on (order, proc) that left s and derr: the same error, which the
// push-form reference also returns, or on success the triple of s bit for
// bit. MetricsUpTo must agree with Metrics at every bound sameBounded
// tries.
func sameMetrics(t *testing.T, dec *Decoder, order, proc []int, s *Schedule, derr error) {
	t.Helper()
	m0, avg, lowest, err := dec.Metrics(order, proc)
	sameBounded(t, dec, order, proc, m0, avg, lowest, err)
	if _, _, rerr := pushAnalysis(dec.w, order, proc); fmt.Sprint(rerr) != fmt.Sprint(err) {
		t.Fatalf("Metrics error %v, the reference's %v", err, rerr)
	}
	switch {
	case (err == nil) != (derr == nil):
		t.Fatalf("Metrics error %v, DecodeInto error %v: order=%v proc=%v", err, derr, order, proc)
	case err != nil:
		if err.Error() != derr.Error() {
			t.Fatalf("Metrics error %q, DecodeInto error %q", err, derr)
		}
	case !sameBits(m0, s.Makespan()) || !sameBits(avg, s.AvgSlack()) || !sameBits(lowest, s.MinSlack()):
		t.Fatalf("Metrics gives (%v, %v, %v), DecodeInto (%v, %v, %v)",
			m0, avg, lowest, s.Makespan(), s.AvgSlack(), s.MinSlack())
	}
}

// fillWithOther decodes into s a random chromosome of a workload derived
// from seed, with a different task count and usually a different processor
// count than the fuzzed one.
func fillWithOther(t *testing.T, s *Schedule, seed uint64) {
	t.Helper()
	p := gen.PaperParams()
	p.N = 2 + int((seed+17)%40)
	p.M = 1 + int((seed+2)%6)
	w, err := gen.Random(p, rng.New(seed^0x5eed))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed + 1)
	order := w.G.RandomTopologicalOrder(r)
	proc := make([]int, w.N())
	for i := range proc {
		proc[i] = r.Intn(w.M())
	}
	if err := NewDecoder(w).DecodeInto(s, order, proc); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
