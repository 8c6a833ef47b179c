package repair

import (
	"math"
	"reflect"
	"testing"

	"robsched/internal/dynamic"
	"robsched/internal/fault"
	"robsched/internal/heft"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
	"robsched/internal/sim"
)

// The evaluators that play whole duration matrices sample them through
// sim.Durations, the sampler behind sim.RealizeSeeded. Right-shift
// execution is the paper's realization semantics (Claim 3.2), so these
// oracles hold the three evaluators bit for bit to the batched engine, and
// to themselves across worker counts, under every duration model,
// correlation mode and antithetic pairing.

// oracleOption is one named option set of the oracles.
type oracleOption struct {
	name string
	opt  sim.Options
}

// oracleOptions returns the option sets the oracles run under, each at the
// given worker count. The odd realization count leaves an antithetic pair
// half-filled, and the deadline keeps DeadlineMissRate a number.
func oracleOptions(workers int, deadline float64) []oracleOption {
	base := sim.Options{Realizations: 41, Workers: workers, Deadline: deadline}
	sets := []oracleOption{{"uniform", base}}
	with := func(name string, edit func(o *sim.Options)) {
		o := base
		edit(&o)
		sets = append(sets, oracleOption{name, o})
	}
	with("antithetic", func(o *sim.Options) { o.Antithetic = true })
	with("lognormal", func(o *sim.Options) { o.Model = sim.ModelLognormal })
	with("pareto", func(o *sim.Options) { o.Model, o.ParetoShape = sim.ModelBoundedPareto, 1.5 })
	with("shared-load", func(o *sim.Options) { o.Corr, o.LoadCOV = sim.CorrShared, 0.4 })
	with("indep-load-antithetic", func(o *sim.Options) { o.Corr, o.LoadCOV, o.Antithetic = sim.CorrIndep, 0.4, true })
	return sets
}

// oracleWorkloads returns random workloads of several shapes; the last one
// pins a third of its pairs to UL = 1, so its degenerate pairs consume no
// draw and every later pair's draw shifts.
func oracleWorkloads(t *testing.T) []*platform.Workload {
	t.Helper()
	var ws []*platform.Workload
	for i, shape := range []struct{ n, m int }{{12, 2}, {25, 3}, {40, 4}, {30, 5}} {
		ws = append(ws, testWorkload(t, uint64(90+i), shape.n, shape.m, 2+float64(i)))
	}
	w := ws[len(ws)-1]
	ul := w.UL.Clone()
	for i := 0; i < w.N(); i++ {
		for p := 0; p < w.M(); p++ {
			if (i+p)%3 == 0 {
				ul.Set(i, p, 1)
			}
		}
	}
	mixed, err := platform.NewWorkload(w.G, w.Sys, w.BCET, ul)
	if err != nil {
		t.Fatal(err)
	}
	return append(ws, mixed)
}

// bitsEqual reports whether two metric structs are equal field by field,
// float64 fields under math.Float64bits (so NaN equals NaN and 0 differs
// from −0), embedded structs recursively.
func bitsEqual(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		switch fa.Kind() {
		case reflect.Float64:
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		case reflect.Struct:
			if !bitsEqual(fa.Interface(), fb.Interface()) {
				return false
			}
		default:
			if !fa.Equal(fb) {
				return false
			}
		}
	}
	return true
}

// TestRightShiftEvaluateMatchesSim: right-shift repair.Evaluate returns
// sim.Evaluate's metrics from the same root, bit for bit.
func TestRightShiftEvaluateMatchesSim(t *testing.T) {
	for wi, w := range oracleWorkloads(t) {
		s, err := heft.HEFT(w, heft.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			for _, set := range oracleOptions(workers, 1.1*s.Makespan()) {
				name, opt := set.name, set.opt
				want, err := sim.Evaluate(s, opt, rng.New(uint64(wi)+5))
				if err != nil {
					t.Fatal(err)
				}
				got, err := Evaluate(s, NeverReschedule(), opt, rng.New(uint64(wi)+5))
				if err != nil {
					t.Errorf("workload %d %s workers=%d: %v", wi, name, workers, err)
					continue
				}
				if !bitsEqual(got.Metrics, want) || got.MeanReschedules != 0 {
					t.Errorf("workload %d %s workers=%d: repair\n%+v\nsim\n%+v", wi, name, workers, got, want)
				}
			}
		}
	}
}

// TestEvaluateFaultsEmptyScenarioMatchesSim: with no faults and right-shift
// execution, EvaluateFaults returns the metrics of sim.RealizeSeeded's
// makespans on its duration seeds — one root draw per realization
// interleaved with the scenario seed, the odd half of an antithetic pair
// reusing its partner's.
func TestEvaluateFaultsEmptyScenarioMatchesSim(t *testing.T) {
	for wi, w := range oracleWorkloads(t) {
		s, err := heft.HEFT(w, heft.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			for _, set := range oracleOptions(workers, 1.1*s.Makespan()) {
				name, opt := set.name, set.opt
				root := rng.New(uint64(wi) + 9)
				seeds := make([]uint64, opt.Realizations)
				for k := range seeds {
					if opt.Antithetic && k%2 == 1 {
						seeds[k] = seeds[k-1]
					} else {
						seeds[k] = root.Uint64()
					}
					root.Uint64() // the scenario seed
				}
				mks, err := sim.RealizeSeeded([]*schedule.Schedule{s}, opt, seeds, 0)
				if err != nil {
					t.Fatal(err)
				}
				want := sim.MetricsFromSamples(s.Makespan(), mks[0], opt.Deadline)
				got, err := EvaluateFaults(s, FaultPolicy{Policy: NeverReschedule()}, fault.Fixed{}, 0, opt, rng.New(uint64(wi)+9))
				if err != nil {
					t.Errorf("workload %d %s workers=%d: %v", wi, name, workers, err)
					continue
				}
				if !bitsEqual(got.Metrics.Metrics, want) || got.MeanCompletion != 1 || got.MeanRetries != 0 || got.FailRate != 0 {
					t.Errorf("workload %d %s workers=%d: faults\n%+v\nsim\n%+v", wi, name, workers, got, want)
				}
			}
		}
	}
}

// TestEvaluatorsWorkerIndependent: dynamic dispatch and faulty execution
// under a fault model (with re-planning and drops) give identical metrics
// at 1 and 4 workers under every option set.
func TestEvaluatorsWorkerIndependent(t *testing.T) {
	w := testWorkload(t, 71, 30, 4, 4)
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mo := fault.Model{MTBF: 3 * s.Makespan(), OutageEvery: 2 * s.Makespan(), OutageMean: 0.1 * s.Makespan(), KeepOne: true}
	pol := FaultPolicy{Policy: Policy{Threshold: 0.1}, MaxRetries: 2, DropFactor: 3}
	deadline := 1.5 * s.Makespan()
	sets4 := oracleOptions(4, deadline)
	for i, set := range oracleOptions(1, deadline) {
		name, opt1, opt4 := set.name, set.opt, sets4[i].opt
		d1, err1 := dynamic.Evaluate(w, opt1, rng.New(33))
		d4, err4 := dynamic.Evaluate(w, opt4, rng.New(33))
		if err1 != nil || err4 != nil {
			t.Errorf("dynamic %s: %v, %v", name, err1, err4)
		} else if !bitsEqual(d1, d4) {
			t.Errorf("dynamic %s: 1 worker\n%+v\n4 workers\n%+v", name, d1, d4)
		}
		f1, err1 := EvaluateFaults(s, pol, mo, 0, opt1, rng.New(44))
		f4, err4 := EvaluateFaults(s, pol, mo, 0, opt4, rng.New(44))
		switch {
		case err1 != nil || err4 != nil:
			t.Errorf("faults %s: %v, %v", name, err1, err4)
		case f1.MeanRetries == 0:
			t.Errorf("faults %s: the fault model never killed a task", name)
		case !bitsEqual(f1, f4):
			t.Errorf("faults %s: 1 worker\n%+v\n4 workers\n%+v", name, f1, f4)
		}
	}
}
