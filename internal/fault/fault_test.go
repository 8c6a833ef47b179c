package fault

import (
	"errors"
	"math"
	"testing"

	"robsched/internal/rng"
)

func mustValid(t *testing.T, sc Scenario) {
	t.Helper()
	if err := sc.Validate(); err != nil {
		t.Fatalf("scenario invalid: %v", err)
	}
}

func TestEmptyScenario(t *testing.T) {
	sc := None()
	mustValid(t, sc)
	if !sc.Empty() {
		t.Fatal("None() not empty")
	}
	// Empty scenario behaves as the identity timeline for any processor.
	for _, tm := range []float64{0, 1.5, 1e9} {
		if got := sc.NextStart(3, tm); got != tm {
			t.Fatalf("NextStart(%g) = %g", tm, got)
		}
		fin, killed, _ := sc.Run(3, tm, 7.25)
		if killed || fin != tm+7.25 {
			t.Fatalf("Run(%g, 7.25) = %g killed=%v", tm, fin, killed)
		}
	}
	full := Scenario{M: 2, FailAt: []float64{math.Inf(1), math.Inf(1)}, Outages: [][]Interval{nil, nil}}
	mustValid(t, full)
	if !full.Empty() {
		t.Fatal("scenario with only +Inf failures should be empty")
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []Scenario{
		{M: -1},
		{M: 0, FailAt: []float64{1}},
		{M: 2, FailAt: []float64{1}},
		{M: 1, FailAt: []float64{math.NaN()}},
		{M: 1, FailAt: []float64{-2}},
		{M: 1, Outages: [][]Interval{{{Start: 3, End: 2}}}},
		{M: 1, Outages: [][]Interval{{{Start: -1, End: 2}}}},
		{M: 1, Outages: [][]Interval{{{Start: 0, End: 2}, {Start: 1, End: 3}}}},
		{M: 1, Outages: [][]Interval{{{Start: 0, End: math.Inf(1)}}}},
		{M: 1, Slowdowns: [][]Slowdown{{{Start: 0, End: 1, Factor: 0.5}}}},
		{M: 1, Slowdowns: [][]Slowdown{{{Start: 0, End: 1, Factor: math.NaN()}}}},
		{M: 1, Slowdowns: [][]Slowdown{{{Start: 2, End: 1, Factor: 2}}}},
	}
	for i, sc := range cases {
		err := sc.Validate()
		if err == nil {
			t.Errorf("case %d accepted: %+v", i, sc)
			continue
		}
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Errorf("case %d: error %v is not a *ValidationError", i, err)
		}
	}
}

func TestNextStartSkipsOutagesAndDeath(t *testing.T) {
	sc := Scenario{
		M:       2,
		FailAt:  []float64{20, math.Inf(1)},
		Outages: [][]Interval{{{Start: 5, End: 8}, {Start: 8, End: 10}}, nil},
	}
	mustValid(t, sc)
	if got := sc.NextStart(0, 4); got != 4 {
		t.Fatalf("before outage: %g", got)
	}
	if got := sc.NextStart(0, 5); got != 10 {
		t.Fatalf("inside chained outages: %g", got)
	}
	if got := sc.NextStart(0, 19); got != 19 {
		t.Fatalf("just before death: %g", got)
	}
	if got := sc.NextStart(0, 20); !math.IsInf(got, 1) {
		t.Fatalf("at death: %g", got)
	}
	if got := sc.NextStart(1, 1e6); got != 1e6 {
		t.Fatalf("healthy processor: %g", got)
	}
	// Outage that runs past the failure time: still dead.
	sc2 := Scenario{M: 1, FailAt: []float64{6}, Outages: [][]Interval{{{Start: 5, End: 9}}}}
	mustValid(t, sc2)
	if got := sc2.NextStart(0, 5.5); !math.IsInf(got, 1) {
		t.Fatalf("outage spanning death: %g", got)
	}
}

func TestRunKillsAndDegrades(t *testing.T) {
	sc := Scenario{
		M:         1,
		FailAt:    []float64{100},
		Outages:   [][]Interval{{{Start: 10, End: 12}}},
		Slowdowns: [][]Slowdown{{{Start: 20, End: 30, Factor: 2}}},
	}
	mustValid(t, sc)
	// Completes before the outage.
	if fin, killed, _ := sc.Run(0, 0, 10); killed || fin != 10 {
		t.Fatalf("exact fit: fin=%g killed=%v", fin, killed)
	}
	// Crosses the outage start: killed there.
	if fin, killed, at := sc.Run(0, 5, 6); !killed || at != 10 || fin != 10 {
		t.Fatalf("outage kill: fin=%g killed=%v at=%g", fin, killed, at)
	}
	// Fully inside the slowdown: takes Factor times longer.
	if fin, killed, _ := sc.Run(0, 20, 4); killed || fin != 28 {
		t.Fatalf("degraded run: fin=%g killed=%v", fin, killed)
	}
	// Straddles the slowdown end: 5 units degraded (10 wall), rest at rate 1.
	if fin, killed, _ := sc.Run(0, 20, 7); killed || fin != 32 {
		t.Fatalf("straddling run: fin=%g killed=%v", fin, killed)
	}
	// Runs into the permanent failure.
	if fin, killed, at := sc.Run(0, 95, 50); !killed || at != 100 || fin != 100 {
		t.Fatalf("death kill: fin=%g killed=%v at=%g", fin, killed, at)
	}
}

func TestRunEntersSlowdownMidway(t *testing.T) {
	sc := Scenario{M: 1, Slowdowns: [][]Slowdown{{{Start: 4, End: 8, Factor: 4}}}}
	mustValid(t, sc)
	// 2 units at rate 1 (t=2..4), then 4 wall units at rate 1/4 = 1 unit of
	// work (t=4..8), then 1 unit at rate 1: finish 9 for 4 units of work.
	if fin, killed, _ := sc.Run(0, 2, 4); killed || fin != 9 {
		t.Fatalf("fin=%g killed=%v", fin, killed)
	}
}

func TestModelSamplingDeterministicAndValid(t *testing.T) {
	mo := Model{MTBF: 50, OutageEvery: 30, OutageMean: 3}
	a, err := mo.Scenario(4, 100, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := mo.Scenario(4, 100, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	mustValid(t, a)
	if a.M != b.M || len(a.FailAt) != len(b.FailAt) {
		t.Fatal("same seed produced different shapes")
	}
	for p := range a.FailAt {
		if a.FailAt[p] != b.FailAt[p] {
			t.Fatalf("failure times differ on processor %d", p)
		}
		if len(a.Outages[p]) != len(b.Outages[p]) {
			t.Fatalf("event counts differ on processor %d", p)
		}
		for i := range a.Outages[p] {
			if a.Outages[p][i] != b.Outages[p][i] {
				t.Fatalf("outage %d differs on processor %d", i, p)
			}
		}
	}
	// A different seed differs somewhere (overwhelmingly likely at these
	// rates over this horizon).
	c, err := mo.Scenario(4, 100, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for p := range a.FailAt {
		if a.FailAt[p] != c.FailAt[p] || len(a.Outages[p]) != len(c.Outages[p]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical scenarios")
	}
}

func TestModelKeepOne(t *testing.T) {
	// A tiny MTBF fails every processor inside the horizon; KeepOne must
	// cancel the latest failure.
	mo := Model{MTBF: 0.01, KeepOne: true}
	sc, err := mo.Scenario(5, 1000, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	alive := 0
	for _, ft := range sc.FailAt {
		if math.IsInf(ft, 1) {
			alive++
		}
	}
	if alive != 1 {
		t.Fatalf("KeepOne left %d processors alive", alive)
	}
}

func TestModelValidation(t *testing.T) {
	bad := []Model{
		{MTBF: -1},
		{MTBF: math.NaN()},
		{OutageEvery: 5}, // missing OutageMean
		{OutageEvery: math.Inf(1), OutageMean: 1}, // infinite rate
	}
	for i, mo := range bad {
		err := mo.Validate()
		if err == nil {
			t.Errorf("model %d accepted: %+v", i, mo)
			continue
		}
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Errorf("model %d: error %v is not a *ValidationError", i, err)
		}
	}
	if err := (Model{}).Validate(); err != nil {
		t.Errorf("zero model rejected: %v", err)
	}
	if _, err := (Model{}).Scenario(0, 10, rng.New(1)); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := (Model{}).Scenario(2, 0, rng.New(1)); err == nil {
		t.Error("horizon=0 accepted")
	}
}

func TestFixedSampler(t *testing.T) {
	sc := Scenario{M: 3, FailAt: []float64{5, math.Inf(1), math.Inf(1)}}
	got, err := Fixed{S: sc}.Scenario(3, 100, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.FailAt[0] != 5 {
		t.Fatal("fixed sampler altered the scenario")
	}
	if _, err := (Fixed{S: sc}).Scenario(4, 100, rng.New(1)); err == nil {
		t.Error("platform size mismatch accepted")
	}
	if _, err := (Fixed{S: None()}).Scenario(4, 100, rng.New(1)); err != nil {
		t.Errorf("empty scenario rejected for any m: %v", err)
	}
}
