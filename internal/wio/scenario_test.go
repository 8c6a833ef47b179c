package wio

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"robsched/internal/fault"
	"robsched/internal/rng"
)

func TestScenarioRoundTrip(t *testing.T) {
	mo := fault.Model{MTBF: 40, OutageEvery: 25, OutageMean: 3}
	sc, err := mo.Scenario(4, 120, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	// Model samples no slowdowns; scenario files carry them.
	sc.Slowdowns = [][]fault.Slowdown{
		{{Start: 5, End: 9.5, Factor: 2.5}, {Start: 40, End: 41.25, Factor: 2.5}},
		nil,
		{{Start: 0.5, End: 30, Factor: 1.75}},
		nil,
	}
	var buf bytes.Buffer
	if err := WriteScenario(&buf, sc); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.M != sc.M {
		t.Fatalf("M %d != %d", got.M, sc.M)
	}
	for p := 0; p < sc.M; p++ {
		// FailAt may be nil on the decoded side only if no processor fails.
		want := math.Inf(1)
		if sc.FailAt != nil {
			want = sc.FailAt[p]
		}
		gotAt := math.Inf(1)
		if got.FailAt != nil {
			gotAt = got.FailAt[p]
		}
		if gotAt != want {
			t.Fatalf("processor %d FailAt %g != %g", p, gotAt, want)
		}
		var wantO, gotO []fault.Interval
		if sc.Outages != nil {
			wantO = sc.Outages[p]
		}
		if got.Outages != nil {
			gotO = got.Outages[p]
		}
		if len(wantO) != len(gotO) {
			t.Fatalf("processor %d outage count %d != %d", p, len(gotO), len(wantO))
		}
		for i := range wantO {
			if wantO[i] != gotO[i] {
				t.Fatalf("processor %d outage %d: %+v != %+v", p, i, gotO[i], wantO[i])
			}
		}
		var wantS, gotS []fault.Slowdown
		if sc.Slowdowns != nil {
			wantS = sc.Slowdowns[p]
		}
		if got.Slowdowns != nil {
			gotS = got.Slowdowns[p]
		}
		if len(wantS) != len(gotS) {
			t.Fatalf("processor %d slowdown count %d != %d", p, len(gotS), len(wantS))
		}
		for i := range wantS {
			if wantS[i] != gotS[i] {
				t.Fatalf("processor %d slowdown %d: %+v != %+v", p, i, gotS[i], wantS[i])
			}
		}
	}
}

func TestScenarioEmptyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteScenario(&buf, fault.None()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty() {
		t.Fatalf("empty scenario round-tripped into %+v", got)
	}
}

func TestScenarioBuildSortsEvents(t *testing.T) {
	// Out-of-order (but disjoint) event lists must be accepted and sorted.
	doc := ScenarioJSON{
		Procs: 2,
		Outages: []OutageJSON{
			{Proc: 0, Start: 10, End: 12},
			{Proc: 0, Start: 2, End: 4},
		},
		Slowdowns: []SlowdownJSON{
			{Proc: 1, Start: 9, End: 11, Factor: 3},
			{Proc: 1, Start: 1, End: 2, Factor: 2},
		},
	}
	sc, err := doc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Outages[0][0].Start != 2 || sc.Outages[0][1].Start != 10 {
		t.Fatalf("outages not sorted: %+v", sc.Outages[0])
	}
	if sc.Slowdowns[1][0].Start != 1 {
		t.Fatalf("slowdowns not sorted: %+v", sc.Slowdowns[1])
	}
}

func TestScenarioRejectsMalformed(t *testing.T) {
	cases := []string{
		`{"procs": -1}`,
		`{"procs": 1, "failures": [{"proc": 2, "at": 5}]}`,
		`{"procs": 1, "failures": [{"proc": 0, "at": 5}, {"proc": 0, "at": 7}]}`,
		`{"procs": 1, "failures": [{"proc": 0, "at": -5}]}`,
		`{"procs": 1, "outages": [{"proc": 0, "start": 5, "end": 3}]}`,
		`{"procs": 1, "outages": [{"proc": 0, "start": 1, "end": 4}, {"proc": 0, "start": 3, "end": 6}]}`,
		`{"procs": 1, "slowdowns": [{"proc": 0, "start": 1, "end": 2, "factor": 0.5}]}`,
		`{"procs": 0, "failures": [{"proc": 0, "at": 1}]}`,
		`{"procs": 1, "unknown_field": true}`,
		`garbage`,
	}
	for i, doc := range cases {
		if _, err := ReadScenario(strings.NewReader(doc)); err == nil {
			t.Errorf("case %d accepted: %s", i, doc)
		}
	}
}

// FuzzReadScenario drives the scenario parser with arbitrary input: never
// panic, and every accepted scenario must validate and round-trip.
func FuzzReadScenario(f *testing.F) {
	mo := fault.Model{MTBF: 30, OutageEvery: 20, OutageMean: 2}
	if sc, err := mo.Scenario(3, 80, rng.New(2)); err == nil {
		var buf bytes.Buffer
		if err := WriteScenario(&buf, sc); err == nil {
			f.Add(buf.String())
		}
	}
	f.Add(`{"procs": 2}`)
	f.Add(`{"procs": 2, "failures": [{"proc": 0, "at": 3.5}]}`)
	f.Add(`{"procs": 1, "outages": [{"proc": 0, "start": 1, "end": 2}]}`)
	f.Add(`{"procs": 1, "slowdowns": [{"proc": 0, "start": 1, "end": 2, "factor": 2}]}`)
	f.Add(`{"procs": -3}`)
	f.Add(`{}`)
	f.Add(`[]`)
	f.Fuzz(func(t *testing.T, doc string) {
		sc, err := ReadScenario(strings.NewReader(doc))
		if err != nil {
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("accepted scenario does not validate: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteScenario(&buf, sc); err != nil {
			t.Fatalf("accepted scenario does not serialize: %v", err)
		}
		sc2, err := ReadScenario(&buf)
		if err != nil {
			t.Fatalf("serialized scenario does not parse: %v", err)
		}
		if sc2.M != sc.M || sc2.Empty() != sc.Empty() {
			t.Fatal("round trip changed the scenario shape")
		}
	})
}
