package wio

import (
	"bytes"
	"strings"
	"testing"

	"robsched/internal/gen"
	"robsched/internal/heft"
	"robsched/internal/rng"
)

func TestWorkloadRoundTrip(t *testing.T) {
	p := gen.PaperParams()
	p.N, p.M = 20, 3
	w, err := gen.Random(p, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, w); err != nil {
		t.Fatal(err)
	}
	w2, err := ReadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if w2.N() != w.N() || w2.M() != w.M() || w2.G.EdgeCount() != w.G.EdgeCount() {
		t.Fatalf("shape changed: %dx%d %d edges vs %dx%d %d edges",
			w2.N(), w2.M(), w2.G.EdgeCount(), w.N(), w.M(), w.G.EdgeCount())
	}
	for i := 0; i < w.N(); i++ {
		for j := 0; j < w.M(); j++ {
			if w2.BCET.At(i, j) != w.BCET.At(i, j) || w2.UL.At(i, j) != w.UL.At(i, j) {
				t.Fatalf("matrix entry (%d,%d) changed", i, j)
			}
		}
	}
	for _, e := range w.G.Edges() {
		d, ok := w2.G.Data(e.From, e.To)
		if !ok || d != e.Data {
			t.Fatalf("edge %d->%d changed", e.From, e.To)
		}
	}
	// Scheduling the round-tripped workload gives identical makespans.
	s1, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := heft.HEFT(w2, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Makespan() != s2.Makespan() {
		t.Fatalf("HEFT makespan changed after round trip: %g vs %g", s1.Makespan(), s2.Makespan())
	}
}

func TestWorkloadDefaultUL(t *testing.T) {
	doc := `{
  "tasks": 2,
  "edges": [{"from": 0, "to": 1, "data": 3}],
  "rates": [[0, 1], [1, 0]],
  "bcet": [[2, 4], [3, 1]]
}`
	w, err := ReadWorkload(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if w.UL.At(i, j) != 1 {
				t.Fatalf("UL default not 1 at (%d,%d)", i, j)
			}
		}
	}
}

func TestReadWorkloadErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"garbage", "not json"},
		{"unknown field", `{"tasks": 1, "rates": [[0]], "bcet": [[1]], "bogus": 3}`},
		{"no tasks", `{"tasks": 0, "rates": [[0]], "bcet": [[1]]}`},
		{"bad edge", `{"tasks": 2, "edges": [{"from": 0, "to": 5, "data": 1}], "rates": [[0,1],[1,0]], "bcet": [[1,1],[1,1]]}`},
		{"cycle", `{"tasks": 2, "edges": [{"from":0,"to":1,"data":0},{"from":1,"to":0,"data":0}], "rates": [[0,1],[1,0]], "bcet": [[1,1],[1,1]]}`},
		{"ragged bcet", `{"tasks": 2, "rates": [[0,1],[1,0]], "bcet": [[1,1],[1]]}`},
		{"bcet shape", `{"tasks": 2, "rates": [[0,1],[1,0]], "bcet": [[1,1]]}`},
		{"ul below one", `{"tasks": 1, "rates": [[0]], "bcet": [[1]], "ul": [[0.5]]}`},
		{"duration overflow", `{"tasks": 1, "rates": [[0]], "bcet": [[1e200]], "ul": [[1e200]]}`},
		{"zero rate", `{"tasks": 1, "rates": [[0,0],[0,0]], "bcet": [[1,1]]}`},
	}
	for _, c := range cases {
		if _, err := ReadWorkload(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	p := gen.PaperParams()
	p.N, p.M = 15, 3
	w, err := gen.Random(p, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSchedule(&buf, s); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadSchedule(&buf, w)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Makespan() != s.Makespan() || s2.AvgSlack() != s.AvgSlack() {
		t.Fatalf("schedule changed: M %g->%g slack %g->%g",
			s.Makespan(), s2.Makespan(), s.AvgSlack(), s2.AvgSlack())
	}
}

func TestReadScheduleRejectsInvalid(t *testing.T) {
	p := gen.PaperParams()
	p.N, p.M = 5, 2
	w, err := gen.Random(p, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	// A schedule document with a missing task.
	doc := `{"proc": [0,0,0,0,0], "proc_order": [[0,1,2,3],[]]}`
	if _, err := ReadSchedule(strings.NewReader(doc), w); err == nil {
		t.Fatal("invalid schedule accepted")
	}
	if _, err := ReadSchedule(strings.NewReader("nope"), w); err == nil {
		t.Fatal("garbage accepted")
	}
}
