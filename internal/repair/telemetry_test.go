package repair

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"robsched/internal/dynamic"
	"robsched/internal/fault"
	"robsched/internal/heft"
	"robsched/internal/obs"
	"robsched/internal/rng"
	"robsched/internal/sim"
)

// TestFaultTelemetryMatchesOutcome evaluates a schedule under a fault-heavy
// policy with the registry attached and cross-checks every counter against
// the aggregate the evaluator itself reports.
func TestFaultTelemetryMatchesOutcome(t *testing.T) {
	w := testWorkload(t, 71, 30, 4, 4)
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pol := FaultPolicy{
		Policy:     NeverReschedule(),
		MaxRetries: 2,
		DropFactor: 3,
		Obs:        reg,
	}
	const R = 50
	m0 := s.Makespan()
	src := fault.Model{OutageEvery: m0 / 2, OutageMean: m0 / 10, KeepOne: true}
	fm, err := EvaluateFaults(s, pol, src, 0, sim.Options{Realizations: R, Workers: 4}, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	round := func(x float64) int64 { return int64(math.Round(x * R)) }
	if got := snap.Counters["repair.executions"]; got != R {
		t.Errorf("repair.executions = %d, want %d", got, R)
	}
	if got, want := snap.Counters["repair.retries"], round(fm.MeanRetries); got != want {
		t.Errorf("repair.retries = %d, want %d", got, want)
	}
	if got, want := snap.Counters["repair.migrations"], round(fm.MeanMigrations); got != want {
		t.Errorf("repair.migrations = %d, want %d", got, want)
	}
	if got, want := snap.Counters["repair.drops"], round(fm.MeanDropped); got != want {
		t.Errorf("repair.drops = %d, want %d", got, want)
	}
	if snap.Counters["repair.kills"] == 0 {
		t.Error("fault-heavy scenario produced no kills — test not exercising telemetry")
	}
}

// TestFaultTraceEvents drives one execution with a scripted permanent
// failure and checks the structured events carry task/processor/time
// attribution.
func TestFaultTraceEvents(t *testing.T) {
	w := testWorkload(t, 72, 20, 3, 3)
	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	durs := dynamic.RealizeMatrix(w, rng.New(8))
	sc := fault.Scenario{M: 3, FailAt: []float64{s.Makespan() * 0.25, math.Inf(1), math.Inf(1)}}
	var buf bytes.Buffer
	pol := FaultPolicy{
		Policy:     NeverReschedule(),
		MaxRetries: 3,
		Trace:      obs.NewTracer(&buf),
	}
	out, err := ExecuteFaults(s, durs, sc, pol)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec obs.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable trace line %q: %v", line, err)
		}
		if rec.Scope != "repair" {
			continue
		}
		counts[rec.Name]++
		switch rec.Name {
		case "kill":
			if rec.Attrs["proc"] != 0 {
				t.Errorf("kill on proc %g, want 0 (the failed processor)", rec.Attrs["proc"])
			}
			if rec.Attrs["time"] < 0 {
				t.Errorf("kill time %g < 0", rec.Attrs["time"])
			}
		case "migrate":
			if rec.Attrs["from"] == rec.Attrs["to"] {
				t.Errorf("migrate from == to == %g", rec.Attrs["from"])
			}
		}
	}
	if counts["kill"] != out.Kills {
		t.Errorf("trace has %d kill events, outcome reports %d", counts["kill"], out.Kills)
	}
	if counts["retry"] != out.Retries {
		t.Errorf("trace has %d retry events, outcome reports %d", counts["retry"], out.Retries)
	}
	if counts["migrate"] != out.Migrations {
		t.Errorf("trace has %d migrate events, outcome reports %d", counts["migrate"], out.Migrations)
	}
	if out.Kills == 0 {
		t.Error("scripted failure produced no kills — scenario not exercised")
	}
}
