package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"robsched/internal/obs"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// TestRealizeAllTelemetry checks the registry against the engine's ground
// truth: counters equal the run's realization/batch arithmetic, the
// occupancy histogram accounts for every realization exactly once, and the
// per-worker claim counts sum to the batch count.
func TestRealizeAllTelemetry(t *testing.T) {
	w := testWorkload(t, 61, 25, 3, 2)
	s := heftSchedule(t, w)
	reg := obs.NewRegistry()
	opt := Options{Realizations: 103, Workers: 3, Obs: reg}
	if _, err := RealizeAll([]*schedule.Schedule{s, s}, opt, rng.New(5)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	wantBatches := int64((103 + 7) / 8)
	checks := map[string]int64{
		"sim.realize_calls": 1,
		"sim.realizations":  103,
		"sim.schedules":     2,
		"sim.batches":       wantBatches,
	}
	for name, want := range checks {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	occ := snap.Histograms["sim.batch_occupancy"]
	if occ.Count != wantBatches || occ.Sum != 103 {
		t.Errorf("batch_occupancy count=%d sum=%g, want %d/103", occ.Count, occ.Sum, wantBatches)
	}
	claims := snap.Histograms["sim.worker_claims"]
	if claims.Count != 3 || claims.Sum != float64(wantBatches) {
		t.Errorf("worker_claims count=%d sum=%g, want 3/%d", claims.Count, claims.Sum, wantBatches)
	}
}

// TestRealizeAllTelemetryDoesNotPerturb pins that attaching observability
// leaves every realized makespan bit-identical to the uninstrumented run.
func TestRealizeAllTelemetryDoesNotPerturb(t *testing.T) {
	w := testWorkload(t, 62, 20, 3, 3)
	s := heftSchedule(t, w)
	plain, err := RealizeAll([]*schedule.Schedule{s}, Options{Realizations: 64}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	observed, err := RealizeAll([]*schedule.Schedule{s}, Options{
		Realizations: 64,
		Obs:          obs.NewRegistry(),
		Trace:        obs.NewTracer(&buf),
	}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatal("telemetry changed the realized makespans")
	}
	// The trace carries the build_sampler and realize_all spans as JSONL.
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec obs.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable trace line %q: %v", line, err)
		}
		if rec.Scope == "sim" {
			names = append(names, rec.Name)
		}
	}
	if len(names) != 2 || names[0] != "build_sampler" || names[1] != "realize_all" {
		t.Fatalf("sim trace spans = %v, want [build_sampler realize_all]", names)
	}
}
