package dist

// Scenario-layer wire tests: the duration-model options (Model, Corr,
// LoadCOV, ParetoShape) must survive the SimSetup protocol so a
// sharded evaluation of a correlated or heavy-tailed scenario stays
// bit-identical to the single-process run at every shard count — the same
// contract TestShardedEvaluateAllBitIdentical pins for the uniform model.

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"robsched/internal/rng"
	"robsched/internal/sim"
)

// TestShardedScenarioBitIdentical runs every non-default duration model ×
// correlation combination through the sharded coordinator at shards 1, 2
// and 4 and requires the gathered makespan vectors to equal the
// single-process sim.RealizeAll bit for bit.
func TestShardedScenarioBitIdentical(t *testing.T) {
	w := testWorkload(t, 31, 30, 3, 3)
	ss := testSchedules(t, w)
	cases := []sim.Options{
		{Model: sim.ModelLognormal},
		{Model: sim.ModelBoundedPareto, ParetoShape: 1.5},
		{Corr: sim.CorrShared, LoadCOV: 0.4},
		{Corr: sim.CorrIndep, LoadCOV: 0.4},
		{Model: sim.ModelLognormal, Corr: sim.CorrShared, LoadCOV: 0.3, Antithetic: true},
	}
	for ci, opt := range cases {
		opt.Realizations = 101 // uneven so shard widths differ
		opt.Workers = 1
		want, err := sim.RealizeAll(ss, opt, rng.New(77))
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		for _, shards := range []int{1, 2, 4} {
			pool := NewLocalPool(shards)
			coord := &Coordinator{Pool: pool}
			got, err := coord.RealizeAll(ss, opt, rng.New(77))
			if err != nil {
				t.Fatalf("case %d shards=%d: %v", ci, shards, err)
			}
			for j := range ss {
				for i := range want[j] {
					if math.Float64bits(got[j][i]) != math.Float64bits(want[j][i]) {
						t.Fatalf("case %d shards=%d schedule %d realization %d: %v != %v",
							ci, shards, j, i, got[j][i], want[j][i])
					}
				}
			}
			if err := pool.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestScenarioWireDefaultUnchanged pins the protocol compatibility claim:
// a SimSetup with default (uniform, independent) scenario options marshals
// to JSON without any of the new scenario keys, so the default wire bytes
// are identical to the pre-scenario protocol.
func TestScenarioWireDefaultUnchanged(t *testing.T) {
	b, err := json.Marshal(SimSetup{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"model", "corr", "load_cov", "pareto_shape"} {
		if strings.Contains(string(b), key) {
			t.Errorf("SimSetup default encoding contains scenario key %q: %s", key, b)
		}
	}
}

// TestScenarioWireRoundTrip pins that non-default scenario options survive
// a JSON round trip of their carrier message.
func TestScenarioWireRoundTrip(t *testing.T) {
	su := SimSetup{
		ID:          9,
		Model:       sim.ModelBoundedPareto,
		Corr:        sim.CorrShared,
		LoadCOV:     0.35,
		ParetoShape: 1.5,
	}
	b, err := json.Marshal(su)
	if err != nil {
		t.Fatal(err)
	}
	var got SimSetup
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Model != su.Model || got.Corr != su.Corr || got.LoadCOV != su.LoadCOV || got.ParetoShape != su.ParetoShape {
		t.Errorf("SimSetup round trip lost scenario fields: %+v", got)
	}
}
