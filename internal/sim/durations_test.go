package sim

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"robsched/internal/platform"
	"robsched/internal/rng"
)

// TestDurationsMatchesReference: Durations hands realization k exactly the
// full matrix the scalar reference samples from seeds[k] — the uniform
// model through Workload.SampleDuration, its midpoint mirror on the odd
// half of an antithetic pair, every other model through refGeneralMatrix —
// once per k, for every worker count.
func TestDurationsMatchesReference(t *testing.T) {
	w := testWorkload(t, 11, 23, 3, 3)
	n, m := w.N(), w.M()
	const R = 9
	for _, base := range append([]Options{{}}, modelCases()...) {
		for _, antithetic := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				opt := base
				opt.Antithetic, opt.Workers = antithetic, workers
				seeds := SeedVector(R, antithetic, rng.New(5))
				got := make([][]float64, R)
				err := Durations(w, opt, seeds, func(k int, durs platform.Matrix) error {
					if got[k] != nil {
						return fmt.Errorf("realization %d handed out twice", k)
					}
					got[k] = make([]float64, n*m)
					for i := 0; i < n; i++ {
						copy(got[k][i*m:], durs.Row(i))
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				want := make([]float64, n*m)
				for k, seed := range seeds {
					refMatrix(want, w, opt, rng.New(seed), antithetic && k%2 == 1)
					for e := range want {
						if math.Float64bits(got[k][e]) != math.Float64bits(want[e]) {
							t.Fatalf("%+v realization %d pair %d: got %v, want %v", opt, k, e, got[k][e], want[e])
						}
					}
				}
			}
		}
	}
}

// TestDurationsLowestError: of several failing realizations, Durations
// returns the error of the lowest index for every worker count; invalid
// options are the *OptionError Validate reports.
func TestDurationsLowestError(t *testing.T) {
	w := testWorkload(t, 3, 10, 2, 2)
	seeds := SeedVector(30, false, rng.New(1))
	for _, workers := range []int{1, 4} {
		err := Durations(w, Options{Workers: workers}, seeds, func(k int, _ platform.Matrix) error {
			if k == 7 || k == 19 {
				return fmt.Errorf("realization %d failed", k)
			}
			return nil
		})
		if err == nil || err.Error() != "realization 7 failed" {
			t.Errorf("workers=%d: got %v, want realization 7's error", workers, err)
		}
	}
	for _, tc := range []struct {
		opt   Options
		seeds []uint64
		field string
	}{
		{Options{}, nil, "Realizations"},
		{Options{Workers: -1}, seeds, "Workers"},
		{Options{Model: ModelBoundedPareto}, seeds, "ParetoShape"},
	} {
		err := Durations(w, tc.opt, tc.seeds, func(int, platform.Matrix) error { return nil })
		var oe *OptionError
		if !errors.As(err, &oe) || oe.Field != tc.field {
			t.Errorf("%+v with %d seeds: got %v, want an *OptionError on %s", tc.opt, len(tc.seeds), err, tc.field)
		}
	}
}
