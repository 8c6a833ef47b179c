package sim

import (
	"math"
	"testing"

	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// TestRealizeSeededWindowsConcat is the exactness substrate of the dist
// scatter/gather coordinator: cutting the seed vector into arbitrary
// contiguous windows and realizing each window independently (with its
// global base index) must concatenate to exactly — bit for bit — the
// makespans of the single full-range run, for even and uneven partitions,
// with and without antithetic pairing, under the uniform model and every
// model case. A window moves realizations between full groups of eight,
// which the assembly transforms serve, and partial groups, which take the
// Go loops.
func TestRealizeSeededWindowsConcat(t *testing.T) {
	w := testWorkload(t, 7, 40, 4, 4)
	ss := []*schedule.Schedule{heftSchedule(t, w)}
	{
		s2, err := schedule.FromOrder(w, w.G.TopologicalOrder(), make([]int, w.N()))
		if err != nil {
			t.Fatal(err)
		}
		ss = append(ss, s2)
	}
	const R = 101 // prime, so no partition divides it evenly
	partitions := [][]int{
		{R},
		{50, 51},
		{1, 100},
		{33, 33, 35},
		{25, 25, 25, 26},
		{13, 13, 13, 13, 12, 12, 12, 13},
		{1, 2, 3, 5, 90},
	}
	for _, model := range append([]Options{{}}, modelCases()...) {
		for _, antithetic := range []bool{false, true} {
			opt := model
			opt.Realizations, opt.Antithetic = R, antithetic
			want, err := RealizeAll(ss, opt, rng.New(42))
			if err != nil {
				t.Fatal(err)
			}
			seeds := SeedVector(R, antithetic, rng.New(42))
			for _, parts := range partitions {
				base := 0
				for _, width := range parts {
					window := seeds[base : base+width]
					// Vary workers per window: they may not change a
					// single bit.
					opt := opt
					opt.Workers = 1 + base%3
					got, err := RealizeSeeded(ss, opt, window, base)
					if err != nil {
						t.Fatal(err)
					}
					for j := range ss {
						if len(got[j]) != width {
							t.Fatalf("window [%d,%d): got %d makespans", base, base+width, len(got[j]))
						}
						for l, m := range got[j] {
							if math.Float64bits(m) != math.Float64bits(want[j][base+l]) {
								t.Fatalf("%v/%v antithetic=%v partition %v: schedule %d realization %d: window %v != full %v",
									model.Model, model.Corr, antithetic, parts, j, base+l, m, want[j][base+l])
							}
						}
					}
					base += width
				}
			}
		}
	}
}

// TestSeedVectorMatchesRoot pins the derivation: without antithetic pairing
// the vector is the raw root stream; with it, odd entries replicate their
// even predecessor and the root advances only once per pair.
func TestSeedVectorMatchesRoot(t *testing.T) {
	plain := SeedVector(9, false, rng.New(5))
	r := rng.New(5)
	for i, s := range plain {
		if want := r.Uint64(); s != want {
			t.Fatalf("seed %d: %d != %d", i, s, want)
		}
	}
	anti := SeedVector(9, true, rng.New(5))
	r = rng.New(5)
	for i := 0; i < len(anti); i += 2 {
		want := r.Uint64()
		if anti[i] != want {
			t.Fatalf("antithetic seed %d: %d != %d", i, anti[i], want)
		}
		if i+1 < len(anti) && anti[i+1] != anti[i] {
			t.Fatalf("antithetic pair %d/%d seeds differ", i, i+1)
		}
	}
}

func TestRealizeSeededValidation(t *testing.T) {
	w := testWorkload(t, 1, 10, 2, 2)
	ss := []*schedule.Schedule{heftSchedule(t, w)}
	if _, err := RealizeSeeded(ss, Options{}, nil, 0); err == nil {
		t.Error("empty seed window accepted")
	}
	if _, err := RealizeSeeded(ss, Options{}, []uint64{1}, -1); err == nil {
		t.Error("negative base accepted")
	}
	if _, err := RealizeSeeded(nil, Options{}, []uint64{1}, 0); err == nil {
		t.Error("empty schedule list accepted")
	}
}
