package robust

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"robsched/internal/ga"
	"robsched/internal/rng"
)

var update = flag.Bool("update", false, "rewrite golden files")

// trajectoryDigest runs one pinned Solve and hashes everything the GA
// trajectory determines: the best genotype, the generation count, the
// best schedule's (M0, AvgSlack) bits, every generation's (M0, AvgSlack)
// of its best schedule (single-population runs; OnGeneration does not
// compose with islands) and every generation's observer stats (island,
// generation, best and mean fitness bits). Island runs migrate every
// `every` generations.
func trajectoryDigest(t *testing.T, mode Mode, islands, every int, noCache bool, n, m int) string {
	t.Helper()
	w := testWorkload(t, 13, n, m)
	h := sha256.New()
	put := func(xs ...uint64) {
		for _, x := range xs {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
		}
	}
	opt := PaperOptions(mode, 1.4)
	opt.MaxGenerations = 40
	opt.Stagnation = 0
	opt.NoMetricsCache = noCache
	var gens []ga.GenStats
	opt.Observer = ga.ObserverFunc(func(s ga.GenStats) { gens = append(gens, s) })
	if islands > 1 {
		opt.Islands = islands
		opt.MigrationEvery = every
	} else {
		opt.OnGeneration = func(gen int, best *Chromosome) {
			s := decodeBest(t, w, best)
			put(uint64(gen), math.Float64bits(s.Makespan()), math.Float64bits(s.AvgSlack()))
		}
	}
	res, err := Solve(w, opt, rng.New(7000+uint64(n)))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range gens {
		put(uint64(s.Island), uint64(s.Gen), math.Float64bits(s.Best), math.Float64bits(s.Mean))
	}
	for _, genes := range [][]int{res.Schedule.Order(), res.Schedule.ProcAssignment()} {
		for _, g := range genes {
			put(uint64(g))
		}
	}
	put(uint64(res.Generations), math.Float64bits(res.Schedule.Makespan()), math.Float64bits(res.Schedule.AvgSlack()))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSolveTrajectoryPinned pins complete GA trajectories to stored SHA-256
// digests in testdata/trajectories.golden, across the island and cache
// configurations and all three modes. Any change to the operators, the
// decoder or the evaluator that alters a single float bit of any
// generation shows up here. Refresh with: go test ./internal/robust -update
func TestSolveTrajectoryPinned(t *testing.T) {
	var lines []string
	for _, cfg := range []struct {
		name           string
		islands, every int
		noCache        bool
	}{
		// Decoding is serial, so "serial" and "parallel" run the same
		// solve; both rows stay so the golden file keeps every digest.
		{"serial", 1, 0, false},
		{"parallel", 1, 0, false},
		{"islands", 3, 10, false},
		{"nocache", 1, 0, true},
		// Migrating after every generation puts one individual into two
		// populations that run on different goroutines, 39 times per run.
		{"migrate-every", 4, 1, false},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			for _, mode := range []Mode{EpsilonConstraint, MinMakespan, MaxSlack} {
				for _, shape := range []struct{ n, m int }{{25, 3}, {60, 5}} {
					d := trajectoryDigest(t, mode, cfg.islands, cfg.every, cfg.noCache, shape.n, shape.m)
					lines = append(lines, fmt.Sprintf("%s/%s/%dx%d %s", cfg.name, mode, shape.n, shape.m, d))
				}
			}
		})
	}
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "trajectories.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("GA trajectories differ from %s (refresh with -update):\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}
}

// TestSolveWeightedSumPinned pins the weighted-sum comparator to one
// SHA-256 digest in testdata/weighted.golden. The digest covers weights 0,
// 0.3, 0.5 and 1 on two shapes under four option sets (a stagnation window
// of 10, no window, NoHEFTSeed with MinSlack, and NoMetricsCache), and per
// run the best genes, the generation count, the stagnation flag and the
// bits of M0, AvgSlack and MHEFT. Refresh with:
// go test ./internal/robust -run TestSolveWeightedSumPinned -update
func TestSolveWeightedSumPinned(t *testing.T) {
	h := sha256.New()
	put := func(xs ...uint64) {
		for _, x := range xs {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
		}
	}
	for _, set := range []func(*Options){
		func(o *Options) {},
		func(o *Options) { o.Stagnation = 0 },
		func(o *Options) { o.NoHEFTSeed, o.SlackMetric = true, MinSlack },
		func(o *Options) { o.NoMetricsCache = true },
	} {
		for _, shape := range []struct{ n, m int }{{25, 3}, {60, 5}} {
			w := testWorkload(t, 17, shape.n, shape.m)
			for _, weight := range []float64{0, 0.3, 0.5, 1} {
				opt := Options{PopSize: 16, CrossoverRate: 0.9, MutationRate: 0.1, MaxGenerations: 60, Stagnation: 10}
				set(&opt)
				res, err := SolveWeightedSum(w, weight, opt, rng.New(8000+uint64(shape.n)))
				if err != nil {
					t.Fatal(err)
				}
				for _, genes := range [][]int{res.Schedule.Order(), res.Schedule.ProcAssignment()} {
					for _, g := range genes {
						put(uint64(g))
					}
				}
				stagnated := uint64(0)
				if res.Stagnated {
					stagnated = 1
				}
				put(uint64(res.Generations), stagnated, math.Float64bits(res.Schedule.Makespan()),
					math.Float64bits(res.Schedule.AvgSlack()), math.Float64bits(res.MHEFT))
			}
		}
	}
	got := fmt.Sprintf("%x\n", h.Sum(nil))
	golden := filepath.Join("testdata", "weighted.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("weighted-sum runs differ from %s (refresh with -update): got %s want %s", golden, got, want)
	}
}
