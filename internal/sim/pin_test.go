package sim

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

	"robsched/internal/rng"
	"robsched/internal/schedule"
)

var update = flag.Bool("update", false, "rewrite golden files")

// makespanDigest hashes the float64 bits of every makespan vector, schedule
// by schedule in realization order.
func makespanDigest(mks [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range mks {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRealizeAllPinned pins the sampled makespans to stored SHA-256 digests
// in testdata/realize.golden: the paper's uniform model and every
// modelCases() entry, antithetic off and on, over three schedule sets (HEFT
// alone, HEFT plus two round-robin schedules, and HEFT twice) on a 30×4
// random workload and on one with mean UL 1, where many pairs are
// degenerate and consume no draw. Any change to the draw order, the
// transforms or the gather that alters a single bit shows up here.
// Refresh with: go test ./internal/sim -update
func TestRealizeAllPinned(t *testing.T) {
	cases := append([]Options{{}}, modelCases()...)
	var lines []string
	for _, ws := range []struct {
		name string
		ul   float64
	}{{"random", 4}, {"ul1", 1}} {
		w := testWorkload(t, 31, 30, 4, ws.ul)
		heft := heftSchedule(t, w)
		sets := []struct {
			name string
			ss   []*schedule.Schedule
		}{
			{"heft", []*schedule.Schedule{heft}},
			{"heft+rr2", benchSchedules(t, w, 3)},
			{"heft,heft", []*schedule.Schedule{heft, heft}},
		}
		for _, opt := range cases {
			for _, anti := range []bool{false, true} {
				for _, set := range sets {
					o := opt
					o.Realizations = 97
					o.Antithetic = anti
					mks, err := RealizeAll(set.ss, o, rng.New(4242))
					if err != nil {
						t.Fatal(err)
					}
					lines = append(lines, fmt.Sprintf("%s/%s-%s/anti=%v/%s %s",
						ws.name, o.Model, o.Corr, anti, set.name, makespanDigest(mks)))
				}
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "realize.golden")
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
		t.Errorf("makespan vectors differ from %s (refresh with -update):\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}
}
