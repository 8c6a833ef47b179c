package heft

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

	"robsched/internal/gen"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

var update = flag.Bool("update", false, "rewrite golden files")

// pinnedSchedulers are the deterministic baselines TestListSchedulersPinned
// holds to stored bytes.
var pinnedSchedulers = []struct {
	name string
	run  func(*platform.Workload) (*schedule.Schedule, error)
}{
	{"heft", func(w *platform.Workload) (*schedule.Schedule, error) { return HEFT(w, Options{}) }},
	{"heft-noinsert", func(w *platform.Workload) (*schedule.Schedule, error) { return HEFT(w, Options{NoInsertion: true}) }},
	{"cpop", func(w *platform.Workload) (*schedule.Schedule, error) { return CPOP(w, Options{}) }},
	{"peft", func(w *platform.Workload) (*schedule.Schedule, error) { return PEFT(w, Options{}) }},
	{"minmin", func(w *platform.Workload) (*schedule.Schedule, error) { return Batch(w, MinMin) }},
	{"maxmin", func(w *platform.Workload) (*schedule.Schedule, error) { return Batch(w, MaxMin) }},
}

// pinnedWorkloads returns the paper generator's random graphs over n, m and
// CCR, then one graph of each workflow family, each from its own seed.
func pinnedWorkloads(t *testing.T) (names []string, ws []*platform.Workload) {
	t.Helper()
	seed := uint64(100)
	for _, n := range []int{30, 100} {
		for _, m := range []int{3, 8} {
			for _, ccr := range []float64{0.1, 1, 10} {
				p := gen.PaperParams()
				p.N, p.M, p.CCR = n, m, ccr
				seed++
				w, err := gen.Random(p, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				names = append(names, fmt.Sprintf("random-n%d-m%d-ccr%g", n, m, ccr))
				ws = append(ws, w)
			}
		}
	}
	for _, shape := range gen.WorkflowShapes() {
		p := gen.PaperParams()
		p.M = 4
		seed++
		w, err := gen.WorkflowByName(shape, 8, p, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, shape)
		ws = append(ws, w)
	}
	return names, ws
}

// scheduleDigest hashes what a list scheduler decides: the processor of
// every task, each processor's task order, and the makespan's bits.
func scheduleDigest(s *schedule.Schedule) [sha256.Size]byte {
	h := sha256.New()
	put := func(x uint64) { _ = binary.Write(h, binary.LittleEndian, x) }
	for _, p := range s.ProcAssignment() {
		put(uint64(p))
	}
	for p := 0; p < s.Workload().M(); p++ {
		order := s.ProcOrder(p)
		put(uint64(len(order)))
		for _, v := range order {
			put(uint64(v))
		}
	}
	put(math.Float64bits(s.Makespan()))
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestListSchedulersPinned holds every list and batch scheduler to stored
// digests of its schedules on the paper's random graphs (n 30 and 100, m 3
// and 8, CCR 0.1, 1 and 10) and on the three workflow families. Refresh
// with -update only when a scheduler is meant to change its decisions.
func TestListSchedulersPinned(t *testing.T) {
	names, ws := pinnedWorkloads(t)
	var b strings.Builder
	for i, w := range ws {
		for _, sc := range pinnedSchedulers {
			s, err := sc.run(w)
			if err != nil {
				t.Fatalf("%s on %s: %v", sc.name, names[i], err)
			}
			mustValidate(t, s)
			fmt.Fprintf(&b, "%s %s %x\n", sc.name, names[i], scheduleDigest(s))
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "schedules.golden")
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
		t.Errorf("schedules differ from %s (refresh with -update):\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}
}
