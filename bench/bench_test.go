package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"robsched/internal/dist"
)

// TestMain lets the test binary serve as the sharded workload's worker, as
// the bench binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := dist.RunWorker(""); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var tiny = scale{
	n: 20, m: 3, realizations: 40,
	figRealizations: 20, figGenerations: 10,
	solvePool: 2, mcPool: 2, heavyPool: 4, shardPool: 2,
	generations: 20, shardGenerations: 20, migrateEvery: 5,
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q1, q2, q3 := quartiles(xs); q1 != 2 || q2 != 3 || q3 != 4 {
		t.Errorf("quartiles = %g %g %g, want 2 3 4", q1, q2, q3)
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %g, want 2.5", got)
	}
	if got := quantile([]float64{10, 20}, 0.9); math.Abs(got-19) > 1e-12 {
		t.Errorf("p90 of {10, 20} = %g, want 19", got)
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("p90 of one sample = %g, want it", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("median of nothing = %g, want NaN", got)
	}
}

// TestTailPercentile pins the reporting rule: the highest percentile with
// at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// benchmarkJSON is the part of the repository's BENCHMARK.json the tests
// hold the program to.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestWorkloadsSmoke runs every workload at a tiny scale, one request per
// loop: untraced, then traced, where the traced outputs must equal the
// untraced ones and the replays on the reference path (sharded against in
// process among them) must equal the traced ones. Every run must report
// exactly the metrics BENCHMARK.json names, with their units.
func TestWorkloadsSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for i, wl := range workloads {
		if i >= len(names) || names[i] != wl.name || bj.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json lists %v, the program runs %q", i, names, wl.name)
		}
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	wantE2E, wantLayer := units(bj.EndToEnd), units(bj.PerLayer)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				var log bytes.Buffer
				res, err := measure(wl, 7, 0, traced, tiny, nil, &log)
				if err != nil {
					t.Fatalf("traced=%v: %v\n%s", traced, err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
					t.Fatalf("traced=%v: %d of %d checks failed\n%s", traced, res.Failed, res.Attempted, log.String())
				}
				want := wantE2E
				if traced {
					want = wantLayer
				}
				got := map[string]string{}
				for k, m := range res.Metrics {
					got[k] = m.Unit
				}
				if !maps.Equal(got, want) {
					t.Errorf("traced=%v: metrics %v, BENCHMARK.json names %v", traced, sortedKeys(got), sortedKeys(want))
				}
			}
		})
	}
}

// TestCorruptedDigestFails checks that an output differing from its stored
// digest fails every check it reaches and the run exits non-zero.
func TestCorruptedDigestFails(t *testing.T) {
	table := digestTable{"mc_heavytail": {"7": {{"metrics": strings.Repeat("0", 16)}}}}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "mc_heavytail", "-seed", "7", "-seconds", "0"}, &stdout, &stderr, table, tiny)
	if code == 0 {
		t.Fatalf("exit code 0 with a corrupted digest\n%s", stderr.String())
	}
	res, err := lastResult(stdout.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Errorf("correct=%v, %d of %d checks failed; want every check failed", res.Correct, res.Failed, res.Attempted)
	}
}

// TestStoredDigests checks that the embedded table covers the leading
// requests of every workload at every recorded seed.
func TestStoredDigests(t *testing.T) {
	table, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		for seed := uint64(0); seed <= digestSeeds; seed++ {
			if got := len(table.want(wl.name, seed)); got != storedRequests {
				t.Errorf("%s seed %d: %d stored requests, want %d", wl.name, seed, got, storedRequests)
			}
		}
	}
	if got := table.want("fig_all", 1); len(got) == 0 || len(got[0]) != 8 {
		t.Errorf("fig_all seed 1: %v, want fig1.txt and fig2..fig8.csv per request", got)
	}
}

// TestRecordedFigAll runs the recorded config the fig_all requests are cut
// from — `experiments -fig all -n 100 -m 8 -graphs 20 -realizations 500
// -generations 300` — and checks its CSVs against the SHA-256 prefixes of
// the files cmd/experiments writes for it.
func TestRecordedFigAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full recorded config")
	}
	ps, err := figProducts(figConfig(1, full, 20, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"fig2.csv": "2901851e", "fig3.csv": "4a94db08", "fig4.csv": "8b709707", "fig5.csv": "70322e27",
		"fig6.csv": "8dee2b8f", "fig7.csv": "c8dddaaf", "fig8.csv": "405d8a10",
	}
	got := map[string]string{}
	for _, p := range ps {
		sum := sha256.Sum256(p.data)
		if _, ok := want[p.name]; ok {
			got[p.name] = hex.EncodeToString(sum[:4])
		}
	}
	if !maps.Equal(got, want) {
		t.Errorf("CSV SHA-256 prefixes %v, want %v", got, want)
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
