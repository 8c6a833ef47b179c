package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"robsched/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenArgs is the pinned CLI invocation: a small GA run with a fixed
// seed, a fixed generation budget (stagnation disabled) and one worker, so
// that every line of output — including the telemetry summary, where
// worker claim counts depend on the worker count — is deterministic.
func goldenArgs(tracePath string) []string {
	return []string{
		"-n", "12", "-m", "3", "-seed", "1",
		"-scheduler", "ga", "-generations", "40", "-pop", "12", "-stagnation", "0",
		"-realizations", "200", "-workers", "1",
		"-obs", tracePath,
	}
}

func runGolden(t *testing.T) (stdout string, tracePath string) {
	t.Helper()
	tracePath = filepath.Join(t.TempDir(), "trace.jsonl")
	var out, errb bytes.Buffer
	if err := run(goldenArgs(tracePath), &out, &errb); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errb.String())
	}
	return out.String(), tracePath
}

// TestGoldenGARun pins the complete stdout of a GA run — the comparison
// table, the summary line and the observability block — against
// testdata/ga_run.golden. Refresh with: go test ./cmd/robsched -update
func TestGoldenGARun(t *testing.T) {
	got, _ := runGolden(t)
	golden := filepath.Join("testdata", "ga_run.golden")
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
		t.Errorf("output differs from %s (refresh with -update):\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

// TestGoldenGARunDeterministic re-runs the pinned invocation and requires
// bit-identical stdout — the property the golden file depends on.
func TestGoldenGARunDeterministic(t *testing.T) {
	a, _ := runGolden(t)
	b, _ := runGolden(t)
	if a != b {
		t.Error("two identical invocations produced different stdout")
	}
}

// TestTraceMatchesRun parses the JSONL trace of the pinned run and checks
// the final registry snapshot against the run the CLI itself reported:
// exactly the configured GA generations, exactly the configured
// realizations, and internally consistent cache traffic.
func TestTraceMatchesRun(t *testing.T) {
	stdout, tracePath := runGolden(t)
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var (
		events, spans int
		genEvents     int
		final         *obs.Snapshot
	)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec obs.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable trace line %q: %v", line, err)
		}
		switch rec.Kind {
		case "event":
			events++
			if rec.Scope == "ga" && rec.Name == "generation" {
				genEvents++
			}
		case "span":
			spans++
		case "snapshot":
			if rec.Name != "final" {
				t.Errorf("unexpected snapshot %q", rec.Name)
			}
			if final != nil {
				t.Error("more than one final snapshot")
			}
			final = rec.Registry
		}
	}
	if final == nil {
		t.Fatal("trace has no final registry snapshot")
	}
	if events == 0 || spans == 0 {
		t.Errorf("trace has %d events / %d spans, want both > 0", events, spans)
	}

	// -generations 40 with -stagnation 0 runs the full budget; the
	// registry only counts post-initialization generations, while the
	// trace also carries the gen-0 event.
	if got := final.Counters["ga.generations"]; got != 40 {
		t.Errorf("ga.generations = %d, want 40", got)
	}
	if genEvents != 41 {
		t.Errorf("ga/generation events = %d, want 41 (gen 0 + 40 generations)", genEvents)
	}
	if got := final.Counters["sim.realizations"]; got != 200 {
		t.Errorf("sim.realizations = %d, want 200", got)
	}
	if got := final.Counters["sim.realize_calls"]; got != 1 {
		t.Errorf("sim.realize_calls = %d, want 1", got)
	}
	if got := final.Counters["sim.schedules"]; got != 2 {
		t.Errorf("sim.schedules = %d, want 2 (chosen + HEFT baseline)", got)
	}
	if hits, misses := final.Counters["cache.hits"], final.Counters["cache.misses"]; hits == 0 || misses == 0 {
		t.Errorf("cache traffic hits=%d misses=%d, want both > 0", hits, misses)
	}

	// The stdout the user saw must agree with the trace: the GA line
	// reports the same generation count the registry recorded.
	if !strings.Contains(stdout, "GA: 40 generations") {
		t.Errorf("stdout does not report the 40 generations the registry counted:\n%s", stdout)
	}
	if !strings.Contains(stdout, "--- observability ---") {
		t.Error("stdout is missing the observability summary block")
	}
}

// TestGoldenScenarioRun pins the complete stdout of a -scenario run — a
// workflow-shaped workload under a heavy-tailed duration model — against
// testdata/scenario_run.golden. Refresh with: go test ./cmd/robsched -update
func TestGoldenScenarioRun(t *testing.T) {
	args := []string{
		"-scenario", "montage-lognormal", "-n", "40", "-m", "3", "-seed", "5",
		"-scheduler", "ga", "-generations", "30", "-pop", "12", "-stagnation", "0",
		"-realizations", "200", "-workers", "1",
	}
	var out, errb bytes.Buffer
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errb.String())
	}
	got := out.String()
	if !strings.Contains(got, "scenario: montage-lognormal (family montage, durations lognormal)") {
		t.Errorf("stdout does not announce the scenario:\n%s", got)
	}
	golden := filepath.Join("testdata", "scenario_run.golden")
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
		t.Errorf("output differs from %s (refresh with -update):\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

// TestRunBadFlags pins that errors surface through the run seam instead of
// exiting the process.
func TestRunBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-scheduler", "nope"}, &out, &errb); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if err := run([]string{"-definitely-not-a-flag"}, &out, &errb); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-scenario", "nope-uniform"}, &out, &errb); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run([]string{"-scenario", "montage", "-workload", "w.json"}, &out, &errb); err == nil {
		t.Error("-scenario with -workload accepted")
	}
	for _, sched := range []string{"ga", "anneal"} {
		if err := run([]string{"-n", "10", "-m", "2", "-scheduler", sched, "-eps", "NaN"}, &out, &errb); err == nil {
			t.Errorf("-scheduler %s -eps NaN accepted", sched)
		}
	}
	if err := run([]string{"-n", "10", "-m", "2", "-scheduler", "weighted", "-weight", "NaN"}, &out, &errb); err == nil {
		t.Error("-weight NaN accepted")
	}
	for _, shape := range []string{"NaN", "Inf"} {
		if err := run([]string{"-n", "20", "-m", "2", "-shape", shape}, &out, &errb); err == nil || !strings.Contains(err.Error(), "Shape") {
			t.Errorf("-shape %s: err = %v, want an error naming Shape", shape, err)
		}
	}
}

// TestRunWideShape: a shape parameter above 2·sqrt(n) asks for fewer than
// one level; the generator builds two instead of panicking.
func TestRunWideShape(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-n", "20", "-m", "2", "-shape", "9", "-scheduler", "heft", "-realizations", "20", "-q"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
}

// TestRepairAndFaultsUnderEveryScenarioModel: -repair and -faults sample the
// scenario's duration model, as the main evaluation does. Every model runs
// both lanes, prints identical stdout twice, and prints repair and fault
// lines of its own rather than the uniform model's.
func TestRepairAndFaultsUnderEveryScenarioModel(t *testing.T) {
	lanes := func(model string) []string {
		args := []string{"-scenario", "random-" + model, "-n", "20", "-m", "3", "-seed", "5",
			"-scheduler", "heft", "-realizations", "20", "-q", "-repair", "0.05", "-faults", "auto"}
		var out [2]string
		for i := range out {
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("%s: %v", model, err)
			}
			out[i] = stdout.String()
		}
		if out[0] != out[1] {
			t.Errorf("%s: two identical invocations printed\n%s\nand\n%s", model, out[0], out[1])
		}
		var repair, faults string
		for _, line := range strings.Split(out[0], "\n") {
			switch {
			case strings.HasPrefix(line, "repair "):
				repair = line
			case strings.HasPrefix(line, "faults: "):
				faults = line
			}
		}
		if repair == "" || faults == "" {
			t.Fatalf("%s: no repair or fault line in\n%s", model, out[0])
		}
		return []string{repair, faults}
	}
	uniform := lanes("uniform")
	for _, model := range []string{"lognormal", "pareto", "correlated"} {
		got := lanes(model)
		for i, line := range got {
			if line == uniform[i] {
				t.Errorf("%s printed the uniform model's line %q", model, line)
			}
		}
	}
}
