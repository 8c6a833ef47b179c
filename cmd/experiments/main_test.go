package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestFigAllWritesCSVs runs every figure at a tiny scale with -csv, pins
// the complete stdout against testdata/fig_all.golden and checks that
// Figs. 2–8 each leave a CSV with its header and at least one data row.
// Refresh the golden with: go test ./cmd/experiments -update
func TestFigAllWritesCSVs(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{
		"-fig", "all", "-graphs", "1", "-n", "8", "-m", "2",
		"-generations", "4", "-realizations", "20", "-workers", "1", "-csv", dir,
	}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d\nstderr:\n%s", code, stderr.String())
	}
	golden := filepath.Join("testdata", "fig_all.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("stdout differs from %s (refresh with -update):\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
	var trace []string
	for _, ul := range []string{"2.0", "4.0", "6.0", "8.0"} {
		for _, col := range []string{"Makespan", "Slack", "R1"} {
			trace = append(trace, `"UL=`+ul+","+col+`"`)
		}
	}
	traceHeader := "step," + strings.Join(trace, ",")
	const ulCols = "UL=2.0,UL=4.0,UL=6.0,UL=8.0"
	for name, header := range map[string]string{
		"fig2.csv": traceHeader,
		"fig3.csv": traceHeader,
		"fig4.csv": "UL,Makespan,R1,R2",
		"fig5.csv": "eps," + ulCols,
		"fig6.csv": "eps," + ulCols,
		"fig7.csv": "r," + ulCols,
		"fig8.csv": "r," + ulCols,
	} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if len(lines) < 2 {
			t.Fatalf("%s has %d lines, want a header and data", name, len(lines))
		}
		if lines[0] != header {
			t.Errorf("%s header %q, want %q", name, lines[0], header)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Errorf("no manifest next to the CSVs: %v", err)
	}
}

// TestUnknownFigFails: a -fig or -ablation value naming no figure or
// ablation is an error, reported on stderr with a non-zero exit status
// before anything runs.
func TestUnknownFigFails(t *testing.T) {
	for _, tc := range []struct{ flag, value, bad string }{
		{"-fig", "9", "9"},
		{"-fig", "2,x", "x"},
		{"-ablation", "nope", "nope"},
		{"-ablation", "seed,nope", "nope"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{tc.flag, tc.value}, &stdout, &stderr); code == 0 {
			t.Errorf("%s %s: exit status 0", tc.flag, tc.value)
		}
		if want := fmt.Sprintf("unknown %s %q", tc.flag, tc.bad); !strings.Contains(stderr.String(), want) {
			t.Errorf("%s %s: stderr %q does not name the bad value", tc.flag, tc.value, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s %s: ran before rejecting the value:\n%s", tc.flag, tc.value, stdout.String())
		}
	}
}
