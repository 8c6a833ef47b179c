// Command bench is the repository's benchmark: five workloads over the
// robust-scheduling pipeline, each a closed loop of requests from a single
// client, measured end to end, checked against stored output digests, and —
// in a separate traced pass — broken down by layer. See README.md.
//
// From the repository root:
//
//	bash bench/run.sh --workload solve_paper --seed 1 --seconds 10 --trace 0
//
// or, inside bench/:
//
//	go run . -workload mc_uniform -seed 3 -trace 1
//	go run . -seed 1 -reps 3      # every workload, each run a fresh child process
//	go run . -update              # regenerate testdata/digests.json
//
// `bench worker` serves the dist worker protocol on stdin/stdout; the
// sharded workload spawns it.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"robsched/internal/dist"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// threads is the number of threads running Go code in every process of the
// benchmark, its worker subprocesses included. On the 2-vCPU machine the
// benchmark was calibrated on, runs keeping both vCPUs busy varied by 10-40%
// from run to run with the load of the machine's other tenants, and
// single-threaded ones by 2-7%.
const threads = 1

func main() {
	runtime.GOMAXPROCS(threads)
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := dist.RunWorker(""); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			os.Exit(1)
		}
		return
	}
	table, err := loadDigests()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, table, full))
}

// run is the command behind a testable seam; it returns the exit code.
func run(args []string, stdout, stderr io.Writer, table digestTable, sc scale) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: fig_all, solve_paper, mc_uniform, mc_heavytail or sharded_solve (empty: all of them)")
		seed    = fs.Uint64("seed", 1, "seed every input is generated from")
		seconds = fs.Float64("seconds", 10, "measured seconds per run; at least one request always runs")
		trace   = fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics instead of the end-to-end ones")
		reps    = fs.Int("reps", 3, "with no -workload: runs per workload, each in a fresh child process")
		update  = fs.Bool("update", false, "regenerate testdata/digests.json from the current code")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *reps < 1 || *seconds < 0 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1, -reps at least 1 and -seconds not negative")
		return 2
	}
	switch {
	case *update:
		path := filepath.Join("testdata", "digests.json")
		if _, err := os.Stat(filepath.Join("bench", "testdata")); err == nil {
			path = filepath.Join("bench", path)
		}
		if err := updateDigests(path, sc, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	case *name == "":
		return runAll(*seed, *seconds, *reps, *trace, stdout, stderr)
	}
	wl, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := measure(wl, *seed, *seconds, *trace == 1, sc, table.want(wl.name, *seed), stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]stampInfo{"stamp": stamp(wl.name, *seed, 1)}); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// setupReps is how many times a run builds its workload from scratch, each
// time from a freshly collected heap; the set-up time reported is their
// median.
const setupReps = 5

// unitSeconds is what one reference unit counts for in setup_s, which must
// be given in seconds: set-up times are measured in reference units like
// every other time (see refUnit), and a unit is read as one millisecond —
// it takes 0.75 ms on the calibration machine in its faster state.
const unitSeconds = 1e-3

// replays bounds the traced requests replayed on the reference path.
const replays = 8

// measure makes one run: set-up, the measured loop and the reference check,
// plus — traced — a second loop through the layer wrappers, the replays and
// the probes.
func measure(wl workload, seed uint64, seconds float64, traced bool, sc scale, want []map[string]string, log io.Writer) (res result, err error) {
	var srv server
	var raw, units []float64
	for k := 0; k < setupReps; k++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return res, err
			}
		}
		runtime.GC()
		t := time.Now()
		if srv, err = wl.setup(seed, sc, traced); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t).Seconds()
		raw = append(raw, d)
		units = append(units, d/refSeconds())
	}
	defer func() {
		if cerr := srv.close(); err == nil {
			err = cerr
		}
	}()

	ck := &checker{want: want, log: log}
	if traced {
		// The untraced and the traced loop share the run's time.
		seconds /= 2
	}
	base, err := loop(srv, seconds, nil, ck, "request", nil)
	if err != nil {
		return res, err
	}
	if !traced {
		ps, rerr := srv.reference(0, nil)
		ck.check("reference", 0, ps, rerr, base.outs[0])
		res.Metrics = endToEnd(unitSeconds*median(units), base)
	} else if res.Metrics, err = tracedPass(srv, sc, seconds, base, ck); err != nil {
		return res, err
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return res, fmt.Errorf("metric %s is not finite", k)
		}
	}
	n, ref := len(base.lat), median(base.ref)
	fmt.Fprintf(log, "bench: %s seed %d: set-up %.1fms; %d requests in %.2fs; reference unit %.1fus; latency p50 %.3fms (%.2f ref)",
		wl.name, seed, 1e3*median(raw), n, base.wall.Seconds(), 1e6*ref, 1e3*median(base.lat), median(base.lat)/ref)
	if p := tailPercentile(n); p > 50 {
		x := quantile(base.lat, p/100)
		fmt.Fprintf(log, ", p%g %.3fms (%.2f ref)", p, 1e3*x, x/ref)
	}
	fmt.Fprintf(log, "; %d of %d checks failed\n", ck.failed, ck.attempted)
	res.Correct, res.Attempted, res.Failed = ck.failed == 0, ck.attempted, ck.failed
	return res, nil
}

func tracedPass(srv server, sc scale, seconds float64, base loopStats, ck *checker) (map[string]metric, error) {
	ws := srv.workers()
	var w0 wireCounts
	if ws != nil {
		w0 = ws.wire.snapshot()
	}
	lt := &layers{}
	tr, err := loop(srv, seconds, lt, ck, "traced request", base.outs)
	if err != nil {
		return nil, err
	}
	var wire wireCounts
	if ws != nil {
		wire = ws.wire.snapshot().sub(w0)
	}
	for i := 0; i < len(tr.outs) && i < replays; i++ {
		ps, err := srv.reference(i, lt)
		ck.check("reference", i, ps, err, tr.outs[i])
	}
	return perLayer(srv, sc, base, tr, lt, wire)
}

type loopStats struct {
	lat   []float64 // seconds per request
	cpu   []float64 // CPU seconds per request, of this process and its workers
	ref   []float64 // seconds per reference unit, timed between requests
	wall  time.Duration
	alloc uint64 // bytes this process allocated
	outs  []map[string]string
}

// loop serves requests 0, 1, 2, ... until the next one would end past
// seconds, checking each output; same, when set, holds another path's
// outputs of the same requests. After each request it times reference
// units worth a twentieth of the request, at least one.
func loop(srv server, seconds float64, lt *layers, ck *checker, what string, same []map[string]string) (loopStats, error) {
	var st loopStats
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	for i := 0; ; i++ {
		c0, cerr := cpuNow(srv.workers())
		t := time.Now()
		ps, err := srv.serve(i, lt)
		d := time.Since(t)
		c1, cerr1 := cpuNow(srv.workers())
		if cerr = errors.Join(cerr, cerr1); cerr != nil {
			return st, cerr
		}
		st.lat = append(st.lat, d.Seconds())
		st.cpu = append(st.cpu, (c1 - c0).Seconds())
		var other map[string]string
		if i < len(same) {
			other = same[i]
		}
		st.outs = append(st.outs, ck.check(what, i, ps, err, other))
		for spent := time.Duration(0); spent*20 < d || spent == 0; {
			t = time.Now()
			sink += refUnit()
			u := time.Since(t)
			st.ref = append(st.ref, u.Seconds())
			spent += u
		}
		if (time.Since(start) + d).Seconds() > seconds {
			break
		}
	}
	st.wall = time.Since(start)
	runtime.ReadMemStats(&ms)
	st.alloc = ms.TotalAlloc - alloc0
	return st, nil
}

func cpuNow(ws *workerSet) (time.Duration, error) {
	c, err := selfCPU()
	if ws == nil || err != nil {
		return c, err
	}
	w, err := ws.cpu()
	return c + w, err
}

// endToEnd reports the median CPU time of a request in reference units (see
// refUnit): unlike wall time, CPU time leaves out the time the machine ran
// other tenants' work on this process's CPU, and unlike a mean, the median
// leaves out the requests that ran through one of the machine's slow spells.
func endToEnd(setupS float64, st loopStats) map[string]metric {
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"cpu_p50_ref":      {median(st.cpu) / median(st.ref), "ref"},
		"alloc_kb_per_req": {float64(st.alloc) / 1e3 / float64(len(st.lat)), "KB"},
	}
}

// stampInfo says what produced a result line.
type stampInfo struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Reps       int    `json:"reps"`
	Commit     string `json:"commit"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
}

func stamp(workload string, seed uint64, reps int) stampInfo {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return stampInfo{
		Workload: workload, Seed: seed, Reps: reps, Commit: rev + dirty,
		GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), CPU: cpuModel(),
	}
}

// summary is one metric over the runs of a workload.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

// allLine is the line runAll prints per workload.
type allLine struct {
	Stamp     stampInfo          `json:"stamp"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailFrac  float64            `json:"fail_frac"`
	Metrics   map[string]summary `json:"metrics"`
}

// runAll runs every workload reps times, each run a fresh child process of
// this binary, and prints one stamped line per workload with the median and
// quartiles of every metric.
func runAll(seed uint64, seconds float64, reps, trace int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, wl := range workloads {
		line := allLine{Stamp: stamp(wl.name, seed, reps), Correct: true, Metrics: map[string]summary{}}
		vals := map[string][]float64{}
		for r := 0; r < reps; r++ {
			cmd := exec.Command(exe, "-workload", wl.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
			cmd.Stderr = stderr
			out, err := cmd.Output()
			res, perr := lastResult(out)
			if err != nil || perr != nil || !res.Correct {
				line.Correct, code = false, 1
			}
			if perr != nil {
				fmt.Fprintf(stderr, "bench: %s run %d: %v\n", wl.name, r, errors.Join(err, perr))
				continue
			}
			line.Attempted += res.Attempted
			line.Failed += res.Failed
			for k, m := range res.Metrics {
				vals[k] = append(vals[k], m.Value)
				line.Metrics[k] = summary{Unit: m.Unit}
			}
		}
		for k, xs := range vals {
			s := line.Metrics[k]
			s.Q1, s.Median, s.Q3 = quartiles(xs)
			line.Metrics[k] = s
		}
		if line.Attempted > 0 {
			line.FailFrac = float64(line.Failed) / float64(line.Attempted)
		}
		if err := json.NewEncoder(stdout).Encode(line); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// lastResult parses the result line a run printed last.
func lastResult(out []byte) (result, error) {
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines[len(lines)-1]) == 0 {
		return res, errors.New("no result line")
	}
	return res, json.Unmarshal(lines[len(lines)-1], &res)
}
