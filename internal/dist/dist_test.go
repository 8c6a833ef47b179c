package dist

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"testing"

	"robsched/internal/gen"
	"robsched/internal/heft"
	"robsched/internal/obs"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/schedule"
	"robsched/internal/sim"
	"robsched/internal/wio"
)

// TestMain doubles as the worker executable for the proc-pool and TCP
// tests: when the re-exec marker is set, the test binary runs the full
// production worker entry point — the protocol on stdin/stdout, or a TCP
// server when the listen marker names an address — the same shape as
// `robsched worker`.
func TestMain(m *testing.M) {
	if os.Getenv("ROBSCHED_DIST_TEST_WORKER") == "1" {
		if err := RunWorker(os.Getenv("ROBSCHED_DIST_TEST_LISTEN")); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func testWorkload(t testing.TB, seed uint64, n, m int, meanUL float64) *platform.Workload {
	t.Helper()
	r := rng.New(seed)
	p := gen.PaperParams()
	p.N, p.M, p.MeanUL = n, m, meanUL
	w, err := gen.Random(p, r)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// testSchedules returns a few distinct schedules of the same workload (HEFT
// plus simple topological-order assignments).
func testSchedules(t testing.TB, w *platform.Workload) []*schedule.Schedule {
	t.Helper()
	hs, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		t.Fatal(err)
	}
	order := w.G.TopologicalOrder()
	zero, err := schedule.FromOrder(w, order, make([]int, w.N()))
	if err != nil {
		t.Fatal(err)
	}
	proc := make([]int, w.N())
	for i := range proc {
		proc[i] = i % w.M()
	}
	rr, err := schedule.FromOrder(w, order, proc)
	if err != nil {
		t.Fatal(err)
	}
	return []*schedule.Schedule{hs, zero, rr}
}

// metricsBitEqual compares every float field bit-for-bit (NaN-safe, unlike
// ==) and the integer fields directly.
func metricsBitEqual(a, b sim.Metrics) bool {
	fb := func(x float64) uint64 { return math.Float64bits(x) }
	return a.Realizations == b.Realizations &&
		fb(a.M0) == fb(b.M0) &&
		fb(a.MeanMakespan) == fb(b.MeanMakespan) &&
		fb(a.StdMakespan) == fb(b.StdMakespan) &&
		fb(a.MinMakespan) == fb(b.MinMakespan) &&
		fb(a.MaxMakespan) == fb(b.MaxMakespan) &&
		fb(a.MeanTardiness) == fb(b.MeanTardiness) &&
		fb(a.MissRate) == fb(b.MissRate) &&
		fb(a.R1) == fb(b.R1) &&
		fb(a.R2) == fb(b.R2) &&
		fb(a.P50) == fb(b.P50) &&
		fb(a.P95) == fb(b.P95) &&
		fb(a.P99) == fb(b.P99) &&
		fb(a.DeadlineMissRate) == fb(b.DeadlineMissRate)
}

// TestShardedEvaluateAllBitIdentical is the headline acceptance property:
// for every shard count the sharded metrics — exact quantiles included —
// equal the single-process sim.EvaluateAll bit for bit, and the root stream
// advances identically (so anything drawn after the call agrees too).
func TestShardedEvaluateAllBitIdentical(t *testing.T) {
	w := testWorkload(t, 3, 40, 4, 4)
	ss := testSchedules(t, w)
	for _, antithetic := range []bool{false, true} {
		opt := sim.Options{Realizations: 257, Antithetic: antithetic, Workers: 1}
		wantRoot := rng.New(11)
		want, err := sim.EvaluateAll(ss, opt, wantRoot)
		if err != nil {
			t.Fatal(err)
		}
		wantNext := wantRoot.Uint64()
		for _, shards := range []int{1, 2, 3, 4, 8} {
			pool := NewLocalPool(shards)
			coord := &Coordinator{Pool: pool}
			root := rng.New(11)
			got, err := coord.EvaluateAll(ss, opt, root)
			if err != nil {
				t.Fatalf("antithetic=%v shards=%d: %v", antithetic, shards, err)
			}
			if gotNext := root.Uint64(); gotNext != wantNext {
				t.Errorf("antithetic=%v shards=%d: root stream diverged after the call", antithetic, shards)
			}
			for j := range ss {
				if !metricsBitEqual(got[j], want[j]) {
					t.Errorf("antithetic=%v shards=%d schedule %d: metrics differ:\n got %+v\nwant %+v",
						antithetic, shards, j, got[j], want[j])
				}
			}
			if err := pool.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestShardedRealizeAllVectors pins the raw makespan vectors (the gathered
// windows in range order) against the single-process run, with an uneven
// realization count so every shard width differs.
func TestShardedRealizeAllVectors(t *testing.T) {
	w := testWorkload(t, 5, 30, 3, 3)
	ss := testSchedules(t, w)
	opt := sim.Options{Realizations: 101, Workers: 1}
	want, err := sim.RealizeAll(ss, opt, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 8} {
		pool := NewLocalPool(shards)
		coord := &Coordinator{Pool: pool}
		got, err := coord.RealizeAll(ss, opt, rng.New(21))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for j := range ss {
			for i := range want[j] {
				if math.Float64bits(got[j][i]) != math.Float64bits(want[j][i]) {
					t.Fatalf("shards=%d schedule %d realization %d: %v != %v",
						shards, j, i, got[j][i], want[j][i])
				}
			}
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// sabotagedEndpoint builds a worker that accepts jobs frames and then dies
// without responding — severing its response pipe mid-job, the way a killed
// process looks from the coordinator's side.
func sabotagedEndpoint() Endpoint {
	jobR, jobW := io.Pipe()
	resR, resW := io.Pipe()
	go func() {
		// Read one frame (the job), then die silently.
		_, _, _ = wio.NewFrameReader(jobR).Read()
		resW.CloseWithError(io.ErrClosedPipe)
		jobR.CloseWithError(io.ErrClosedPipe)
	}()
	return Endpoint{
		W:    jobW,
		R:    resR,
		Kill: func() { jobW.CloseWithError(io.ErrClosedPipe); resR.CloseWithError(io.ErrClosedPipe) },
	}
}

// TestWorkerKillMidRange kills a worker after it receives its range; the
// coordinator must discard it, reassign the window to a live worker and
// produce bit-identical final metrics.
func TestWorkerKillMidRange(t *testing.T) {
	w := testWorkload(t, 7, 30, 3, 3)
	ss := testSchedules(t, w)
	opt := sim.Options{Realizations: 120, Workers: 1}
	want, err := sim.EvaluateAll(ss, opt, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool([]Endpoint{sabotagedEndpoint(), LocalEndpoint(), LocalEndpoint()})
	defer pool.Close()
	reg := obs.NewRegistry()
	coord := &Coordinator{Pool: pool, Obs: reg}
	got, err := coord.EvaluateAll(ss, opt, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for j := range ss {
		if !metricsBitEqual(got[j], want[j]) {
			t.Errorf("schedule %d: metrics differ after worker death:\n got %+v\nwant %+v", j, got[j], want[j])
		}
	}
	if n := reg.Counter("dist.worker_deaths").Value(); n != 1 {
		t.Errorf("worker_deaths = %d, want 1", n)
	}
	if n := reg.Counter("dist.inline_ranges").Value(); n != 0 {
		t.Errorf("inline_ranges = %d, want 0 (range must be reassigned, not inlined)", n)
	}
	if live := pool.Live(); live != 2 {
		t.Errorf("live workers = %d, want 2", live)
	}
}

// TestAllWorkersDeadFallsBackInline: with every worker dead the coordinator
// realizes the windows itself — same seeds, same base, same results.
func TestAllWorkersDeadFallsBackInline(t *testing.T) {
	w := testWorkload(t, 7, 20, 3, 3)
	ss := testSchedules(t, w)
	opt := sim.Options{Realizations: 60, Workers: 1}
	want, err := sim.EvaluateAll(ss, opt, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool([]Endpoint{sabotagedEndpoint(), sabotagedEndpoint()})
	defer pool.Close()
	reg := obs.NewRegistry()
	coord := &Coordinator{Pool: pool, Obs: reg}
	got, err := coord.EvaluateAll(ss, opt, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	for j := range ss {
		if !metricsBitEqual(got[j], want[j]) {
			t.Errorf("schedule %d: inline fallback metrics differ", j)
		}
	}
	if n := reg.Counter("dist.inline_ranges").Value(); n == 0 {
		t.Error("expected at least one inline range")
	}
	if live := pool.Live(); live != 0 {
		t.Errorf("live workers = %d, want 0", live)
	}
}

// TestKillWorkerInjection exercises the public fault-injection hook: kill a
// pool worker up front and run a sharded evaluation over what remains.
func TestKillWorkerInjection(t *testing.T) {
	w := testWorkload(t, 9, 20, 3, 3)
	ss := testSchedules(t, w)
	opt := sim.Options{Realizations: 77, Workers: 1}
	want, err := sim.EvaluateAll(ss, opt, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewLocalPool(4)
	defer pool.Close()
	pool.KillWorker(2)
	coord := &Coordinator{Pool: pool}
	got, err := coord.EvaluateAll(ss, opt, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for j := range ss {
		if !metricsBitEqual(got[j], want[j]) {
			t.Errorf("schedule %d: metrics differ after injected kill", j)
		}
	}
}

// schedulesEqual compares the full assignment and per-processor orders.
func schedulesEqual(a, b *schedule.Schedule) bool {
	ap, bp := a.ProcAssignment(), b.ProcAssignment()
	if len(ap) != len(bp) {
		return false
	}
	for i := range ap {
		if ap[i] != bp[i] {
			return false
		}
	}
	for p := 0; p < a.Workload().M(); p++ {
		ao, bo := a.ProcOrder(p), b.ProcOrder(p)
		if len(ao) != len(bo) {
			return false
		}
		for i := range ao {
			if ao[i] != bo[i] {
				return false
			}
		}
	}
	return math.Float64bits(a.Makespan()) == math.Float64bits(b.Makespan())
}

// TestIslandSolveBitIdentical drives the island-sharded solve against the
// in-process robust.Solve with the same root seed: for every worker count
// the returned schedule, generation count and stagnation flag must match
// exactly — the trajectories are the same computation. The workers must
// have run every epoch: a solve that fell back in process would match too.
func TestIslandSolveBitIdentical(t *testing.T) {
	w := testWorkload(t, 13, 25, 3, 3)
	cases := []robust.Options{
		{
			Mode:    robust.MinMakespan,
			PopSize: 10, CrossoverRate: 0.9, MutationRate: 0.1,
			MaxGenerations: 40, Stagnation: 0,
			Islands: 3, MigrationEvery: 10,
		},
		{
			Mode: robust.EpsilonConstraint, Eps: 1.5,
			PopSize: 10, CrossoverRate: 0.9, MutationRate: 0.1,
			MaxGenerations: 60, Stagnation: 12,
			Islands: 4, MigrationEvery: 8,
		},
	}
	for ci, opt := range cases {
		want, err := robust.Solve(w, opt, rng.New(31))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3} {
			pool := NewLocalPool(workers)
			reg := obs.NewRegistry()
			coord := &Coordinator{Pool: pool, Obs: reg}
			got, err := coord.Solve(w, opt, rng.New(31))
			if err != nil {
				t.Fatalf("case %d workers=%d: %v", ci, workers, err)
			}
			checkHosted(t, fmt.Sprintf("case %d workers=%d", ci, workers), reg, workers)
			if got.Generations != want.Generations || got.Stagnated != want.Stagnated {
				t.Errorf("case %d workers=%d: run shape (%d, %v), want (%d, %v)",
					ci, workers, got.Generations, got.Stagnated, want.Generations, want.Stagnated)
			}
			if math.Float64bits(got.MHEFT) != math.Float64bits(want.MHEFT) {
				t.Errorf("case %d workers=%d: MHEFT %v != %v", ci, workers, got.MHEFT, want.MHEFT)
			}
			if !schedulesEqual(got.Schedule, want.Schedule) {
				t.Errorf("case %d workers=%d: schedules differ (makespan %v vs %v)",
					ci, workers, got.Schedule.Makespan(), want.Schedule.Makespan())
			}
			if err := pool.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestConcurrentSolvesSharePool: Solve calls may share one pool. Three
// concurrent solves on two workers each match robust.Solve: hosting never
// waits for a busy worker, so a call that finds none idle solves in
// process. No worker is counted dead.
func TestConcurrentSolvesSharePool(t *testing.T) {
	w := testWorkload(t, 13, 20, 3, 3)
	opt := defaultIslandOpts()
	want, err := robustSolveRef(t, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewLocalPool(2)
	defer pool.Close()
	reg := obs.NewRegistry()
	coord := &Coordinator{Pool: pool, Obs: reg}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := coord.Solve(w, opt, rng.New(31))
			if err != nil {
				t.Errorf("solve %d: %v", g, err)
				return
			}
			checkSolveMatches(t, fmt.Sprintf("solve %d", g), got, want)
		}()
	}
	wg.Wait()
	if d := reg.Counter("dist.worker_deaths").Value(); d != 0 || pool.Live() != 2 {
		t.Errorf("%d worker deaths, %d live workers; want 0 and 2", d, pool.Live())
	}
}

// TestIslandSolveRejectsHooks: per-generation callbacks cannot cross the
// process boundary and must be rejected up front.
func TestIslandSolveRejectsHooks(t *testing.T) {
	w := testWorkload(t, 1, 10, 2, 2)
	pool := NewLocalPool(1)
	defer pool.Close()
	coord := &Coordinator{Pool: pool}
	opt := robust.Options{
		Mode: robust.MinMakespan, PopSize: 6, CrossoverRate: 0.9, MutationRate: 0.1,
		MaxGenerations: 5, Islands: 2,
	}
	bad := opt
	bad.OnGeneration = func(int, *robust.Chromosome) {}
	if _, err := coord.Solve(w, bad, rng.New(1)); err == nil {
		t.Error("OnGeneration accepted across processes")
	}
	single := opt
	single.Islands = 1
	if _, err := coord.Solve(w, single, rng.New(1)); err == nil {
		t.Error("Islands=1 accepted (nothing to shard)")
	}
}

// TestProcPoolRoundTrip runs real OS worker subprocesses (the test binary
// re-execs into ServeWorker) through the full scatter/gather path.
func TestProcPoolRoundTrip(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("no executable path: %v", err)
	}
	t.Setenv("ROBSCHED_DIST_TEST_WORKER", "1")
	pool, err := NewSpawnPool(2, ProcEndpoint(exe))
	if err != nil {
		t.Fatalf("spawning workers: %v", err)
	}
	defer pool.Close()
	w := testWorkload(t, 17, 20, 3, 3)
	ss := testSchedules(t, w)
	opt := sim.Options{Realizations: 64, Workers: 1}
	want, err := sim.EvaluateAll(ss, opt, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	coord := &Coordinator{Pool: pool}
	got, err := coord.EvaluateAll(ss, opt, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for j := range ss {
		if !metricsBitEqual(got[j], want[j]) {
			t.Errorf("schedule %d: metrics differ across process boundary", j)
		}
	}
}

// TestCountersFreeWithTelemetryOff: with no registry the coordinator's
// per-worker counters build no names, so every range and every barrier
// host pays nothing for telemetry that is off.
func TestCountersFreeWithTelemetryOff(t *testing.T) {
	c := &Coordinator{}
	if a := testing.AllocsPerRun(100, func() {
		c.counter("sim_ranges", 3)
		c.noteDeath(1, ErrDeadline)
	}); a != 0 {
		t.Fatalf("%v allocations per call with Obs nil, want 0", a)
	}
}
