package dist

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"robsched/internal/obs"
	"robsched/internal/rng"
	"robsched/internal/sim"
)

// testWorkerServers starts n in-process TCP worker servers on loopback and
// returns their addresses. Each is torn down with the test.
func testWorkerServers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := ListenWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve() }()
		t.Cleanup(srv.Shutdown)
		addrs[i] = srv.Addr()
	}
	return addrs
}

// TestTCPEvaluateAllBitIdentical is the loopback-TCP form of the headline
// acceptance property: for every worker count the sharded metrics equal the
// single-process run bit for bit — the socket transport changes nothing.
func TestTCPEvaluateAllBitIdentical(t *testing.T) {
	w := testWorkload(t, 3, 30, 3, 3)
	ss := testSchedules(t, w)
	opt := sim.Options{Realizations: 157, Workers: 1}
	wantRoot := rng.New(11)
	want, err := sim.EvaluateAll(ss, opt, wantRoot)
	if err != nil {
		t.Fatal(err)
	}
	wantNext := wantRoot.Uint64()
	for _, workers := range []int{1, 2, 4} {
		addrs := testWorkerServers(t, workers)
		pool, err := NewSpawnPool(len(addrs), TCPSpawner(addrs, 0))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		coord := &Coordinator{Pool: pool, Timeout: 5 * time.Second}
		root := rng.New(11)
		got, err := coord.EvaluateAll(ss, opt, root)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if gotNext := root.Uint64(); gotNext != wantNext {
			t.Errorf("workers=%d: root stream diverged after the call", workers)
		}
		for j := range ss {
			if !metricsBitEqual(got[j], want[j]) {
				t.Errorf("workers=%d schedule %d: metrics differ over TCP:\n got %+v\nwant %+v",
					workers, j, got[j], want[j])
			}
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTCPSolveBitIdentical runs the island solve over loopback TCP for
// several worker counts: same trajectory, same schedule, bit for bit.
func TestTCPSolveBitIdentical(t *testing.T) {
	w := testWorkload(t, 13, 20, 3, 3)
	opt := defaultIslandOpts()
	want, err := robustSolveRef(t, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		addrs := testWorkerServers(t, workers)
		pool, err := NewSpawnPool(len(addrs), TCPSpawner(addrs, 0))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		reg := obs.NewRegistry()
		coord := &Coordinator{Pool: pool, Obs: reg, Timeout: 5 * time.Second}
		got, err := coord.Solve(w, opt, rng.New(31))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		tag := fmt.Sprintf("tcp workers=%d", workers)
		checkSolveMatches(t, tag, got, want)
		checkHosted(t, tag, reg, min(workers, opt.Islands))
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTCPWorkerSIGTERMMidRange runs the production worker entry point as a
// real OS subprocess listening on TCP. An evaluation over it matches the
// in-process run bit for bit. A second evaluation sends the worker SIGTERM
// once it has answered its first range, and forwards that answer only
// after the process is gone: the worker must die of the signal at once,
// and the coordinator must count one death, realize the remaining ranges
// in process and still match bit for bit, without hanging.
func TestTCPWorkerSIGTERMMidRange(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("no executable path: %v", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"ROBSCHED_DIST_TEST_WORKER=1",
		"ROBSCHED_DIST_TEST_LISTEN=127.0.0.1:0",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cmd.Process.Kill() }()
	// The worker prints its resolved listen address on stdout.
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("reading worker banner: %v", err)
	}
	addr := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "listening on "))

	w := testWorkload(t, 17, 15, 3, 3)
	ss := testSchedules(t, w)
	opt := sim.Options{Realizations: 48, Workers: 1}
	want, err := sim.EvaluateAll(ss, opt, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	check := func(tag string, got []sim.Metrics) {
		t.Helper()
		for j := range ss {
			if !metricsBitEqual(got[j], want[j]) {
				t.Errorf("%s: schedule %d: metrics differ from the in-process run", tag, j)
			}
		}
	}
	pool, err := NewSpawnPool(1, TCPSpawner([]string{addr}, 0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&Coordinator{Pool: pool, Timeout: 5 * time.Second}).EvaluateAll(ss, opt, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	check("subprocess TCP worker", got)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}

	ep, err := DialWorker(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	signalled := false
	pool = NewPool([]Endpoint{relayResponses(ep, func(kind byte, payload []byte) ([]byte, int) {
		if kind == KSimResult && !signalled {
			signalled = true
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				return nil, 0
			}
			exited <- cmd.Wait()
		}
		return payload, 1
	})})
	defer pool.Close()
	reg := obs.NewRegistry()
	// Depth 1: the worker holds one range when the signal lands, so the
	// next exchange must fail. The relay's pipe takes no deadline, so
	// liveness stays off; the dead socket's EOF ends the exchange.
	coord := &Coordinator{Pool: pool, Obs: reg, PipelineDepth: 1, RangeSize: 8}
	type result struct {
		ms  []sim.Metrics
		err error
	}
	done := make(chan result, 1)
	go func() {
		ms, err := coord.EvaluateAll(ss, opt, rng.New(5))
		done <- result{ms, err}
	}()
	var res result
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("evaluation hung after the worker was signalled")
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	check("SIGTERM mid-range", res.ms)
	if d := reg.Counter("dist.worker_deaths").Value(); d != 1 {
		t.Errorf("worker_deaths = %d, want 1", d)
	}
	select {
	case err := <-exited:
		ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus)
		if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGTERM {
			t.Errorf("worker exit = %v, want death by SIGTERM", err)
		}
	default:
		t.Error("the worker was never signalled")
	}
}

// TestGatherOutOfOrderProperty is the out-of-order gather property test:
// many small ranges race over several jittery-latency connections (so
// completion order is arbitrary) with frames duplicated at high rate (so
// commits repeat), across seeded trials. Every trial must reassemble the
// vectors bit-identically or fail typed — placement is by range index,
// never by arrival.
func TestGatherOutOfOrderProperty(t *testing.T) {
	w := testWorkload(t, 23, 15, 3, 3)
	ss := testSchedules(t, w)
	opt := sim.Options{Realizations: 96, Workers: 1}
	want, err := sim.RealizeAll(ss, opt, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		pl := ChaosPlan{
			Seed:        200 + uint64(trial),
			Delay:       200 * time.Microsecond,
			DelayJitter: 3 * time.Millisecond,
			Duplicate:   0.3,
		}
		pool := chaosPool(3, pl)
		reg := obs.NewRegistry()
		coord := &Coordinator{Pool: pool, Obs: reg, Timeout: 2 * time.Second, RangeSize: 8}
		got, err := coord.RealizeAll(ss, opt, rng.New(9))
		if err != nil {
			if !typedTransportError(err) {
				t.Fatalf("trial %d: untyped error escaped: %v", trial, err)
			}
			_ = pool.Close()
			continue
		}
		for j := range ss {
			for i := range want[j] {
				if math.Float64bits(got[j][i]) != math.Float64bits(want[j][i]) {
					t.Fatalf("trial %d schedule %d realization %d: %v != %v",
						trial, j, i, got[j][i], want[j][i])
				}
			}
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSimDispatchLedger pins the dispatcher's bookkeeping: requeued ranges
// take priority over fresh ones, commits are exactly-once even when a
// range is delivered twice, and a fatal error stops issuance.
func TestSimDispatchLedger(t *testing.T) {
	d := &simDispatch{
		ranges:    partitionWidth(100, 10),
		committed: make([]bool, 10),
	}
	if ri, ok := d.take(); !ok || ri != 0 {
		t.Fatalf("first take = (%d, %v), want (0, true)", ri, ok)
	}
	if ri, ok := d.take(); !ok || ri != 1 {
		t.Fatalf("second take = (%d, %v), want (1, true)", ri, ok)
	}
	d.giveBack(0)
	if ri, ok := d.take(); !ok || ri != 0 {
		t.Fatalf("take after giveBack = (%d, %v), want the requeued 0", ri, ok)
	}
	if !d.commit(1) {
		t.Error("first commit reported duplicate")
	}
	if d.commit(1) {
		t.Error("second commit of the same range reported fresh")
	}
	d.fatal(fmt.Errorf("boom"))
	if _, ok := d.take(); ok {
		t.Error("take issued work after a fatal error")
	}
}

// TestPipelineLatencySmoke injects a 5ms round trip and compares strict
// request/response dispatch (depth 1) against the credit pipeline: over 12
// ranges the depth-1 run pays ~12 round trips where the pipeline pays ~1,
// so even allowing generous scheduler noise the pipeline must win clearly.
// The latency-lane benchmarks quantify the full matrix; this is the CI
// smoke that pipelining works at all, under a hard deadline.
func TestPipelineLatencySmoke(t *testing.T) {
	w := testWorkload(t, 3, 15, 3, 3)
	ss := testSchedules(t, w)
	opt := sim.Options{Realizations: 96, Workers: 1}
	lane := func(depth int) time.Duration {
		pl := ChaosPlan{Seed: 42, Delay: 2500 * time.Microsecond} // 5ms RTT
		pool := NewPool([]Endpoint{pl.Wrap(LocalEndpoint(), 0)})
		defer pool.Close()
		coord := &Coordinator{
			Pool:          pool,
			Timeout:       10 * time.Second,
			PipelineDepth: depth,
			RangeSize:     8, // 12 ranges
		}
		start := time.Now()
		if _, err := coord.EvaluateAll(ss, opt, rng.New(2)); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		return time.Since(start)
	}
	serial := lane(1)
	piped := lane(0) // auto: RTT-derived window covers all 12 ranges
	t.Logf("depth-1 %v, pipelined %v (%.1fx)", serial, piped, float64(serial)/float64(piped))
	if float64(serial) < 1.5*float64(piped) {
		t.Errorf("pipelining bought <1.5x at 5ms RTT: depth-1 %v vs pipelined %v", serial, piped)
	}
}

func TestPartitionWidth(t *testing.T) {
	cases := []struct {
		total, width int
		want         []shardRange
	}{
		{10, 4, []shardRange{{0, 4}, {4, 4}, {8, 2}}},
		{8, 4, []shardRange{{0, 4}, {4, 4}}},
		{3, 8, []shardRange{{0, 3}}},
		{5, 0, []shardRange{{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}}},
		{0, 4, []shardRange{}},
	}
	for _, tc := range cases {
		got := partitionWidth(tc.total, tc.width)
		if len(got) != len(tc.want) {
			t.Fatalf("partitionWidth(%d, %d) = %v, want %v", tc.total, tc.width, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("partitionWidth(%d, %d) = %v, want %v", tc.total, tc.width, got, tc.want)
			}
		}
	}
}
