package dist

import (
	"bufio"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"robsched/internal/obs"
	"robsched/internal/rng"
	"robsched/internal/sim"
	"robsched/internal/wio"
)

// stallEndpoint builds a worker that swallows every frame and never answers —
// a hung process, not a dead one. Only a deadline can unmask it.
func stallEndpoint() Endpoint {
	return scriptedEndpoint(func(c net.Conn) {
		fr := wio.NewFrameReader(c)
		for {
			if _, _, err := fr.Read(); err != nil {
				_ = c.Close()
				return
			}
		}
	})
}

// TestStalledWorkerDeadline: without a timeout a stalled worker would hang
// RealizeAll forever; with one armed the coordinator declares it dead,
// counts the deadline expiry, reassigns the window and still produces
// bit-identical metrics.
func TestStalledWorkerDeadline(t *testing.T) {
	w := testWorkload(t, 7, 20, 3, 3)
	ss := testSchedules(t, w)
	opt := sim.Options{Realizations: 60, Workers: 1}
	want, err := sim.EvaluateAll(ss, opt, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool([]Endpoint{stallEndpoint(), LocalEndpoint()})
	defer pool.Close()
	reg := obs.NewRegistry()
	coord := &Coordinator{Pool: pool, Obs: reg, Timeout: 150 * time.Millisecond}
	done := make(chan struct{})
	var got []sim.Metrics
	var evalErr error
	go func() {
		got, evalErr = coord.EvaluateAll(ss, opt, rng.New(9))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("EvaluateAll hung on a stalled worker despite the deadline")
	}
	if evalErr != nil {
		t.Fatal(evalErr)
	}
	for j := range ss {
		if !metricsBitEqual(got[j], want[j]) {
			t.Errorf("schedule %d: metrics differ after stalled-worker reassignment", j)
		}
	}
	if n := reg.Counter("dist.deadline_expiries").Value(); n == 0 {
		t.Error("expected a deadline expiry for the stalled worker")
	}
	if n := reg.Counter("dist.worker_deaths").Value(); n == 0 {
		t.Error("expected the stalled worker to be declared dead")
	}
}

// scriptedEndpoint runs fn against the worker end of a net.Pipe: fn reads
// job frames from c and writes response frames to it.
func scriptedEndpoint(fn func(c net.Conn)) Endpoint {
	coord, worker := net.Pipe()
	go fn(worker)
	return Endpoint{W: coord, R: coord, Kill: func() { _ = coord.Close() }}
}

// sameVectors reports whether two sets of makespan vectors agree bit for bit.
func sameVectors(got, want [][]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for j := range want {
		if len(got[j]) != len(want[j]) {
			return false
		}
		for i := range want[j] {
			if math.Float64bits(got[j][i]) != math.Float64bits(want[j][i]) {
				return false
			}
		}
	}
	return true
}

// readSetupAndRange reads the two frames that open a connection's first
// range dispatch: the setup, then the range. Both payloads stay alive, so
// each is read by a reader of its own.
func readSetupAndRange(r io.Reader) (setup, rangeReq []byte, err error) {
	if _, setup, err = wio.NewFrameReader(r).Read(); err != nil {
		return nil, nil, err
	}
	_, rangeReq, err = wio.NewFrameReader(r).Read()
	return setup, rangeReq, err
}

// slowRangeWorker reads the setup frame and then the range frame, stays
// silent for 300ms — three Timeouts of the test below — before answering
// the range as a real worker would, then drains frames (e.g. Close's
// KShutdown) until torn down.
func slowRangeWorker(c net.Conn) {
	defer c.Close()
	setupDoc, rangeDoc, err := readSetupAndRange(c)
	if err != nil {
		return
	}
	setup, err := newSimState(setupDoc)
	if err != nil {
		return
	}
	time.Sleep(300 * time.Millisecond)
	if err := handleSimRange(&frameWriter{w: bufio.NewWriter(c)}, setup, rangeDoc); err != nil {
		return
	}
	fr := wio.NewFrameReader(c)
	for {
		if _, _, err := fr.Read(); err != nil {
			return
		}
	}
}

// TestJobBudget: the job budget is the only liveness clock. The same worker,
// silent for three Timeouts before it answers, survives a range whose
// budget outlasts the silence and is declared dead, within 2s, on a range
// whose budget does not. Either way the vectors match the in-process run.
func TestJobBudget(t *testing.T) {
	w := testWorkload(t, 7, 20, 3, 3)
	ss := testSchedules(t, w)
	for _, tc := range []struct {
		name         string
		realizations int
		dead         bool
	}{
		// One range of 5000 realizations × 3 schedules: a budget of
		// Timeout × (1 + 15000/1000) = 1.6s.
		{"within", 5000, false},
		// One range of 60 × 3: a budget of Timeout × 1.18 = 118ms.
		{"past", 60, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := sim.Options{Realizations: tc.realizations, Workers: 1}
			want, err := sim.RealizeAll(ss, opt, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			pool := NewPool([]Endpoint{scriptedEndpoint(slowRangeWorker)})
			defer pool.Close()
			reg := obs.NewRegistry()
			coord := &Coordinator{Pool: pool, Obs: reg, Timeout: 100 * time.Millisecond, RangeSize: opt.Realizations}
			start := time.Now()
			got, err := coord.RealizeAll(ss, opt, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			if !sameVectors(got, want) {
				t.Error("makespan vectors differ from the in-process run")
			}
			expiries, inline := reg.Counter("dist.deadline_expiries").Value(), reg.Counter("dist.inline_ranges").Value()
			if !tc.dead && (expiries != 0 || inline != 0) {
				t.Errorf("worker inside its budget declared dead: %d deadline expiries, %d inline ranges", expiries, inline)
			}
			if tc.dead {
				if expiries != 1 || inline != 1 {
					t.Errorf("worker past its budget: %d deadline expiries, %d inline ranges; want 1 and 1", expiries, inline)
				}
				if d := time.Since(start); d > 2*time.Second {
					t.Errorf("job budget took %v to fire", d)
				}
			}
		})
	}
}

// pipeWorker serves one protocol worker on io.Pipe ends, which take no
// deadlines.
func pipeWorker() Endpoint {
	jobR, jobW := io.Pipe()
	resR, resW := io.Pipe()
	go func() {
		err := ServeWorker(jobR, resW)
		resW.CloseWithError(err)
		jobR.CloseWithError(err)
	}()
	return Endpoint{
		W:    jobW,
		R:    resR,
		Kill: func() { jobW.CloseWithError(io.ErrClosedPipe); resR.CloseWithError(io.ErrClosedPipe) },
	}
}

// TestNoDeadlineEnd: with Timeout armed, an end that cannot take a deadline
// fails its exchange at once with a *WorkerError wrapping ErrNoDeadline —
// it never waits unbounded — and an evaluation over it still completes,
// bit-identically, in process.
func TestNoDeadlineEnd(t *testing.T) {
	pool := NewPool([]Endpoint{pipeWorker()})
	conn, err := pool.get()
	if err != nil {
		t.Fatal(err)
	}
	conn.arm(time.Minute, time.Minute)
	var we *WorkerError
	if err := conn.sendEmpty(KOK); !errors.As(err, &we) || !errors.Is(err, ErrNoDeadline) {
		t.Errorf("send on a deadline-less end: %v, want a *WorkerError wrapping ErrNoDeadline", err)
	}
	// The worker got no request, so a read that waited would never return.
	if _, _, err := conn.recv(); !errors.As(err, &we) || !errors.Is(err, ErrNoDeadline) {
		t.Errorf("recv on a deadline-less end: %v, want a *WorkerError wrapping ErrNoDeadline", err)
	}
	pool.discard(conn)
	_ = pool.Close()

	w := testWorkload(t, 7, 20, 3, 3)
	ss := testSchedules(t, w)
	opt := sim.Options{Realizations: 60, Workers: 1}
	want, err := sim.EvaluateAll(ss, opt, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	pool = NewPool([]Endpoint{pipeWorker()})
	defer pool.Close()
	reg := obs.NewRegistry()
	coord := &Coordinator{Pool: pool, Obs: reg, Timeout: time.Minute}
	got, err := coord.EvaluateAll(ss, opt, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for j := range ss {
		if !metricsBitEqual(got[j], want[j]) {
			t.Errorf("schedule %d: metrics differ after the deadline-less worker failed", j)
		}
	}
	if n := reg.Counter("dist.worker_deaths").Value(); n != 1 {
		t.Errorf("worker_deaths = %d, want 1", n)
	}
	if n := reg.Counter("dist.deadline_expiries").Value(); n != 0 {
		t.Errorf("deadline_expiries = %d, want 0: no deadline ever ran", n)
	}
	if n := reg.Counter("dist.inline_ranges").Value(); n == 0 {
		t.Error("expected the ranges to be realized inline")
	}
}

// TestSolveWithTimeoutBitIdentical: arming liveness on a healthy pool
// (deadlines on every send and read) must not perturb the trajectory — the
// sequence numbers and budgets are invisible to the GA.
func TestSolveWithTimeoutBitIdentical(t *testing.T) {
	w := testWorkload(t, 13, 20, 3, 3)
	opt := defaultIslandOpts()
	want, err := robustSolveRef(t, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewLocalPool(2)
	defer pool.Close()
	reg := obs.NewRegistry()
	coord := &Coordinator{Pool: pool, Obs: reg, Timeout: 2 * time.Second}
	got, err := coord.Solve(w, opt, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	if !schedulesEqual(got.Schedule, want.Schedule) || got.Generations != want.Generations {
		t.Error("timeout-armed solve diverged from the in-process trajectory")
	}
	checkHosted(t, "timeout-armed", reg, 2)
}
