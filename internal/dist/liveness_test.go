package dist

import (
	"bufio"
	"bytes"
	"io"
	"math"
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
	jobR, jobW := io.Pipe()
	resR, resW := io.Pipe()
	go func() {
		for {
			if _, _, err := wio.ReadFrame(jobR, nil); err != nil {
				resW.CloseWithError(err)
				return
			}
		}
	}()
	return Endpoint{
		W:    jobW,
		R:    resR,
		Kill: func() { jobW.CloseWithError(io.ErrClosedPipe); resR.CloseWithError(io.ErrClosedPipe) },
	}
}

// TestStalledWorkerDeadline: without a timeout a stalled worker would hang
// RealizeAll forever; with one armed the coordinator declares it dead,
// counts the missed heartbeat, reassigns the window and still produces
// bit-identical metrics.
func TestStalledWorkerDeadline(t *testing.T) {
	w := testWorkload(t, 7, 20, 3, 3)
	ss := testSchedules(t, w)
	opt := sim.Options{Realizations: 60, Workers: 1}
	want, err := sim.EvaluateAll(ss, opt, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool([]Endpoint{stallEndpoint(), liveEndpoint()})
	defer pool.Close()
	reg := obs.NewRegistry()
	pool.Obs = reg
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
	if n := reg.Counter("dist.heartbeat_misses").Value(); n == 0 {
		t.Error("expected a heartbeat miss for the stalled worker")
	}
	if n := reg.Counter("dist.worker_deaths").Value(); n == 0 {
		t.Error("expected the stalled worker to be declared dead")
	}
}

// scriptedEndpoint runs fn against the coordinator side of a pipe pair:
// fn reads job frames from r and writes response frames to w.
func scriptedEndpoint(fn func(r io.Reader, w *io.PipeWriter)) Endpoint {
	jobR, jobW := io.Pipe()
	resR, resW := io.Pipe()
	go fn(jobR, resW)
	return Endpoint{
		W:    jobW,
		R:    resR,
		Kill: func() { jobW.CloseWithError(io.ErrClosedPipe); resR.CloseWithError(io.ErrClosedPipe) },
	}
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
// range dispatch: the setup, then the range.
func readSetupAndRange(r io.Reader) (setup, rangeReq []byte, err error) {
	if _, setup, err = wio.ReadFrame(r, nil); err != nil {
		return nil, nil, err
	}
	_, rangeReq, err = wio.ReadFrame(r, nil)
	return setup, rangeReq, err
}

// slowRangeWorker reads the setup frame and then the range frame, stalls
// for 300ms — three frame deadlines — before answering the range as a real
// worker would, then drains frames (e.g. Close's KShutdown) until torn down.
// With pulse set it emits the heartbeats the setup asks for throughout the
// stall and the compute; without it, none at all.
func slowRangeWorker(pulse bool) func(r io.Reader, w *io.PipeWriter) {
	return func(r io.Reader, w *io.PipeWriter) {
		setupDoc, rangeDoc, err := readSetupAndRange(r)
		if err != nil {
			w.CloseWithError(err)
			return
		}
		setup, err := newSimState(setupDoc)
		if err != nil {
			w.CloseWithError(err)
			return
		}
		if !pulse {
			setup.hbMillis = 0
		}
		fw := &frameWriter{w: bufio.NewWriter(w)}
		_ = withHeartbeat(fw, setup.hbMillis, func() error { time.Sleep(300 * time.Millisecond); return nil })
		if err := handleSimRange(fw, setup, rangeDoc); err != nil {
			w.CloseWithError(err)
			return
		}
		for {
			if _, _, err := wio.ReadFrame(r, nil); err != nil {
				w.CloseWithError(err)
				return
			}
		}
	}
}

// TestHeartbeatExtendsDeadline: a worker that takes far longer than the
// frame deadline but pulses heartbeats stays alive; the identical worker
// without pulses is declared dead and its range realized inline. This pins
// down exactly what a heartbeat buys: it re-arms the per-frame deadline,
// nothing more.
func TestHeartbeatExtendsDeadline(t *testing.T) {
	w := testWorkload(t, 7, 20, 3, 3)
	ss := testSchedules(t, w)
	// One range of 5000 realizations × 3 schedules: its job budget of
	// Timeout × (1 + 15000/1000) outlasts the stall and the compute, so only
	// the frame deadline can fire.
	opt := sim.Options{Realizations: 5000, Workers: 1}
	want, err := sim.RealizeAll(ss, opt, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, pulse := range []bool{true, false} {
		pool := NewPool([]Endpoint{scriptedEndpoint(slowRangeWorker(pulse))})
		reg := obs.NewRegistry()
		pool.Obs = reg
		coord := &Coordinator{Pool: pool, Obs: reg, Timeout: 100 * time.Millisecond, RangeSize: opt.Realizations}
		got, err := coord.RealizeAll(ss, opt, rng.New(5))
		if err != nil {
			t.Fatalf("pulse=%v: %v", pulse, err)
		}
		if !sameVectors(got, want) {
			t.Errorf("pulse=%v: makespan vectors differ from the in-process run", pulse)
		}
		misses, inline := reg.Counter("dist.heartbeat_misses").Value(), reg.Counter("dist.inline_ranges").Value()
		if pulse && (misses != 0 || inline != 0) {
			t.Errorf("heartbeating slow worker declared dead: %d heartbeat misses, %d inline ranges", misses, inline)
		}
		if !pulse && (misses != 1 || inline != 1) {
			t.Errorf("silent slow worker: %d heartbeat misses, %d inline ranges; want 1 and 1", misses, inline)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJobBudgetBoundsHeartbeats: heartbeats re-arm the frame deadline but
// never the whole-job budget, so a worker stuck in a loop that still pulses
// is eventually declared dead too, and its range realized inline.
func TestJobBudgetBoundsHeartbeats(t *testing.T) {
	w := testWorkload(t, 7, 20, 3, 3)
	ss := testSchedules(t, w)
	opt := sim.Options{Realizations: 60, Workers: 1}
	want, err := sim.RealizeAll(ss, opt, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool([]Endpoint{scriptedEndpoint(func(r io.Reader, w *io.PipeWriter) {
		if _, _, err := readSetupAndRange(r); err != nil {
			w.CloseWithError(err)
			return
		}
		for { // pulse forever, never respond
			time.Sleep(20 * time.Millisecond)
			if err := wio.WriteFrame(w, KHeartbeat, nil); err != nil {
				return
			}
		}
	})})
	defer pool.Close()
	reg := obs.NewRegistry()
	pool.Obs = reg
	coord := &Coordinator{Pool: pool, Obs: reg, Timeout: 100 * time.Millisecond, RangeSize: opt.Realizations}
	start := time.Now()
	got, err := coord.RealizeAll(ss, opt, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("job budget took %v to fire", d)
	}
	if !sameVectors(got, want) {
		t.Error("makespan vectors differ from the in-process run")
	}
	if n := reg.Counter("dist.heartbeats").Value(); n == 0 {
		t.Error("no heartbeat reached the coordinator")
	}
	misses, inline := reg.Counter("dist.heartbeat_misses").Value(), reg.Counter("dist.inline_ranges").Value()
	if misses != 1 || inline != 1 {
		t.Errorf("immortal heartbeater: %d heartbeat misses, %d inline ranges; want 1 and 1", misses, inline)
	}
}

// TestWithHeartbeatPulses: the worker-side pulse generator emits heartbeat
// frames during a long compute, and is fully reaped before it returns — no
// pulse can ever land after (or inside) the response that follows.
func TestWithHeartbeatPulses(t *testing.T) {
	var buf bytes.Buffer
	fw := &frameWriter{w: bufio.NewWriter(&buf)}
	err := withHeartbeat(fw, 10, func() error {
		time.Sleep(80 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.write(KOK, nil); err != nil {
		t.Fatal(err)
	}
	kinds := []byte{}
	for {
		kind, _, err := wio.ReadFrame(&buf, nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream corrupted by heartbeat interleaving: %v", err)
		}
		kinds = append(kinds, kind)
	}
	if len(kinds) < 2 {
		t.Fatalf("got %d frames, want heartbeats plus the response", len(kinds))
	}
	for _, k := range kinds[:len(kinds)-1] {
		if k != KHeartbeat {
			t.Errorf("mid-compute frame kind %d, want heartbeat", k)
		}
	}
	if kinds[len(kinds)-1] != KOK {
		t.Errorf("final frame kind %d, want the response", kinds[len(kinds)-1])
	}
	// millis <= 0 must not start a pulse goroutine at all.
	buf.Reset()
	if err := withHeartbeat(fw, 0, func() error { time.Sleep(30 * time.Millisecond); return nil }); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Error("disabled heartbeat still wrote frames")
	}
}

// TestSolveWithTimeoutBitIdentical: arming the liveness machinery on a
// healthy pool (heartbeats flowing, budgets armed) must not perturb the
// trajectory — the sequence numbers and pulses are invisible to the GA.
func TestSolveWithTimeoutBitIdentical(t *testing.T) {
	w := testWorkload(t, 13, 20, 3, 3)
	opt := defaultIslandOpts()
	want, err := robustSolveRef(t, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewLocalPool(2)
	defer pool.Close()
	coord := &Coordinator{Pool: pool, Timeout: 2 * time.Second}
	got, err := coord.Solve(w, opt, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	if !schedulesEqual(got.Schedule, want.Schedule) || got.Generations != want.Generations {
		t.Error("timeout-armed solve diverged from the in-process trajectory")
	}
}
