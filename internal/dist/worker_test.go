package dist

import (
	"errors"
	"io"
	"strings"
	"testing"

	"robsched/internal/obs"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/sim"
	"robsched/internal/wio"
)

// protoDriver speaks raw frames to an in-process ServeWorker, for
// exercising the protocol's error paths without a coordinator.
type protoDriver struct {
	t    *testing.T
	w    *io.PipeWriter
	r    *io.PipeReader
	done chan error
}

func newProtoDriver(t *testing.T) *protoDriver {
	t.Helper()
	jobR, jobW := io.Pipe()
	resR, resW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := ServeWorker(jobR, resW)
		resW.CloseWithError(err)
		done <- err
	}()
	d := &protoDriver{t: t, w: jobW, r: resR, done: done}
	t.Cleanup(func() { jobW.Close() })
	return d
}

func (d *protoDriver) send(kind byte, v any) {
	d.t.Helper()
	if err := sendJSON(d.w, kind, v); err != nil {
		d.t.Fatal(err)
	}
}

func (d *protoDriver) sendRaw(kind byte, payload []byte) {
	d.t.Helper()
	if err := wio.WriteFrame(d.w, kind, payload); err != nil {
		d.t.Fatal(err)
	}
}

func (d *protoDriver) recv() (byte, []byte) {
	d.t.Helper()
	kind, payload, err := wio.ReadFrame(d.r, nil)
	if err != nil {
		d.t.Fatal(err)
	}
	return kind, payload
}

// expectErr reads one frame and asserts it is a KErr mentioning substr.
func (d *protoDriver) expectErr(substr string) {
	d.t.Helper()
	kind, payload := d.recv()
	if kind != KErr {
		d.t.Fatalf("frame kind %d, want KErr", kind)
	}
	var em ErrMsg
	if err := parseJSON(payload, &em); err != nil {
		d.t.Fatal(err)
	}
	if !strings.Contains(em.Error, substr) {
		d.t.Fatalf("error %q does not mention %q", em.Error, substr)
	}
}

// TestWorkerProtocolErrors walks the job-level failure paths: each bad
// message earns a KErr and the worker keeps serving; KShutdown ends the
// loop cleanly.
func TestWorkerProtocolErrors(t *testing.T) {
	d := newProtoDriver(t)

	d.sendRaw(99, nil)
	d.expectErr("unknown frame kind")

	for _, retired := range []byte{1, 13, 14} {
		d.sendRaw(retired, nil)
		d.expectErr("unknown frame kind")
	}

	d.send(KEpoch, EpochReq{StartGen: 0, Gens: 1})
	d.expectErr("before init")

	d.send(KMigrate, MigrateReq{})
	d.expectErr("before init")

	d.sendRaw(KIslandInit, []byte("{not json"))
	d.expectErr("decoding")

	d.send(KIslandInit, IslandInit{})
	d.expectErr("no islands")

	d.sendRaw(KSimSetup, []byte("###"))
	d.expectErr("decoding")

	d.send(KSimSetup, SimSetup{}) // empty workload document
	d.expectErr("tasks")

	// Finish without islands is harmless (idempotent teardown).
	d.sendRaw(KIslandFinish, nil)
	if kind, _ := d.recv(); kind != KOK {
		t.Fatalf("finish response kind %d, want KOK", kind)
	}

	d.sendRaw(KShutdown, nil)
	if err := <-d.done; err != nil {
		t.Fatalf("worker exited with %v", err)
	}
}

// TestWorkerIslandConversation drives a full island session by hand,
// including a migrant routed to an island the worker does not host.
func TestWorkerIslandConversation(t *testing.T) {
	w := testWorkload(t, 2, 12, 2, 2)
	d := newProtoDriver(t)
	init := IslandInit{
		Workload: wio.NewWorkloadJSON(w),
		Opt: SolverOptions{
			Mode:    int(robust.MinMakespan),
			PopSize: 6, CrossoverRate: 0.9, MutationRate: 0.1,
			MaxGenerations: 10,
		},
		Islands: []IslandSeed{{Island: 1, Seed: 42}, {Island: 0, Seed: 7}},
	}
	d.send(KIslandInit, init)
	kind, payload := d.recv()
	if kind != KIslandState {
		t.Fatalf("init response kind %d", kind)
	}
	var states IslandStates
	if err := parseJSON(payload, &states); err != nil {
		t.Fatal(err)
	}
	// States come back in ascending island order regardless of init order.
	if len(states.States) != 2 || states.States[0].Island != 0 || states.States[1].Island != 1 {
		t.Fatalf("init states %+v", states.States)
	}

	d.send(KEpoch, EpochReq{StartGen: 0, Gens: 3})
	if kind, _ = d.recv(); kind != KIslandState {
		t.Fatalf("epoch response kind %d", kind)
	}

	// Route a migrant to island 0 using island 1's best.
	d.send(KMigrate, MigrateReq{Migrants: []Migrant{{Island: 0, Genotype: states.States[1].Best}}})
	if kind, _ = d.recv(); kind != KIslandState {
		t.Fatalf("migrate response kind %d", kind)
	}

	// A migrant for an island hosted elsewhere is a job error.
	d.send(KMigrate, MigrateReq{Migrants: []Migrant{{Island: 5, Genotype: states.States[0].Best}}})
	d.expectErr("not hosted")

	d.sendRaw(KIslandFinish, nil)
	if kind, _ = d.recv(); kind != KOK {
		t.Fatalf("finish response kind %d", kind)
	}
	d.sendRaw(KShutdown, nil)
	if err := <-d.done; err != nil {
		t.Fatal(err)
	}
}

// TestWorkerErrorSurfacesToCaller: a job-level failure — a KErr answer to a
// range over a healthy connection — comes back as a remote *WorkerError and
// does not kill the worker: nothing is counted dead or realized inline, and
// the same worker serves the next evaluation.
func TestWorkerErrorSurfacesToCaller(t *testing.T) {
	pool := NewPool([]Endpoint{scriptedEndpoint(func(r io.Reader, w *io.PipeWriter) {
		if _, _, err := readSetupAndRange(r); err != nil {
			w.CloseWithError(err)
			return
		}
		if err := sendJSON(w, KErr, ErrMsg{Error: "injected job failure"}); err != nil {
			return
		}
		w.CloseWithError(ServeWorker(r, w))
	})})
	defer pool.Close()
	reg := obs.NewRegistry()
	pool.Obs = reg
	coord := &Coordinator{Pool: pool, Obs: reg}
	w := testWorkload(t, 4, 15, 2, 2)
	ss := testSchedules(t, w)
	opt := sim.Options{Realizations: 20, Workers: 1}

	_, err := coord.RealizeAll(ss, opt, rng.New(3))
	var we *WorkerError
	if !errors.As(err, &we) || !we.Remote || we.Worker != 0 || we.Error() == "" {
		t.Fatalf("error %v, want a remote *WorkerError from worker 0", err)
	}
	deaths, inline := reg.Counter("dist.worker_deaths").Value(), reg.Counter("dist.inline_ranges").Value()
	if deaths != 0 || inline != 0 {
		t.Errorf("job error counted %d worker deaths and %d inline ranges, want none", deaths, inline)
	}

	// The worker survived the bad job: a real evaluation still works.
	want, err := sim.RealizeAll(ss, opt, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.RealizeAll(ss, opt, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if !sameVectors(got, want) {
		t.Error("makespan vectors differ after the recovered job error")
	}
	if inline := reg.Counter("dist.inline_ranges").Value(); inline != 0 {
		t.Errorf("%d ranges realized inline, want the surviving worker to serve them", inline)
	}
}

// TestCoordinatorValidation covers the coordinator's own input checks.
func TestCoordinatorValidation(t *testing.T) {
	pool := NewLocalPool(1)
	defer pool.Close()
	coord := &Coordinator{Pool: pool}
	if _, err := coord.RealizeAll(nil, sim.Options{Realizations: 5}, rng.New(1)); err == nil {
		t.Error("empty schedule list accepted")
	}
	w := testWorkload(t, 4, 10, 2, 2)
	ss := testSchedules(t, w)
	if _, err := coord.RealizeAll(ss, sim.Options{Realizations: 0}, rng.New(1)); err == nil {
		t.Error("zero realizations accepted")
	}
	var oe *sim.OptionError
	_, err := coord.EvaluateAll(ss, sim.Options{Realizations: -1}, rng.New(1))
	if !errors.As(err, &oe) {
		t.Errorf("error %v, want *sim.OptionError", err)
	}
}

// TestPoolClosedGet: a closed pool fails checkouts instead of blocking.
func TestPoolClosedGet(t *testing.T) {
	pool := NewLocalPool(1)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := pool.get(); err == nil {
		t.Error("get on closed pool succeeded")
	}
}
