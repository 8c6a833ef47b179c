package dist

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"robsched/internal/obs"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/schedule"
	"robsched/internal/sim"
	"robsched/internal/stoch"
	"robsched/internal/wio"
)

// protoDriver speaks raw frames to an in-process ServeWorker, for
// exercising the protocol's error paths without a coordinator.
type protoDriver struct {
	t    *testing.T
	w    *io.PipeWriter
	r    *wio.FrameReader
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
	d := &protoDriver{t: t, w: jobW, r: wio.NewFrameReader(resR), done: done}
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
	kind, payload, err := d.r.Read()
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

	for _, retired := range []byte{1, 2, 3, 12, 13, 14, 15} {
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

	// An out-of-range mode is refused when the engine is built, never by a
	// panic at the first evaluation.
	w := testWorkload(t, 2, 12, 2, 2)
	d.send(KIslandInit, IslandInit{
		Workload: wio.NewWorkloadJSON(w),
		Opt:      SolverOptions{Mode: 7, PopSize: 6, CrossoverRate: 0.9, MutationRate: 0.1, MaxGenerations: 10},
		Islands:  []IslandSeed{{Island: 0, Seed: 7}},
	})
	d.expectErr("unknown mode 7")

	// Migrants that do not decode on the workload are refused with a KErr
	// before they reach an island's evaluator; the worker keeps serving.
	d.send(KIslandInit, IslandInit{
		Workload: wio.NewWorkloadJSON(w),
		Opt: SolverOptions{
			Mode:    int(robust.EpsilonConstraint),
			Eps:     1.3,
			PopSize: 6, CrossoverRate: 0.9, MutationRate: 0.1,
			MaxGenerations: 10,
		},
		Islands: []IslandSeed{{Island: 0, Seed: 7}},
	})
	kind, payload := d.recv()
	if kind != KIslandState {
		t.Fatalf("init response kind %d", kind)
	}
	var states IslandStates
	if err := parseJSON(payload, &states); err != nil {
		t.Fatal(err)
	}
	good := states.States[0].Best
	var edge [2]int
	for u := 0; u < w.N() && edge == [2]int{}; u++ {
		if succ := w.G.Successors(u); len(succ) > 0 {
			edge = [2]int{u, succ[0].To}
		}
	}
	for _, bad := range []struct {
		name string
		edit func(g *Genotype)
	}{
		{"short order", func(g *Genotype) { g.Order = g.Order[1:] }},
		{"long proc", func(g *Genotype) { g.Proc = append(g.Proc, 0) }},
		{"repeated task", func(g *Genotype) { g.Order[1] = g.Order[0] }},
		{"task out of range", func(g *Genotype) { g.Order[0] = w.N() }},
		{"processor out of range", func(g *Genotype) { g.Proc[0] = w.M() }},
		{"negative processor", func(g *Genotype) { g.Proc[0] = -1 }},
		{"precedence inversion", func(g *Genotype) {
			i, j := indexOf(g.Order, edge[0]), indexOf(g.Order, edge[1])
			g.Order[i], g.Order[j] = g.Order[j], g.Order[i]
		}},
	} {
		g := Genotype{Order: append([]int(nil), good.Order...), Proc: append([]int(nil), good.Proc...)}
		bad.edit(&g)
		d.send(KMigrate, MigrateReq{Migrants: []Migrant{{Island: 0, Genotype: g}}})
		kind, payload := d.recv()
		if kind != KErr {
			t.Fatalf("%s: migrate answered kind %d, want KErr", bad.name, kind)
		}
		var em ErrMsg
		if err := parseJSON(payload, &em); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(em.Error, "migrant for island 0") {
			t.Fatalf("%s: error %q does not name the migrant", bad.name, em.Error)
		}
	}
	// The island still evolves and takes a valid migrant.
	d.send(KEpoch, EpochReq{StartGen: 0, Gens: 2})
	if kind, _ := d.recv(); kind != KIslandState {
		t.Fatalf("epoch after refused migrants answered kind %d", kind)
	}
	d.send(KMigrate, MigrateReq{Migrants: []Migrant{{Island: 0, Genotype: good}}})
	if kind, _ := d.recv(); kind != KIslandState {
		t.Fatalf("valid migrant answered kind %d", kind)
	}

	// Finish ends the island session, and finishing again without islands
	// is harmless (idempotent teardown).
	for i := 0; i < 2; i++ {
		d.sendRaw(KIslandFinish, nil)
		if kind, _ := d.recv(); kind != KOK {
			t.Fatalf("finish response kind %d, want KOK", kind)
		}
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
	pool := NewPool([]Endpoint{scriptedEndpoint(func(c net.Conn) {
		defer c.Close()
		if _, _, err := readSetupAndRange(c); err != nil {
			return
		}
		if err := sendJSON(c, KErr, ErrMsg{Error: "injected job failure"}); err != nil {
			return
		}
		_ = ServeWorker(c, c)
	})})
	defer pool.Close()
	reg := obs.NewRegistry()
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

// TestSolveWorkerErrorSurfacesToCaller: a KErr answer to an epoch fails the
// solve with the worker's remote *WorkerError. The worker is healthy, so
// nothing is counted dead and nothing runs in process, and both workers go
// back to the pool clean: the next solve runs on them, bit-identically.
func TestSolveWorkerErrorSurfacesToCaller(t *testing.T) {
	w := testWorkload(t, 13, 20, 3, 3)
	opt := defaultIslandOpts()
	want, err := robustSolveRef(t, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool([]Endpoint{scriptedEndpoint(func(c net.Conn) {
		defer c.Close()
		// Answer the init as a real worker does, then reject the epoch.
		fr := wio.NewFrameReader(c)
		_, payload, err := fr.Read()
		if err != nil {
			return
		}
		host, err := newIslandHost(payload)
		if err != nil {
			return
		}
		if err := sendJSON(c, KIslandState, host.states(host.initSeq)); err != nil {
			return
		}
		if _, _, err := fr.Read(); err != nil {
			return
		}
		if err := sendJSON(c, KErr, ErrMsg{Error: "injected epoch failure"}); err != nil {
			return
		}
		_ = ServeWorker(c, c)
	}), LocalEndpoint()})
	defer pool.Close()
	reg := obs.NewRegistry()
	coord := &Coordinator{Pool: pool, Obs: reg}

	_, err = coord.Solve(w, opt, rng.New(31))
	var we *WorkerError
	if !errors.As(err, &we) || !we.Remote || we.Worker != 0 {
		t.Fatalf("error %v, want a remote *WorkerError from worker 0", err)
	}
	deaths, degraded := reg.Counter("dist.worker_deaths").Value(), reg.Counter("dist.degraded_solves").Value()
	if deaths != 0 || degraded != 0 {
		t.Errorf("job error counted %d worker deaths and %d degraded solves, want none", deaths, degraded)
	}

	got, err := coord.Solve(w, opt, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	checkSolveMatches(t, "after the job error", got, want)
	checkHosted(t, "after the job error", reg, 2)
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
	// A schedule rebound to a risk-adjusted view of the workload has the
	// same graph and platform but other durations: common random numbers
	// cannot cover both workloads, so the mix is refused as sim refuses it.
	view, err := stoch.RiskAdjusted(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	rebound, err := stoch.Rebind(ss[0], view)
	if err != nil {
		t.Fatal(err)
	}
	mixed := []*schedule.Schedule{ss[0], rebound}
	_, want := sim.EvaluateAll(mixed, sim.Options{Realizations: 5}, rng.New(1))
	if _, err := coord.EvaluateAll(mixed, sim.Options{Realizations: 5}, rng.New(1)); err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("schedules of two workloads: error %v, want sim's %v", err, want)
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

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}
