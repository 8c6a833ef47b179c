package dist

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"robsched/internal/obs"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/sim"
	"robsched/internal/wio"
)

func defaultIslandOpts() robust.Options {
	return robust.Options{
		Mode:    robust.MinMakespan,
		PopSize: 8, CrossoverRate: 0.9, MutationRate: 0.1,
		MaxGenerations: 30, Stagnation: 0,
		Islands: 3, MigrationEvery: 6,
	}
}

func robustSolveRef(t *testing.T, w *platform.Workload, opt robust.Options) (*robust.Result, error) {
	t.Helper()
	return robust.Solve(w, opt, rng.New(31))
}

// relayResponses splices fn into the inner worker's response stream: every
// frame the worker answers passes through fn, which returns the payload to
// forward and how many copies of it to deliver; 0 kills the worker at that
// frame instead.
func relayResponses(inner Endpoint, fn func(kind byte, payload []byte) ([]byte, int)) Endpoint {
	resR, resW := io.Pipe()
	go func() {
		fr := wio.NewFrameReader(inner.R)
		for {
			kind, payload, err := fr.Read()
			if err != nil {
				resW.CloseWithError(err)
				return
			}
			out, copies := fn(kind, payload)
			if copies == 0 {
				break
			}
			for ; copies > 0; copies-- {
				if err := wio.WriteFrame(resW, kind, out); err != nil {
					return
				}
			}
		}
		if inner.Kill != nil {
			inner.Kill()
		}
		resW.CloseWithError(io.ErrClosedPipe)
	}()
	return Endpoint{
		W: inner.W,
		R: resR,
		Kill: func() {
			if inner.Kill != nil {
				inner.Kill()
			}
			resR.CloseWithError(io.ErrClosedPipe)
		},
		Wait: inner.Wait,
	}
}

// killAfterFrames forwards exactly n response frames from the inner worker
// and kills it instead of forwarding the next one — a process crash at a
// precisely controlled point of the island protocol.
func killAfterFrames(inner Endpoint, n int) Endpoint {
	return relayResponses(inner, func(_ byte, payload []byte) ([]byte, int) {
		if n--; n < 0 {
			return nil, 0
		}
		return payload, 1
	})
}

// relayRequests splices fn into the inner worker's request stream: every
// frame the coordinator sends passes through fn, which returns how many
// copies of it the worker receives — 0 drops it, 2 duplicates it, as a
// faulty transport would.
func relayRequests(inner Endpoint, fn func(kind byte) int) Endpoint {
	reqR, reqW := io.Pipe()
	go func() {
		fr := wio.NewFrameReader(reqR)
		for {
			kind, payload, err := fr.Read()
			if err != nil {
				_ = inner.W.Close()
				return
			}
			for copies := fn(kind); copies > 0; copies-- {
				if err := wio.WriteFrame(inner.W, kind, payload); err != nil {
					reqR.CloseWithError(err)
					return
				}
			}
		}
	}()
	return Endpoint{W: reqW, R: inner.R, Kill: inner.Kill, Wait: inner.Wait}
}

// duplicateRequest delivers the inner worker's n-th request frame (counting
// from 0) twice, as a transport that duplicates frames would.
func duplicateRequest(inner Endpoint, n int) Endpoint {
	return relayRequests(inner, func(byte) int {
		if n--; n == -1 {
			return 2
		}
		return 1
	})
}

// checkSolveMatches asserts a solve reproduced the in-process trajectory
// exactly.
func checkSolveMatches(t *testing.T, tag string, got, want *robust.Result) {
	t.Helper()
	if got.Generations != want.Generations || got.Stagnated != want.Stagnated {
		t.Errorf("%s: run shape (%d, %v), want (%d, %v)",
			tag, got.Generations, got.Stagnated, want.Generations, want.Stagnated)
	}
	if !schedulesEqual(got.Schedule, want.Schedule) {
		t.Errorf("%s: schedules differ (makespan %v vs %v)",
			tag, got.Schedule.Makespan(), want.Schedule.Makespan())
	}
}

// checkHosted requires a fault-free sharded solve: nothing ran in process,
// and each of the first n workers ran epochs.
func checkHosted(t *testing.T, tag string, reg *obs.Registry, n int) {
	t.Helper()
	if d := reg.Counter("dist.degraded_solves").Value(); d != 0 {
		t.Errorf("%s: %d degraded solves, want 0", tag, d)
	}
	for i := 0; i < n; i++ {
		if reg.Counter(fmt.Sprintf("dist.worker%d.epochs", i)).Value() == 0 {
			t.Errorf("%s: worker %d ran no epoch", tag, i)
		}
	}
}

// TestRecoveryFinishesInProcess is the recovery rule on two pool shapes:
// with a spare worker and without one. A fault-free run counts the F
// island-state answers of worker 0 (the first endpoint the pool is built
// on); then, for every n in [0, F), worker 0 is killed after its n-th
// answer. Every killed solve must finish in process exactly once,
// bit-identical to robust.Solve, and leave its pool serving an evaluation
// bit-identically with no deadline armed: a healthy worker put back with
// an answer unread would hang it.
func TestRecoveryFinishesInProcess(t *testing.T) {
	w := testWorkload(t, 13, 40, 4, 3)
	opt := defaultIslandOpts()
	want, err := robustSolveRef(t, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	ss := testSchedules(t, w)
	simOpt := sim.Options{Realizations: 64, Workers: 1}
	wantMetrics, err := sim.EvaluateAll(ss, simOpt, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name    string
		newPool func(first Endpoint) *Pool
	}{
		// 3 island hosts out of a 4-worker pool leave a spare.
		{"spare", func(first Endpoint) *Pool {
			return NewPool([]Endpoint{first, LocalEndpoint(), LocalEndpoint(), LocalEndpoint()})
		}},
		{"none", func(first Endpoint) *Pool {
			return NewPool([]Endpoint{first, LocalEndpoint()})
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			var answers atomic.Int64
			pool := shape.newPool(relayResponses(LocalEndpoint(), func(kind byte, payload []byte) ([]byte, int) {
				if kind == KIslandState {
					answers.Add(1)
				}
				return payload, 1
			}))
			reg := obs.NewRegistry()
			hosts := min(pool.Live(), opt.Islands)
			got, err := (&Coordinator{Pool: pool, Obs: reg}).Solve(w, opt, rng.New(31))
			if err != nil {
				t.Fatal(err)
			}
			checkSolveMatches(t, "fault-free", got, want)
			checkHosted(t, "fault-free", reg, hosts)
			if err := pool.Close(); err != nil {
				t.Fatal(err)
			}
			f := int(answers.Load())
			if f < 2 {
				t.Fatalf("worker 0 answered %d island states; nothing to kill", f)
			}
			t.Logf("worker 0 answers %d island states in a fault-free solve", f)
			for n := 0; n < f; n++ {
				tag := fmt.Sprintf("kill after %d of %d answers", n, f)
				pool := shape.newPool(killAfterFrames(LocalEndpoint(), n))
				reg := obs.NewRegistry()
				coord := &Coordinator{Pool: pool, Obs: reg}
				got, err := coord.Solve(w, opt, rng.New(31))
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				checkSolveMatches(t, tag, got, want)
				if d := reg.Counter("dist.degraded_solves").Value(); d != 1 {
					t.Errorf("%s: %d degraded solves, want 1", tag, d)
				}
				if reg.Counter("dist.worker_deaths").Value() == 0 {
					t.Errorf("%s: the killed worker was not counted dead", tag)
				}
				ms, err := coord.EvaluateAll(ss, simOpt, rng.New(5))
				if err != nil {
					t.Fatalf("%s: evaluation after the solve: %v", tag, err)
				}
				for j := range ss {
					if !metricsBitEqual(ms[j], wantMetrics[j]) {
						t.Errorf("%s: schedule %d: metrics differ after the solve", tag, j)
					}
				}
				if err := pool.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestDuplicatedRequestFinishesInProcess: worker 0 receives its first epoch
// request twice, so it steps its islands twice and answers twice. The
// coordinator folds the first answer; the repeated one arrives in place of
// the next answer and fails its Seq check, a transport failure, so the
// solve finishes in process with the same result.
func TestDuplicatedRequestFinishesInProcess(t *testing.T) {
	w := testWorkload(t, 13, 40, 4, 3)
	opt := defaultIslandOpts()
	want, err := robustSolveRef(t, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool([]Endpoint{duplicateRequest(LocalEndpoint(), 1), LocalEndpoint()})
	defer pool.Close()
	reg := obs.NewRegistry()
	got, err := (&Coordinator{Pool: pool, Obs: reg}).Solve(w, opt, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	checkSolveMatches(t, "duplicated epoch", got, want)
	if d := reg.Counter("dist.degraded_solves").Value(); d != 1 {
		t.Errorf("%d degraded solves, want 1", d)
	}
	if reg.Counter("dist.worker_deaths").Value() == 0 {
		t.Error("the out-of-sequence answer did not count a worker death")
	}
}

// TestSeqIsPerPool: two Coordinators share one worker, and the relay drops
// the second call's setup. Sequence numbers are drawn per pool, so the
// second call's ranges name a setup the worker does not hold; the worker
// answers with its setup error and the call finishes inline, bit-identical
// to the in-process run. Numbered per Coordinator, both setups would have
// ID 1, and the second call's ranges would run on the first call's
// schedules without an error.
func TestSeqIsPerPool(t *testing.T) {
	first := testSchedules(t, testWorkload(t, 29, 20, 3, 3))
	ss := testSchedules(t, testWorkload(t, 7, 30, 3, 3))
	opt := sim.Options{Realizations: 64, Workers: 1}
	want, err := sim.EvaluateAll(ss, opt, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	setups := 0
	pool := NewPool([]Endpoint{relayRequests(LocalEndpoint(), func(kind byte) int {
		if kind == KSimSetup {
			if setups++; setups == 2 {
				return 0
			}
		}
		return 1
	})})
	defer pool.Close()
	if _, err := (&Coordinator{Pool: pool}).EvaluateAll(first, opt, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	got, err := (&Coordinator{Pool: pool, Obs: reg}).EvaluateAll(ss, opt, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for j := range ss {
		if !metricsBitEqual(got[j], want[j]) {
			t.Errorf("schedule %d: mean makespan %v, want %v (M0 %v)", j, got[j].MeanMakespan, want[j].MeanMakespan, want[j].M0)
		}
	}
	if d := reg.Counter("dist.worker_deaths").Value(); d != 1 {
		t.Errorf("%d worker deaths, want 1", d)
	}
	if reg.Counter("dist.inline_ranges").Value() == 0 {
		t.Error("no range ran inline after the worker's setup error")
	}
}

// TestStaleResultNeverPasses: the relay delivers the last range answer of
// one call twice, so the copy waits on the connection for the next call.
// There it fails the next answer's seq check: the worker is counted dead
// once, its ranges run inline, and the metrics match the in-process run.
func TestStaleResultNeverPasses(t *testing.T) {
	ss := testSchedules(t, testWorkload(t, 7, 20, 3, 3))
	opt := sim.Options{Realizations: 24, Workers: 1}
	want, err := sim.EvaluateAll(ss, opt, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	const rangeSize = 8 // 3 ranges per call
	results := 0
	pool := NewPool([]Endpoint{relayResponses(LocalEndpoint(), func(kind byte, payload []byte) ([]byte, int) {
		if kind == KSimResult {
			if results++; results == opt.Realizations/rangeSize {
				return payload, 2
			}
		}
		return payload, 1
	})})
	defer pool.Close()
	reg := obs.NewRegistry()
	coord := &Coordinator{Pool: pool, Obs: reg, RangeSize: rangeSize}
	if _, err := coord.EvaluateAll(ss, opt, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	if d := reg.Counter("dist.worker_deaths").Value(); d != 0 {
		t.Fatalf("the first call counted %d worker deaths, want 0", d)
	}
	got, err := coord.EvaluateAll(ss, opt, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for j := range ss {
		if !metricsBitEqual(got[j], want[j]) {
			t.Errorf("schedule %d: metrics differ after the stale answer", j)
		}
	}
	if d := reg.Counter("dist.worker_deaths").Value(); d != 1 {
		t.Errorf("%d worker deaths, want 1", d)
	}
	if n := reg.Counter("dist.inline_ranges").Value(); n != 3 {
		t.Errorf("%d inline ranges, want the second call's 3", n)
	}
}

// TestEmptyPoolSolvesInProcess: a pool with no workers at all still solves,
// in process from the start.
func TestEmptyPoolSolvesInProcess(t *testing.T) {
	w := testWorkload(t, 13, 20, 3, 3)
	opt := defaultIslandOpts()
	want, err := robustSolveRef(t, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(nil)
	defer pool.Close()
	reg := obs.NewRegistry()
	coord := &Coordinator{Pool: pool, Obs: reg}
	got, err := coord.Solve(w, opt, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	checkSolveMatches(t, "empty-pool", got, want)
	if reg.Counter("dist.degraded_solves").Value() == 0 {
		t.Error("expected the empty pool to count a degraded solve")
	}
}

// TestIncompleteIslandStatesRecover: a worker whose state answers omit one
// of its islands, or list one twice, is treated as dead and the solve
// finishes in process. Folding such an answer would leave an island's stale
// best feeding migration, the stagnation rule and the final pick.
func TestIncompleteIslandStatesRecover(t *testing.T) {
	w := testWorkload(t, 13, 20, 3, 3)
	opt := defaultIslandOpts() // 3 islands on 2 workers: worker 0 hosts islands 0 and 2
	want, err := robustSolveRef(t, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	mangles := map[string]func([]IslandState) []IslandState{
		"omit":      func(st []IslandState) []IslandState { return st[:len(st)-1] },
		"duplicate": func(st []IslandState) []IslandState { return append(st[:len(st)-1], st[0]) },
	}
	for name, mangle := range mangles {
		mangled := relayResponses(LocalEndpoint(), func(kind byte, payload []byte) ([]byte, int) {
			var states IslandStates
			if kind != KIslandState || parseJSON(payload, &states) != nil || len(states.States) < 2 {
				return payload, 1
			}
			states.States = mangle(states.States)
			out, err := marshalJSON(states)
			if err != nil {
				return nil, 0
			}
			return out, 1
		})
		pool := NewPool([]Endpoint{mangled, LocalEndpoint()})
		reg := obs.NewRegistry()
		got, err := (&Coordinator{Pool: pool, Obs: reg}).Solve(w, opt, rng.New(31))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkSolveMatches(t, name, got, want)
		if reg.Counter("dist.worker_deaths").Value() == 0 {
			t.Errorf("%s: the mangled answer did not count a worker death", name)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
