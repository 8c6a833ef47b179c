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
// forward, or false to kill the worker at that frame instead.
func relayResponses(inner Endpoint, fn func(kind byte, payload []byte) ([]byte, bool)) Endpoint {
	resR, resW := io.Pipe()
	go func() {
		var buf []byte
		for {
			kind, payload, err := wio.ReadFrame(inner.R, buf)
			if err != nil {
				resW.CloseWithError(err)
				return
			}
			if cap(payload) > cap(buf) {
				buf = payload[:cap(payload)]
			}
			out, ok := fn(kind, payload)
			if !ok {
				break
			}
			raw, err := wio.AppendFrame(nil, kind, out)
			if err != nil {
				resW.CloseWithError(err)
				return
			}
			if _, err := resW.Write(raw); err != nil {
				return
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
	return relayResponses(inner, func(_ byte, payload []byte) ([]byte, bool) {
		n--
		return payload, n >= 0
	})
}

// checkSolveMatches asserts a recovered solve reproduced the fault-free
// trajectory exactly.
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

// recoverySweep is the recovery property of one rung of the ladder. A
// fault-free run counts the F island-state answers of worker 0 (the first
// endpoint newPool is handed); then, for every n in [1, F), worker 0 is
// killed after its n-th answer, and the solve must recover exactly once and
// still reproduce the in-process trajectory bit for bit. check asserts the
// rung's own counters.
//
// The final schedule shows a lagging island only while the islands are
// still far from converged, so the sweep runs on 40 tasks over 4
// processors: there a recovery that skips the replay, or only its last op,
// changes the result at most kill points, where on 20 tasks over 3 it
// changed at most one.
func recoverySweep(t *testing.T, opt robust.Options, newPool func(first Endpoint) *Pool, check func(tag string, reg *obs.Registry)) {
	t.Helper()
	w := testWorkload(t, 13, 40, 4, 3)
	want, err := robustSolveRef(t, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	var answers atomic.Int64
	pool := newPool(relayResponses(LocalEndpoint(), func(kind byte, payload []byte) ([]byte, bool) {
		if kind == KIslandState {
			answers.Add(1)
		}
		return payload, true
	}))
	got, err := (&Coordinator{Pool: pool}).Solve(w, opt, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	checkSolveMatches(t, "fault-free", got, want)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	f := int(answers.Load())
	if f < 2 {
		t.Fatalf("worker 0 answered %d island states; nothing to kill", f)
	}
	t.Logf("worker 0 answers %d island states in a fault-free solve", f)
	for n := 1; n < f; n++ {
		tag := fmt.Sprintf("kill after %d of %d frames", n, f)
		pool := newPool(killAfterFrames(LocalEndpoint(), n))
		reg := obs.NewRegistry()
		pool.Obs = reg
		got, err := (&Coordinator{Pool: pool, Obs: reg}).Solve(w, opt, rng.New(31))
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		checkSolveMatches(t, tag, got, want)
		if r := reg.Counter("dist.recoveries").Value(); r != 1 {
			t.Errorf("%s: %d recoveries, want 1", tag, r)
		}
		check(tag, reg)
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverySpareWorker: the dead host's islands are re-seeded on the
// pool's spare worker and replayed there.
func TestRecoverySpareWorker(t *testing.T) {
	// 3 island hosts out of a 4-worker pool leave a spare for recovery.
	recoverySweep(t, defaultIslandOpts(), func(first Endpoint) *Pool {
		return NewPool([]Endpoint{first, LocalEndpoint(), LocalEndpoint(), LocalEndpoint()})
	}, func(tag string, reg *obs.Registry) {
		if reg.Counter("dist.degraded_solves").Value() != 0 {
			t.Errorf("%s: degraded in-process despite a spare worker", tag)
		}
	})
}

// TestRecoveryRespawn: no spare workers, but respawn armed — the dead
// host's islands are replayed on a freshly spawned worker.
func TestRecoveryRespawn(t *testing.T) {
	recoverySweep(t, defaultIslandOpts(), func(first Endpoint) *Pool {
		pool := NewPool([]Endpoint{first, LocalEndpoint()})
		pool.Respawn(func() (Endpoint, error) { return LocalEndpoint(), nil }, 2)
		return pool
	}, func(tag string, reg *obs.Registry) {
		if reg.Counter("dist.respawns").Value() != 1 || reg.Counter("dist.degraded_solves").Value() != 0 {
			t.Errorf("%s: %d respawns, %d degraded solves; want 1 and 0", tag,
				reg.Counter("dist.respawns").Value(), reg.Counter("dist.degraded_solves").Value())
		}
	})
}

// TestRecoveryDegradesInProcess: no spares, no respawn — the dead host's
// islands fold into the coordinator process and the solve still completes
// bit-identically (graceful degradation, the last rung).
func TestRecoveryDegradesInProcess(t *testing.T) {
	recoverySweep(t, defaultIslandOpts(), func(first Endpoint) *Pool {
		return NewPool([]Endpoint{first, LocalEndpoint()})
	}, func(tag string, reg *obs.Registry) {
		if reg.Counter("dist.degraded_solves").Value() != 1 {
			t.Errorf("%s: expected in-process degradation", tag)
		}
	})
}

// TestEmptyPoolSolvesInProcess: a pool with no workers at all still solves
// — everything folds in-process from the start.
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
// of its islands, or list one twice, is treated as dead and its islands are
// recovered. Folding such an answer would leave an island's stale best
// feeding migration, the stagnation rule and the final pick.
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
		mangled := relayResponses(LocalEndpoint(), func(kind byte, payload []byte) ([]byte, bool) {
			var states IslandStates
			if kind != KIslandState || parseJSON(payload, &states) != nil || len(states.States) < 2 {
				return payload, true
			}
			states.States = mangle(states.States)
			out, err := marshalJSON(states)
			return out, err == nil
		})
		pool := NewPool([]Endpoint{mangled, LocalEndpoint()})
		reg := obs.NewRegistry()
		pool.Obs = reg
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
