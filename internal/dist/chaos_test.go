package dist

import (
	"errors"
	"testing"
	"time"

	"robsched/internal/fault"
	"robsched/internal/obs"
	"robsched/internal/rng"
	"robsched/internal/sim"
)

// typedTransportError reports whether err is one of the declared failure
// shapes of the distribution runtime — the only errors chaos is allowed to
// surface. Anything else (or a silent mismatch) is a verdict of corruption.
func typedTransportError(err error) bool {
	var we *WorkerError
	return errors.As(err, &we) ||
		errors.Is(err, ErrDeadline) ||
		errors.Is(err, ErrPoolExhausted) ||
		errors.Is(err, ErrPoolClosed)
}

// chaosPlans is the injection matrix: every failure kind the fault wrapper
// can produce, at rates high enough that each run meets several injections.
func chaosPlans() map[string]ChaosPlan {
	return map[string]ChaosPlan{
		// Bit flips anywhere in the encoded frame. The CRC must catch every
		// one — a flip that survived into a parsed payload would be silent
		// corruption.
		"corrupt": {Seed: 101, Corrupt: 0.2},
		// Torn writes: part of a frame, then the connection dies.
		"truncate": {Seed: 102, Truncate: 0.15},
		// At-least-once delivery: frames arrive twice; sequence numbers and
		// the workers' replay cache must keep effects at-most-once.
		"duplicate": {Seed: 103, Duplicate: 0.5},
		// Outages swallow in-flight frames: a stall, only a deadline
		// unmasks it. Timescales are link-seconds; the clock advances by
		// frame bytes / Rate, so they are tuned to the test's traffic.
		"stall": {Seed: 104, Link: fault.Model{OutageEvery: 0.05, OutageMean: 0.1}},
		// Permanent link failure: the connection drops mid-conversation.
		"kill": {Seed: 105, Link: fault.Model{MTBF: 0.08}},
		// Stragglers: transfers stretch far past the frame deadline.
		"delay": {Seed: 106, Link: fault.Model{SlowEvery: 0.03, SlowMean: 0.1, SlowFactor: 100}},
		// Everything at once.
		"storm": {
			Seed: 107, Corrupt: 0.05, Truncate: 0.05, Duplicate: 0.2,
			Link: fault.Model{MTBF: 0.3, OutageEvery: 0.1, OutageMean: 0.05},
		},
		// Wide-area latency: fixed per-direction lag plus jitter. Pure
		// delay must never change results — only completion order.
		"latency": {Seed: 108, Delay: time.Millisecond, DelayJitter: 2 * time.Millisecond},
		// Latency under fire: the full storm riding a jittery slow link,
		// the closest emulation of a bad cross-machine hop.
		"latency-storm": {
			Seed: 109, Delay: 500 * time.Microsecond, DelayJitter: time.Millisecond,
			Corrupt: 0.05, Truncate: 0.05, Duplicate: 0.2,
			Link: fault.Model{MTBF: 0.3, OutageEvery: 0.1, OutageMean: 0.05},
		},
	}
}

func chaosPool(n int, pl ChaosPlan) *Pool {
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i] = pl.Wrap(LocalEndpoint(), i)
	}
	return NewPool(eps)
}

// TestChaosSimRanges drives the scatter/gather realization path through the
// whole injection matrix: every run must either produce bit-identical
// metrics (faults absorbed by reassignment or the inline fallback) or fail
// with a typed transport error — never hang, never silently differ.
func TestChaosSimRanges(t *testing.T) {
	w := testWorkload(t, 29, 20, 3, 3)
	ss := testSchedules(t, w)
	opt := sim.Options{Realizations: 80, Workers: 1}
	want, err := sim.EvaluateAll(ss, opt, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	var totalDeaths int64
	for name, pl := range chaosPlans() {
		t.Run(name, func(t *testing.T) {
			pool := chaosPool(2, pl)
			defer pool.Close()
			reg := obs.NewRegistry()
			pool.Obs = reg
			coord := &Coordinator{Pool: pool, Obs: reg, Timeout: 150 * time.Millisecond}
			got, err := coord.EvaluateAll(ss, opt, rng.New(12))
			totalDeaths += reg.Counter("dist.worker_deaths").Value()
			if err != nil {
				if !typedTransportError(err) {
					t.Fatalf("untyped error escaped: %v", err)
				}
				return
			}
			for j := range ss {
				if !metricsBitEqual(got[j], want[j]) {
					t.Fatalf("schedule %d: SILENT CORRUPTION — metrics differ without an error", j)
				}
			}
		})
	}
	if totalDeaths == 0 {
		t.Error("the whole injection matrix killed no worker — chaos is not biting")
	}
}

// TestChaosIslandSolve drives the island solve — init, epochs, migrations,
// replay recovery — through the injection matrix, with respawn armed so
// recovery itself runs under fire (respawned workers are wrapped too).
func TestChaosIslandSolve(t *testing.T) {
	w := testWorkload(t, 13, 20, 3, 3)
	opt := defaultIslandOpts()
	want, err := robustSolveRef(t, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	var totalDeaths int64
	for name, pl := range chaosPlans() {
		t.Run(name, func(t *testing.T) {
			pool := chaosPool(2, pl)
			defer pool.Close()
			reg := obs.NewRegistry()
			pool.Obs = reg
			defer func() { totalDeaths += reg.Counter("dist.worker_deaths").Value() }()
			next := 100
			pool.Respawn(func() (Endpoint, error) {
				next++
				return pl.Wrap(LocalEndpoint(), next), nil
			}, 3)
			coord := &Coordinator{Pool: pool, Obs: reg, Timeout: 150 * time.Millisecond}
			got, err := coord.Solve(w, opt, rng.New(31))
			if err != nil {
				if !typedTransportError(err) {
					t.Fatalf("untyped error escaped: %v", err)
				}
				return
			}
			checkSolveMatches(t, name, got, want)
		})
	}
	if totalDeaths == 0 {
		t.Error("the whole injection matrix killed no worker — chaos is not biting")
	}
}

// TestChaosInjectionsAreSeeded: the same plan over the same frame sequence
// injects identically — a failing chaos run can be replayed bit for bit.
func TestChaosInjectionsAreSeeded(t *testing.T) {
	run := func() (int, error) {
		pl := ChaosPlan{Seed: 7, Corrupt: 0.3}
		pool := NewPool([]Endpoint{pl.Wrap(LocalEndpoint(), 0)})
		defer pool.Close()
		reg := obs.NewRegistry()
		pool.Obs = reg
		coord := &Coordinator{Pool: pool, Obs: reg, Timeout: 200 * time.Millisecond}
		w := testWorkload(t, 29, 15, 3, 3)
		ss := testSchedules(t, w)
		_, err := coord.EvaluateAll(ss, sim.Options{Realizations: 24, Workers: 1}, rng.New(3))
		return int(reg.Counter("dist.worker_deaths").Value()), err
	}
	d1, err1 := run()
	d2, err2 := run()
	if d1 != d2 || (err1 == nil) != (err2 == nil) {
		t.Errorf("same seed, different injections: deaths %d vs %d, errs %v vs %v", d1, d2, err1, err2)
	}
}
