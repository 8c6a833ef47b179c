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
// can produce, at rates high enough that every plan but latency kills a
// worker on each dispatch path (checkBites).
func chaosPlans() map[string]ChaosPlan {
	return map[string]ChaosPlan{
		// Bit flips anywhere in the encoded frame. The CRC must catch every
		// one — a flip that survived into a parsed payload would be silent
		// corruption.
		"corrupt": {Seed: 101, Corrupt: 0.2},
		// Torn writes: part of a frame, then the connection dies.
		"truncate": {Seed: 102, Truncate: 0.15},
		// At-least-once delivery: frames arrive twice. A repeated answer
		// breaks the next answer's sequence check, a transport failure.
		"duplicate": {Seed: 103, Duplicate: 0.5},
		// Outages swallow in-flight frames: a stall, only a deadline
		// unmasks it. Timescales are link-seconds; the clock advances by
		// frame bytes / chaosRate, so they are tuned to the test's traffic:
		// a connection carries at most ~6 KB per direction, about 0.006
		// link-seconds.
		"stall": {Seed: 104, Link: fault.Model{OutageEvery: 0.002, OutageMean: 0.5}},
		// Permanent link failure: the connection drops mid-conversation.
		"kill": {Seed: 105, Link: fault.Model{MTBF: 0.004}},
		// Stragglers: frames arrive far past the liveness deadline.
		"delay": {Seed: 106, DelayJitter: 400 * time.Millisecond},
		// Everything at once. The link timeline is kill's and stall's
		// together, tuned to the same traffic, so it bites on its own
		// (TestChaosLinkTimelinesBite).
		"storm": {
			Seed: 107, Corrupt: 0.05, Truncate: 0.05, Duplicate: 0.2,
			Link: fault.Model{MTBF: 0.004, OutageEvery: 0.002, OutageMean: 0.5},
		},
		// Wide-area latency: fixed per-direction lag plus jitter. Pure
		// delay must never change results — only completion order.
		"latency": {Seed: 108, Delay: time.Millisecond, DelayJitter: 2 * time.Millisecond},
		// Latency under fire: the full storm riding a jittery slow link,
		// the closest emulation of a bad cross-machine hop.
		"latency-storm": {
			Seed: 109, Delay: 500 * time.Microsecond, DelayJitter: time.Millisecond,
			Corrupt: 0.05, Truncate: 0.05, Duplicate: 0.2,
			Link: fault.Model{MTBF: 0.004, OutageEvery: 0.002, OutageMean: 0.5},
		},
	}
}

// checkBites requires that a plan hurt the run it drove: every plan but
// latency must kill at least one worker, and latency, pure delay well
// inside the deadline, none. A plan that injects nothing tests nothing.
func checkBites(t *testing.T, name string, reg *obs.Registry) {
	t.Helper()
	deaths := reg.Counter("dist.worker_deaths").Value()
	switch {
	case name == "latency" && deaths != 0:
		t.Errorf("latency plan killed %d workers, want none", deaths)
	case name != "latency" && deaths == 0:
		t.Errorf("plan %s killed no worker — chaos is not biting", name)
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
// with a typed transport error — never hang, never silently differ. Ranges
// of 8 realizations make 10 answers: a duplicate of a connection's last
// answer is read only by the next call, so with 3 ranges the duplicate plan
// could pass without hitting a sequence check.
func TestChaosSimRanges(t *testing.T) {
	w := testWorkload(t, 29, 20, 3, 3)
	ss := testSchedules(t, w)
	opt := sim.Options{Realizations: 80, Workers: 1}
	want, err := sim.EvaluateAll(ss, opt, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	for name, pl := range chaosPlans() {
		t.Run(name, func(t *testing.T) {
			pool := chaosPool(2, pl)
			defer pool.Close()
			reg := obs.NewRegistry()
			coord := &Coordinator{Pool: pool, Obs: reg, Timeout: 150 * time.Millisecond, RangeSize: 8}
			got, err := coord.EvaluateAll(ss, opt, rng.New(12))
			checkBites(t, name, reg)
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
}

// TestChaosIslandSolve drives the island solve — init, epochs, migrations
// and the in-process finish of a failed solve — through the injection
// matrix.
func TestChaosIslandSolve(t *testing.T) {
	w := testWorkload(t, 13, 20, 3, 3)
	opt := defaultIslandOpts()
	want, err := robustSolveRef(t, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	for name, pl := range chaosPlans() {
		t.Run(name, func(t *testing.T) {
			pool := chaosPool(2, pl)
			defer pool.Close()
			reg := obs.NewRegistry()
			coord := &Coordinator{Pool: pool, Obs: reg, Timeout: 150 * time.Millisecond}
			got, err := coord.Solve(w, opt, rng.New(31))
			checkBites(t, name, reg)
			if err != nil {
				if !typedTransportError(err) {
					t.Fatalf("untyped error escaped: %v", err)
				}
				return
			}
			checkSolveMatches(t, name, got, want)
		})
	}
}

// TestChaosLinkTimelinesBite: the storm plans' link timelines hurt on
// their own. With the per-frame dice zeroed, each storm plan must still
// kill a worker on both dispatch paths; a timeline that misses the traffic
// would leave the plan biting on its dice alone.
func TestChaosLinkTimelinesBite(t *testing.T) {
	ws := testWorkload(t, 29, 20, 3, 3)
	ss := testSchedules(t, ws)
	wi := testWorkload(t, 13, 20, 3, 3)
	paths := []struct {
		name string
		run  func(*Coordinator) error
	}{
		{"sim-ranges", func(c *Coordinator) error {
			_, err := c.EvaluateAll(ss, sim.Options{Realizations: 80, Workers: 1}, rng.New(12))
			return err
		}},
		{"island-solve", func(c *Coordinator) error {
			_, err := c.Solve(wi, defaultIslandOpts(), rng.New(31))
			return err
		}},
	}
	for _, name := range []string{"storm", "latency-storm"} {
		pl := chaosPlans()[name]
		pl.Corrupt, pl.Truncate, pl.Duplicate = 0, 0, 0
		for _, path := range paths {
			t.Run(name+"/"+path.name, func(t *testing.T) {
				pool := chaosPool(2, pl)
				defer pool.Close()
				reg := obs.NewRegistry()
				err := path.run(&Coordinator{Pool: pool, Obs: reg, Timeout: 150 * time.Millisecond})
				if err != nil && !typedTransportError(err) {
					t.Fatalf("untyped error escaped: %v", err)
				}
				if reg.Counter("dist.worker_deaths").Value() == 0 {
					t.Error("the link timeline killed no worker")
				}
			})
		}
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
