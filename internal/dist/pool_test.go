package dist

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"robsched/internal/obs"
	"robsched/internal/rng"
	"robsched/internal/sim"
)

// TestPoolExhaustedUnblocksWaiters: a goroutine blocked in get because every
// worker is checked out must fail with ErrPoolExhausted — not block forever —
// when the holders discard their connections instead of returning them.
func TestPoolExhaustedUnblocksWaiters(t *testing.T) {
	pool := NewPool([]Endpoint{LocalEndpoint(), LocalEndpoint()})
	defer pool.Close()
	c1, err := pool.get()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := pool.get()
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := pool.get()
		errCh <- err
	}()
	select {
	case err := <-errCh:
		t.Fatalf("get returned early with %v; want it to block while holders live", err)
	case <-time.After(20 * time.Millisecond):
	}
	pool.discard(c1)
	pool.discard(c2)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrPoolExhausted) {
			t.Fatalf("waiter got %v, want ErrPoolExhausted", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter still blocked after the last holder died")
	}
	if live := pool.Live(); live != 0 {
		t.Errorf("Live() = %d, want 0", live)
	}
}

// TestPoolDiscardIdempotent: repeated discards of one connection decrement
// the live count exactly once, and put after discard never re-idles it.
func TestPoolDiscardIdempotent(t *testing.T) {
	pool := NewPool([]Endpoint{LocalEndpoint(), LocalEndpoint()})
	defer pool.Close()
	c, err := pool.get()
	if err != nil {
		t.Fatal(err)
	}
	pool.discard(c)
	pool.discard(c)
	pool.put(c)
	if live := pool.Live(); live != 1 {
		t.Fatalf("Live() = %d after double discard, want 1", live)
	}
	// The surviving worker is handed out; the discarded one never is.
	got, err := pool.get()
	if err != nil {
		t.Fatal(err)
	}
	if got == c {
		t.Fatal("discarded connection handed out again")
	}
	pool.put(got)
}

// TestTryGetDoesNotBlock: with every worker checked out, tryGet fails
// immediately with ErrPoolExhausted (an island solve calls it while holding
// other connections — blocking would self-deadlock).
func TestTryGetDoesNotBlock(t *testing.T) {
	pool := NewPool([]Endpoint{LocalEndpoint()})
	defer pool.Close()
	c, err := pool.tryGet()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := pool.tryGet(); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("tryGet = %v, want ErrPoolExhausted", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("tryGet blocked for %v", d)
	}
	pool.put(c)
}

// TestPoolConcurrentAccounting hammers get/put/discard/KillWorker from many
// goroutines (run under -race): the live count must track discards exactly,
// never go negative, and a discarded connection must never be handed out.
func TestPoolConcurrentAccounting(t *testing.T) {
	const workers = 8
	eps := make([]Endpoint, workers)
	for i := range eps {
		eps[i] = LocalEndpoint()
	}
	pool := NewPool(eps)
	defer pool.Close()
	var discards atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(1000 + g))
			for i := 0; i < 60; i++ {
				c, err := pool.get()
				if err != nil {
					if !errors.Is(err, ErrPoolExhausted) {
						t.Errorf("get: %v", err)
					}
					return
				}
				// We are the exclusive holder, so c.dead cannot change
				// under us: reading it here is race-free.
				if c.dead {
					t.Error("dead connection handed out")
				}
				switch r.Intn(10) {
				case 0:
					pool.discard(c)
					pool.discard(c) // double discard must stay a no-op
					discards.Add(1)
				case 1:
					pool.KillWorker(r.Intn(workers))
					pool.put(c)
				default:
					pool.put(c)
				}
			}
		}(g)
	}
	wg.Wait()
	live := pool.Live()
	if live < 0 {
		t.Fatalf("Live() = %d, negative", live)
	}
	if want := workers - int(discards.Load()); live != want {
		t.Errorf("Live() = %d, want %d (%d discards)", live, want, discards.Load())
	}
}

// TestOpenCoordinator: the CLIs' scatter flags are checked before any
// worker starts, neither -shards nor -remote means in process, and a valid
// set builds a working pool: here subprocess workers (the test binary
// re-execs into RunWorker, see TestMain) with liveness armed, whose results
// stay bit-identical.
func TestOpenCoordinator(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    Flags
		want string
	}{
		{"shards and remote", Flags{Shards: 2, Remote: "127.0.0.1:1"}, "mutually exclusive"},
		{"empty remote list", Flags{Remote: " , "}, "no worker addresses"},
	} {
		coord, err := OpenCoordinator(tc.f, nil, nil)
		if coord != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got (%v, %v), want an error mentioning %q", tc.name, coord, err, tc.want)
		}
	}
	if coord, err := OpenCoordinator(Flags{Timeout: time.Second}, nil, nil); coord != nil || err != nil {
		t.Errorf("no -shards or -remote: got (%v, %v), want (nil, nil)", coord, err)
	}

	t.Setenv("ROBSCHED_DIST_TEST_WORKER", "1")
	reg := obs.NewRegistry()
	coord, err := OpenCoordinator(Flags{Shards: 2, Timeout: 5 * time.Second}, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Pool.Close()
	w := testWorkload(t, 17, 15, 3, 3)
	ss := testSchedules(t, w)
	opt := sim.Options{Realizations: 64, Workers: 1}
	want, err := sim.EvaluateAll(ss, opt, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.EvaluateAll(ss, opt, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for j := range ss {
		if !metricsBitEqual(got[j], want[j]) {
			t.Errorf("schedule %d: metrics differ over the flag-built pool", j)
		}
	}
	if n := reg.Counter("dist.sim_ranges").Value(); n == 0 {
		t.Error("no range was realized by a worker")
	}
}
