package dist

import (
	"fmt"
	"os"
	"testing"
	"time"

	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/sim"
)

// benchProcPool spawns n real worker subprocesses (the test binary re-execed
// into ServeWorker, same shape as `robsched worker`), outside the timed loop.
func benchProcPool(b *testing.B, n int) *Pool {
	b.Helper()
	exe, err := os.Executable()
	if err != nil {
		b.Fatal(err)
	}
	b.Setenv("ROBSCHED_DIST_TEST_WORKER", "1")
	pool, err := NewSpawnPool(n, ProcEndpoint(exe))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pool.Close() })
	return pool
}

// BenchmarkDistEvaluateAll measures the Monte-Carlo scatter/gather against
// the in-process engine on the same workload. Worker-side parallelism is
// pinned to 1 so the sharding speedup is attributable to the processes: on
// an m-core machine, shards=k should approach min(k, m)× the inproc lane;
// on a single core the lanes expose the wire + process overhead instead.
func BenchmarkDistEvaluateAll(b *testing.B) {
	w := testWorkload(b, 1, 100, 4, 4)
	ss := testSchedules(b, w)
	opt := sim.Options{Realizations: 1000, Workers: 1}

	b.Run("inproc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.EvaluateAll(ss, opt, rng.New(7)); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			pool := benchProcPool(b, shards)
			coord := &Coordinator{Pool: pool}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.EvaluateAll(ss, opt, rng.New(7)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The hardened lane arms liveness (a send deadline per frame, a job
	// budget per range) on a fault-free run: its gap to shards=4 is the
	// price of the failure detector when nothing fails.
	b.Run("shards=4/hardened", func(b *testing.B) {
		pool := benchProcPool(b, 4)
		coord := &Coordinator{Pool: pool, Timeout: 5 * time.Second}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := coord.EvaluateAll(ss, opt, rng.New(7)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchTCPPool starts n in-process loopback TCP worker servers and a pool
// dialed into them, outside the timed loop.
func benchTCPPool(b *testing.B, n int) *Pool {
	b.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		srv, err := ListenWorker("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go func() { _ = srv.Serve() }()
		b.Cleanup(srv.Shutdown)
		addrs[i] = srv.Addr()
	}
	pool, err := NewSpawnPool(len(addrs), TCPSpawner(addrs, 0))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pool.Close() })
	return pool
}

// BenchmarkDistEvaluateAllTCP is the loopback-TCP twin of the shards=4
// pipes lane above: same workload, same shard count, sockets instead of
// subprocess pipes. The gap between the two is the socket tax — the
// acceptance bar is staying within ~10% of pipes on loopback.
func BenchmarkDistEvaluateAllTCP(b *testing.B) {
	w := testWorkload(b, 1, 100, 4, 4)
	ss := testSchedules(b, w)
	opt := sim.Options{Realizations: 1000, Workers: 1}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("tcp=%d", workers), func(b *testing.B) {
			pool := benchTCPPool(b, workers)
			coord := &Coordinator{Pool: pool}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.EvaluateAll(ss, opt, rng.New(7)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistPipelineRTT is the latency matrix behind the flow-control
// design: scatter/gather over a single worker whose link carries an
// injected round trip of 0/1/5/20ms, dispatched strictly (depth=1, one
// range in flight — the pre-pipelining behavior) versus with the
// RTT-derived credit window (depth=auto). Throughput at depth=1 collapses
// linearly with RTT (one full round trip per range); the pipelined lanes
// must hold roughly flat, ≥2× depth-1 at 5ms.
func BenchmarkDistPipelineRTT(b *testing.B) {
	w := testWorkload(b, 1, 60, 4, 4)
	ss := testSchedules(b, w)
	opt := sim.Options{Realizations: 512, Workers: 1}
	for _, rtt := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond} {
		for _, depth := range []int{1, 0} {
			name := fmt.Sprintf("rtt=%s/depth=auto", rtt)
			if depth == 1 {
				name = fmt.Sprintf("rtt=%s/depth=1", rtt)
			}
			b.Run(name, func(b *testing.B) {
				pl := ChaosPlan{Seed: 1, Delay: rtt / 2}
				pool := NewPool([]Endpoint{pl.Wrap(LocalEndpoint(), 0)})
				b.Cleanup(func() { pool.Close() })
				coord := &Coordinator{
					Pool:          pool,
					Timeout:       30 * time.Second,
					PipelineDepth: depth,
					RangeSize:     32, // 16 ranges in flight contention
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := coord.EvaluateAll(ss, opt, rng.New(7)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDistSolveIslands measures an island-GA solve hosted on worker
// processes against the same run in-process, bit-identical by construction.
func BenchmarkDistSolveIslands(b *testing.B) {
	w := testWorkload(b, 2, 100, 4, 4)
	opt := robust.Options{
		Mode: robust.EpsilonConstraint, Eps: 1.4,
		PopSize: 20, MaxGenerations: 50, Stagnation: 0,
		Islands: 4, MigrationEvery: 10,
	}

	b.Run("inproc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := robust.Solve(w, opt, rng.New(11)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sharded", func(b *testing.B) {
		pool := benchProcPool(b, 4)
		coord := &Coordinator{Pool: pool}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := coord.Solve(w, opt, rng.New(11)); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Liveness armed on a fault-free solve: measures the standing cost of
	// the send deadlines and job budgets.
	b.Run("sharded/hardened", func(b *testing.B) {
		pool := benchProcPool(b, 4)
		coord := &Coordinator{Pool: pool, Timeout: 5 * time.Second}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := coord.Solve(w, opt, rng.New(11)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
