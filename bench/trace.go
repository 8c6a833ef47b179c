package main

import (
	"fmt"
	"maps"
	"runtime"
	"time"

	"robsched/internal/heft"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/schedule"
	"robsched/internal/sim"
)

// perLayer assembles the per-layer metrics of a traced run. base is the
// untraced loop and tr the traced one, whose calls lt timed; lt also holds
// the in-process replays of the traced requests. A layer the workload's
// requests do not reach is measured by a probe on the workload's own
// input graph instead, so every workload reports every layer.
func perLayer(srv server, sc scale, base, tr loopStats, lt *layers, wire wireCounts) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	reqWall := sum(tr.lat)

	// Each loop's latency in its own reference units, so that drift of the
	// machine's speed between the loops does not pass for tracing overhead.
	put("trace.overhead_ratio", (median(tr.lat)/median(tr.ref))/(median(base.lat)/median(base.ref)), "ratio")
	put("machine.ref_us", 1e6*median(base.ref), "us")
	put("process.cpu_utilization", sum(base.cpu)/(sum(base.lat)*float64(runtime.NumCPU())), "ratio")
	rss, err := peakRSS("self")
	if err != nil {
		return nil, err
	}
	if ws := srv.workers(); ws != nil {
		w, err := ws.rss()
		if err != nil {
			return nil, err
		}
		rss += w
	}
	put("process.peak_rss_mb", float64(rss)/1e6, "MB")

	// Monte-Carlo: its share of the traced requests' time, and the
	// SeedVector / RealizeSeeded / MetricsFromSamples split.
	put("sim.share", lt.mc.sec()/reqWall, "ratio")
	put("sim.seed_us_per_call", 1e6*lt.seed.sec()/float64(lt.seed.n()), "us")
	put("sim.realize_ns_per_task_realization", 1e9*lt.realize.sec()/float64(lt.taskReal.Load()), "ns")
	put("sim.reduce_ns_per_schedule_realization", 1e9*lt.reduce.sec()/float64(lt.schedReal.Load()), "ns")

	// The GA: the hooks of the engine's config inside ga.Run.
	g := lt
	if g.gaRun.n() == 0 {
		g = &layers{}
		probe := &solvePaper{seed: 1, sc: sc, pool: []*platform.Workload{srv.sample()}}
		if _, err := probe.serve(0, g); err != nil {
			return nil, fmt.Errorf("GA probe: %w", err)
		}
	}
	run := g.gaRun.sec()
	hooks := g.evaluate.sec() + g.crossover.sec() + g.mutate.sec() + g.random.sec()
	put("heft.ms", 1e3*g.heft.sec()/float64(g.heft.n()), "ms")
	put("ga.run_ms", 1e3*run/float64(g.gaRun.n()), "ms")
	put("ga.loop_share", (run-hooks)/run, "ratio")
	put("robust.evaluate_share", g.evaluate.sec()/run, "ratio")
	put("robust.evaluate_us_per_miss", 1e6*g.evaluate.sec()/float64(g.misses.Load()), "us")
	put("robust.crossover_us", 1e6*g.crossover.sec()/float64(g.crossover.n()), "us")
	put("robust.mutate_us", 1e6*g.mutate.sec()/float64(g.mutate.n()), "us")
	put("robust.cache_hit_ratio", float64(g.hits.Load())/float64(g.hits.Load()+g.misses.Load()), "ratio")

	// The dist wire: sharded calls against their in-process twins.
	d, reqs := lt, float64(len(tr.lat))
	var spawn time.Duration
	if ws := srv.workers(); ws != nil {
		spawn = ws.spawnTime
	} else {
		d, reqs = &layers{}, 1
		var err error
		if wire, spawn, err = probeDist(d, srv.sample(), sc); err != nil {
			return nil, fmt.Errorf("dist probe: %w", err)
		}
	}
	perCall := func(c *clock) float64 { return c.sec() / float64(c.n()) }
	put("dist.spawn_ms", 1e3*spawn.Seconds(), "ms")
	put("dist.solve_overhead_ratio", perCall(&d.distSolve)/perCall(&d.localSolve), "ratio")
	put("dist.eval_overhead_ratio", perCall(&d.distEval)/perCall(&d.localEval), "ratio")
	put("dist.wire_kb_per_req", float64(wire.bytesOut+wire.bytesIn)/1e3/reqs, "KB")
	put("dist.wire_writes_per_req", float64(wire.writes)/reqs, "count")
	// Each worker connection's reader blocks while its worker computes.
	put("dist.read_wait_share", wire.readWait.Seconds()/shardWorkers/(d.distSolve.sec()+d.distEval.sec()), "ratio")

	return m, probeKernels(m, srv.sample())
}

// probeDist runs one sharded request on w over freshly spawned workers and
// replays it in process, returning the wire traffic and the spawn time.
func probeDist(d *layers, w *platform.Workload, sc scale) (wireCounts, time.Duration, error) {
	s, err := newSharded(1, sc, []*platform.Workload{w}, true)
	if err != nil {
		return wireCounts{}, 0, err
	}
	ps, err := s.serve(0, d)
	if err == nil {
		var ref []product
		if ref, err = s.reference(0, d); err == nil && !maps.Equal(digests(ps), digests(ref)) {
			err = fmt.Errorf("sharded and in-process outputs differ")
		}
	}
	wire := s.ws.wire.snapshot()
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return wire, s.ws.spawnTime, err
}

// perUnit times f, which does units units of work, five times and returns
// the median nanoseconds per unit.
func perUnit(units int, f func()) float64 {
	xs := make([]float64, 5)
	for k := range xs {
		t := time.Now()
		f()
		xs[k] = float64(time.Since(t).Nanoseconds()) / float64(units)
	}
	return median(xs)
}

// probeKernels times the leaf kernels on the shapes of w: the block fill of
// one realization's uniforms, the two inverse CDFs of the heavy-tailed
// models, the 8-lane makespan kernel, a chromosome decode, and a
// single-schedule evaluation under each duration model.
func probeKernels(m map[string]metric, w *platform.Workload) error {
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	n, reps := w.N(), 200
	r := rng.New(1)
	u := make([]float64, n*w.M())
	put("rng.fill_ns_per_draw", perUnit(reps*len(u), func() {
		for k := 0; k < reps; k++ {
			r.Float64s(u)
		}
	}), "ns")
	put("rng.lognormal_quantile_ns", perUnit(reps*len(u), func() {
		for k := 0; k < reps; k++ {
			for _, x := range u {
				sink += rng.LogNormalQuantile(3, 0.4, x)
			}
		}
	}), "ns")
	put("rng.pareto_quantile_ns", perUnit(reps*len(u), func() {
		for k := 0; k < reps; k++ {
			for _, x := range u {
				sink += rng.BoundedParetoQuantile(20, 60, 1.5, x)
			}
		}
	}), "ns")

	s, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		return err
	}
	const lanes = 8
	dur := make([]float64, n*lanes)
	for i := range dur {
		dur[i] = w.ExpectedAt(i/lanes, s.Proc(i/lanes)) * (0.5 + u[i%len(u)])
	}
	st, fin, out := make([]float64, lanes), make([]float64, n*lanes), make([]float64, lanes)
	put("schedule.kernel_ns_per_task_lane", perUnit(reps*n*lanes, func() {
		for k := 0; k < reps; k++ {
			s.MakespanBatchInto(lanes, dur, st, fin, out)
		}
		sink += out[0]
	}), "ns")

	dec := schedule.NewDecoder(w)
	order, proc := robust.Random(w, rng.New(2)).Genes()
	put("schedule.decode_us", perUnit(reps, func() {
		for k := 0; k < reps && err == nil; k++ {
			var d *schedule.Schedule
			if d, err = dec.Decode(order, proc); err == nil {
				sink += d.Makespan()
			}
		}
	})/1e3, "us")
	if err != nil {
		return err
	}

	evalNs := func(opt sim.Options) float64 {
		opt.Realizations = 1000
		return perUnit(1, func() {
			ms, e := sim.Evaluate(s, opt, rng.New(3))
			if e != nil && err == nil {
				err = e
			}
			sink += ms.MeanMakespan
		})
	}
	uni := evalNs(sim.Options{})
	put("sim.lognormal_over_uniform", evalNs(sim.Options{Model: sim.ModelLognormal})/uni, "ratio")
	put("sim.pareto_over_uniform", evalNs(sim.Options{Model: sim.ModelBoundedPareto, ParetoShape: 1.5})/uni, "ratio")
	return err
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
