// Command robsched schedules a DAG workload onto a heterogeneous platform
// and reports makespan, slack and Monte-Carlo robustness next to the HEFT
// baseline.
//
// Usage:
//
//	robsched [flags]
//
// The workload either comes from a JSON file (-workload, see internal/wio
// for the format) or is generated randomly with the paper's generator
// (-n, -m, -ul, -cc, -ccr, -shape, -seed).
//
// Examples:
//
//	robsched -n 100 -m 8 -ul 4 -scheduler ga -eps 1.4
//	robsched -workload w.json -scheduler heft -gantt
//	robsched -scenario montage-lognormal -n 100 -m 8 -scheduler ga
//	robsched -n 50 -scheduler ga -mode maxslack -out schedule.json
//	robsched -n 100 -scheduler ga -shards 4                 # sharded Monte-Carlo
//	robsched -n 100 -scheduler ga -shards 4 -islands 4      # sharded GA islands
//	robsched worker -listen :9444                           # TCP worker (machine B)
//	robsched -n 100 -scheduler ga -remote hostB:9444        # coordinator (machine A)
//
// `robsched worker` is the subcommand behind -shards and -remote: it speaks
// the dist wire protocol on stdin/stdout when spawned by the coordinator,
// or serves it on a TCP listener with -listen for cross-machine runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"robsched/internal/clark"
	"robsched/internal/dist"
	"robsched/internal/fault"
	"robsched/internal/gen"
	"robsched/internal/heft"
	"robsched/internal/obs"
	"robsched/internal/platform"
	"robsched/internal/repair"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/scenario"
	"robsched/internal/schedule"
	"robsched/internal/sim"
	"robsched/internal/stoch"
	"robsched/internal/viz"
	"robsched/internal/wio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "robsched:", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: flags are parsed from
// args into a private FlagSet and all human-readable output goes to stdout
// (golden-tested) while operational notes (trace path, pprof address) go to
// stderr.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && args[0] == "worker" {
		// The dist worker subcommand: binary frames on stdin/stdout until
		// the coordinator closes the pipe, or — with -listen — a TCP server
		// remote coordinators dial into (-remote). Either way SIGTERM/SIGINT
		// drain gracefully: in-flight work answers before the process exits.
		wfs := flag.NewFlagSet("robsched worker", flag.ContinueOnError)
		wfs.SetOutput(stderr)
		listen := wfs.String("listen", "", "serve the worker protocol on this TCP `address` (host:port; port 0 picks one, printed on stdout) instead of stdin/stdout")
		if err := wfs.Parse(args[1:]); err != nil {
			return err
		}
		return dist.RunWorker(*listen)
	}
	fs := flag.NewFlagSet("robsched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadPath = fs.String("workload", "", "JSON workload file (generated randomly when empty)")
		n            = fs.Int("n", 100, "tasks in the generated workload")
		m            = fs.Int("m", 8, "processors in the generated workload")
		seed         = fs.Uint64("seed", 1, "random seed for generation and search")
		meanUL       = fs.Float64("ul", 2.0, "mean uncertainty level of the generated workload")
		cc           = fs.Float64("cc", 20, "average computation cost")
		ccr          = fs.Float64("ccr", 0.1, "communication-to-computation ratio")
		shape        = fs.Float64("shape", 1.0, "graph shape parameter α")
		scenName     = fs.String("scenario", "", "named scenario `family[-model]` (montage-lognormal, cybershake-pareto, random-correlated, ...; see internal/scenario): selects the workload family and the Monte-Carlo duration model (empty = the paper's path)")
		scheduler    = fs.String("scheduler", "ga", "scheduler: heft, heft-noins, risk-heft, cpop, peft, minmin, maxmin, random, ga, weighted, anneal")
		risk         = fs.Float64("risk", 1.0, "risk factor k of risk-heft (durations E[c]+k·σ)")
		weight       = fs.Float64("weight", 0.5, "makespan weight of the weighted-sum scheduler")
		deadline     = fs.Float64("deadline", 0, "also report the miss rate against this deadline (0 disables)")
		mode         = fs.String("mode", "eps", "GA objective: eps, minmakespan, maxslack")
		eps          = fs.Float64("eps", 1.2, "ε of the constraint M0 ≤ ε·M_HEFT")
		pop          = fs.Int("pop", 20, "GA population size")
		gens         = fs.Int("generations", 1000, "GA generation cap")
		stagnation   = fs.Int("stagnation", 100, "GA stagnation window (0 disables)")
		realizations = fs.Int("realizations", 1000, "Monte-Carlo realizations")
		outPath      = fs.String("out", "", "write the resulting schedule as JSON to this file")
		gantt        = fs.Bool("gantt", false, "print a text Gantt chart")
		quiet        = fs.Bool("q", false, "print only the summary line")
		paretoFront  = fs.Bool("pareto", false, "print the NSGA-II makespan–slack front instead of a single schedule")
		repairTheta  = fs.Float64("repair", 0, "also evaluate runtime repair of the schedule at this threshold (0 disables)")
		faults       = fs.String("faults", "", "evaluate under processor faults: 'auto' samples failures/outages from -mtbf, anything else is a scenario JSON file (empty disables)")
		mtbf         = fs.Float64("mtbf", 2.0, "mean time between permanent failures per processor, in multiples of the HEFT makespan (with -faults auto)")
		retries      = fs.Int("retries", 2, "max retries per killed task under -faults (with EFT migration)")
		drop         = fs.Float64("drop", 0, "graceful degradation: drop non-critical tasks starting past this multiple of M0 (0 disables)")
		clarkEst     = fs.Bool("clark", false, "also print Clark's analytic makespan estimate")
		svgPath      = fs.String("svg", "", "write an SVG Gantt chart (with slack windows) to this file")
		workers      = fs.Int("workers", 0, "worker goroutines for Monte-Carlo batches (0 = all cores)")
		shards       = fs.Int("shards", 0, "scatter work over this many `robsched worker` subprocesses (0 = in-process); shards Monte-Carlo realizations, and the GA islands when -islands > 1")
		remote       = fs.String("remote", "", "comma-separated TCP worker `addresses` (host:port,... — each started with `robsched worker -listen`): scatter over the network instead of local subprocesses; with -worker-timeout a dead connection is redialed into the rotation")
		pipeline     = fs.Int("pipeline", 0, "realization ranges in flight per worker connection (credit window); 0 derives the depth from the transport round-trip time, 1 restores strict request/response")
		workerTO     = fs.Duration("worker-timeout", 0, "with -shards: liveness deadline per worker exchange — a worker silent this long (no frame, no heartbeat) is declared dead and its work reassigned; also arms worker respawn (0 disables)")
		chaosSeed    = fs.Uint64("chaos", 0, "with -shards: inject seeded transport faults (stalls, drops, corruption, duplicate frames) between coordinator and workers as a self-test; results stay bit-identical (0 disables; requires -worker-timeout)")
		islands      = fs.Int("islands", 1, "GA island populations with ring migration (1 = the paper's single population)")
		obsPath      = fs.String("obs", "", "enable observability: write a JSONL trace to this file and print a telemetry summary")
		pprofAddr    = fs.String("pprof", "", "serve net/http/pprof, expvar and /debug/obs on this address (e.g. localhost:6060)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		reg       *obs.Registry
		tracer    *obs.Tracer
		traceFile *os.File
	)
	if *obsPath != "" {
		f, err := os.Create(*obsPath)
		if err != nil {
			return err
		}
		traceFile = f
		reg = obs.NewRegistry()
		tracer = obs.NewTracer(f, 256)
	}
	if *pprofAddr != "" {
		if reg == nil {
			reg = obs.NewRegistry()
		}
		addr, stop, err := obs.Serve(*pprofAddr, reg)
		if err != nil {
			return err
		}
		defer stop()
		obs.PublishExpvar(reg)
		fmt.Fprintf(stderr, "pprof serving on http://%s/debug/pprof/\n", addr)
	}

	// -scenario swaps both ends of the pipeline: the workload family the
	// generator builds and the duration model the Monte-Carlo evaluation
	// samples from. Empty leaves the paper's path bit-identical.
	var scen *scenario.Scenario
	if *scenName != "" {
		if *workloadPath != "" {
			return fmt.Errorf("-scenario generates the workload and conflicts with -workload")
		}
		sc, err := scenario.Lookup(*scenName)
		if err != nil {
			return err
		}
		scen = &sc
	}
	w, err := loadOrGenerate(*workloadPath, *n, *m, *seed, *meanUL, *cc, *ccr, *shape, scen)
	if err != nil {
		return err
	}

	// -shards spawns a pool of `robsched worker` subprocesses — or, with
	// -remote, dials a pool of TCP workers — and routes the Monte-Carlo
	// evaluation (and, with -islands, the GA) through the dist coordinator.
	// Results are bit-identical to the in-process path for every shard and
	// worker count.
	var coord *dist.Coordinator
	if *shards > 0 && *remote != "" {
		return fmt.Errorf("-shards and -remote are mutually exclusive: local subprocesses or remote TCP workers, not both")
	}
	if *shards > 0 || *remote != "" {
		var (
			spawn    func() (dist.Endpoint, error)
			nworkers int
		)
		if *remote != "" {
			var addrs []string
			for _, a := range strings.Split(*remote, ",") {
				if a = strings.TrimSpace(a); a != "" {
					addrs = append(addrs, a)
				}
			}
			if len(addrs) == 0 {
				return fmt.Errorf("-remote lists no worker addresses")
			}
			spawn = dist.TCPSpawner(addrs, 0)
			nworkers = len(addrs)
		} else {
			exe, err := os.Executable()
			if err != nil {
				return fmt.Errorf("locating worker binary: %w", err)
			}
			spawn = dist.ProcEndpoint(exe, "worker")
			nworkers = *shards
		}
		if *chaosSeed != 0 {
			if *workerTO <= 0 {
				return fmt.Errorf("-chaos requires -worker-timeout: a stalled link is only unmasked by a deadline")
			}
			spawn = dist.ChaosSpawner(dist.DefaultChaos(*chaosSeed), spawn)
		}
		pool, err := dist.NewSpawnPool(nworkers, spawn)
		if err != nil {
			return err
		}
		defer pool.Close()
		pool.Obs = reg
		if *workerTO > 0 {
			// With liveness armed, dead workers are worth replacing: budget a
			// couple of respawns (subprocess re-execs, or redials back into
			// the -remote rotation) per worker before degrading in-process.
			pool.Respawn(spawn, 2*nworkers)
		}
		coord = &dist.Coordinator{
			Pool: pool, Obs: reg, Trace: tracer,
			Timeout: *workerTO, PipelineDepth: *pipeline,
		}
	}
	evalAll := func(ss []*schedule.Schedule, opt sim.Options, root *rng.Source) ([]sim.Metrics, error) {
		if coord != nil {
			return coord.EvaluateAll(ss, opt, root)
		}
		return sim.EvaluateAll(ss, opt, root)
	}

	r := rng.New(*seed ^ 0xfeed)
	baseline, err := heft.HEFT(w, heft.Options{})
	if err != nil {
		return err
	}
	if *paretoFront {
		popt := robust.PaperParetoOptions()
		popt.MaxGenerations = *gens
		if popt.MaxGenerations > 300 {
			popt.MaxGenerations = 300
		}
		front, err := robust.SolvePareto(w, popt, r)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "NSGA-II front: %d non-dominated schedules (HEFT: M0 %.4g, slack %.4g)\n",
			len(front), baseline.Makespan(), baseline.AvgSlack())
		fmt.Fprintf(stdout, "%-6s %12s %12s\n", "#", "makespan", "avg slack")
		for i, p := range front {
			fmt.Fprintf(stdout, "%-6d %12.4g %12.4g\n", i, p.Makespan, p.Slack)
		}
		return nil
	}
	var s *schedule.Schedule
	switch *scheduler {
	case "heft":
		s = baseline
	case "heft-noins":
		s, err = heft.HEFT(w, heft.Options{NoInsertion: true})
	case "risk-heft":
		s, err = stoch.HEFT(w, *risk)
	case "weighted":
		var res *robust.Result
		res, err = robust.SolveWeightedSum(w, *weight, robust.Options{
			PopSize: *pop, CrossoverRate: 0.9, MutationRate: 0.1,
			MaxGenerations: *gens, Stagnation: *stagnation,
		}, r)
		if err == nil {
			s = res.Schedule
		}
	case "cpop":
		s, err = heft.CPOP(w, heft.Options{})
	case "peft":
		s, err = heft.PEFT(w, heft.Options{})
	case "minmin":
		s, err = heft.Batch(w, heft.MinMin)
	case "maxmin":
		s, err = heft.Batch(w, heft.MaxMin)
	case "anneal":
		var res *robust.Result
		res, err = robust.SolveAnneal(w, robust.AnnealOptions{Eps: *eps, Steps: *pop * *gens}, r)
		if err == nil {
			s = res.Schedule
		}
	case "random":
		s, err = heft.RandomSchedule(w, r)
	case "ga":
		opt := robust.Options{
			Eps:            *eps,
			PopSize:        *pop,
			CrossoverRate:  0.9,
			MutationRate:   0.1,
			MaxGenerations: *gens,
			Stagnation:     *stagnation,
			Islands:        *islands,
			Obs:            reg,
			Trace:          tracer,
		}
		switch *mode {
		case "eps":
			opt.Mode = robust.EpsilonConstraint
		case "minmakespan":
			opt.Mode = robust.MinMakespan
		case "maxslack":
			opt.Mode = robust.MaxSlack
		default:
			return fmt.Errorf("unknown -mode %q", *mode)
		}
		var res *robust.Result
		if coord != nil && *islands > 1 {
			res, err = coord.Solve(w, opt, r)
		} else {
			res, err = robust.Solve(w, opt, r)
		}
		if err == nil {
			s = res.Schedule
			if !*quiet {
				fmt.Fprintf(stdout, "GA: %d generations (stagnated=%v)\n", res.Generations, res.Stagnated)
			}
		}
	default:
		return fmt.Errorf("unknown -scheduler %q", *scheduler)
	}
	if err != nil {
		return err
	}

	simOpt := sim.Options{Realizations: *realizations, Deadline: *deadline, Workers: *workers, Obs: reg, Trace: tracer}
	if scen != nil {
		simOpt = scen.Apply(simOpt)
	}
	ms, err := evalAll([]*schedule.Schedule{s, baseline}, simOpt, rng.New(*seed^0xbeef))
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(stdout, "workload: %d tasks, %d processors, %d edges, CCR %.3g\n",
			w.N(), w.M(), w.G.EdgeCount(), w.CCR())
		if scen != nil {
			fmt.Fprintf(stdout, "scenario: %s (family %s, durations %s)\n",
				scen.Name, scen.Family, scen.Model)
		}
		fmt.Fprintf(stdout, "\n%-22s %12s %12s\n", "", *scheduler, "heft")
		row := func(name string, a, b float64) {
			fmt.Fprintf(stdout, "%-22s %12.4g %12.4g\n", name, a, b)
		}
		row("expected makespan M0", s.Makespan(), baseline.Makespan())
		row("avg slack", s.AvgSlack(), baseline.AvgSlack())
		row("realized mean", ms[0].MeanMakespan, ms[1].MeanMakespan)
		row("realized std", ms[0].StdMakespan, ms[1].StdMakespan)
		row("mean tardiness E[δ]", ms[0].MeanTardiness, ms[1].MeanTardiness)
		row("miss rate α", ms[0].MissRate, ms[1].MissRate)
		row("robustness R1", ms[0].R1, ms[1].R1)
		row("robustness R2", ms[0].R2, ms[1].R2)
		row("realized p95", ms[0].P95, ms[1].P95)
		row("realized p99", ms[0].P99, ms[1].P99)
		if *deadline > 0 {
			row(fmt.Sprintf("P(M > %.4g)", *deadline), ms[0].DeadlineMissRate, ms[1].DeadlineMissRate)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%s: M0=%.4g slack=%.4g R1=%.4g R2=%.4g (HEFT M0=%.4g)\n",
		*scheduler, s.Makespan(), s.AvgSlack(), ms[0].R1, ms[0].R2, baseline.Makespan())

	if *clarkEst {
		a := clark.Analyze(s)
		fmt.Fprintf(stdout, "clark: E[M]=%.4g std=%.4g p95=%.4g (analytic; biased high on the mean)\n",
			a.Makespan.Mean, a.Makespan.Std(), a.Quantile(0.95))
	}
	if *repairTheta > 0 {
		rm, err := repair.Evaluate(s, repair.Policy{Threshold: *repairTheta},
			sim.Options{Realizations: *realizations, Workers: *workers}, rng.New(*seed^0xcafe))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "repair θ=%.3g: realized mean %.4g (vs %.4g rigid), p95 %.4g, %.2f reschedules/run\n",
			*repairTheta, rm.MeanMakespan, ms[0].MeanMakespan, rm.P95, rm.MeanReschedules)
	}

	if *faults != "" {
		var src fault.Sampler
		switch *faults {
		case "auto":
			mo := fault.Model{
				MTBF:        *mtbf * baseline.Makespan(),
				OutageEvery: 2 * baseline.Makespan(),
				OutageMean:  0.05 * baseline.Makespan(),
				KeepOne:     true,
			}
			if err := mo.Validate(); err != nil {
				return err
			}
			src = mo
		default:
			f, err := os.Open(*faults)
			if err != nil {
				return err
			}
			sc, err := wio.ReadScenario(f)
			f.Close()
			if err != nil {
				return err
			}
			src = fault.Fixed{S: sc}
		}
		pol := repair.FaultPolicy{
			Policy:     repair.NeverReschedule(),
			Retry:      repair.RetryPolicy{MaxRetries: *retries, Migrate: true},
			DropFactor: *drop,
			Obs:        reg,
			Trace:      tracer,
		}
		if *repairTheta > 0 {
			pol.Threshold = *repairTheta
		}
		// Both schedules face the same fault and duration streams (common
		// random numbers) over a shared horizon.
		horizon := 4 * baseline.Makespan()
		opt := sim.Options{Realizations: *realizations, Deadline: *deadline, Workers: *workers}
		fm, err := repair.EvaluateFaults(s, pol, src, horizon, opt, rng.New(*seed^0xdead))
		if err != nil {
			return err
		}
		fb, err := repair.EvaluateFaults(baseline, pol, src, horizon, opt, rng.New(*seed^0xdead))
		if err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(stdout, "\nfaults (%s, retries=%d, drop=%.3g):\n", *faults, *retries, *drop)
			fmt.Fprintf(stdout, "%-22s %12s %12s\n", "", *scheduler, "heft")
			row := func(name string, a, b float64) {
				fmt.Fprintf(stdout, "%-22s %12.4g %12.4g\n", name, a, b)
			}
			row("fault realized mean", fm.MeanMakespan, fb.MeanMakespan)
			row("fault realized p95", fm.P95, fb.P95)
			row("fault robustness R1", fm.R1, fb.R1)
			row("completion %", 100*fm.MeanCompletion, 100*fb.MeanCompletion)
			row("retries/run", fm.MeanRetries, fb.MeanRetries)
			row("migrations/run", fm.MeanMigrations, fb.MeanMigrations)
			row("drops/run", fm.MeanDropped, fb.MeanDropped)
			row("failed runs %", 100*fm.FailRate, 100*fb.FailRate)
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "faults: mean=%.4g completion=%.1f%% retries=%.2f drops=%.2f (HEFT mean=%.4g)\n",
			fm.MeanMakespan, 100*fm.MeanCompletion, fm.MeanRetries, fm.MeanDropped, fb.MeanMakespan)
	}

	if *gantt {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, s.Gantt(96))
	}
	if *svgPath != "" {
		title := fmt.Sprintf("%s on %d tasks / %d processors", *scheduler, w.N(), w.M())
		svg := viz.GanttSVG(s, viz.GanttOptions{Title: title, ShowSlack: true})
		if err := os.WriteFile(*svgPath, []byte(svg), 0o644); err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(stdout, "SVG Gantt written to %s\n", *svgPath)
		}
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := wio.WriteSchedule(f, s); err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(stdout, "schedule written to %s\n", *outPath)
		}
	}
	if *obsPath != "" {
		// The summary block prints only registry contents — deterministic
		// counts, never wall-clock — so it is stable across runs and pinned
		// by the golden test. Timings live in the JSONL trace.
		tracer.SnapshotRegistry("final", reg)
		if err := tracer.Err(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := traceFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n--- observability ---\n")
		if err := reg.Snapshot().WriteSummary(stdout); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "trace written to %s\n", *obsPath)
	}
	return nil
}

func loadOrGenerate(path string, n, m int, seed uint64, ul, cc, ccr, shape float64, scen *scenario.Scenario) (*platform.Workload, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return wio.ReadWorkload(f)
	}
	p := gen.PaperParams()
	p.N, p.M = n, m
	p.MeanUL, p.CC, p.CCR, p.Shape = ul, cc, ccr, shape
	if scen != nil {
		return scen.Workload(p, rng.New(seed))
	}
	return gen.Random(p, rng.New(seed))
}
