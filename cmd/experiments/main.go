// Command experiments regenerates the figures of the paper's evaluation
// (Section 5) as text tables and optional CSV files.
//
//	Fig. 2  GA minimizing the makespan: evolution of makespan/slack/R1
//	Fig. 3  GA maximizing the slack: the same trajectories
//	Fig. 4  improvement over HEFT at ε = 1.0 versus uncertainty level
//	Fig. 5  R1 improvement over ε = 1.0 across the ε grid
//	Fig. 6  R2 improvement over ε = 1.0 across the ε grid
//	Fig. 7  best ε for overall performance (R1) versus the weight r
//	Fig. 8  best ε for overall performance (R2) versus the weight r
//
// Examples:
//
//	experiments -fig all                 # quick scale, every figure
//	experiments -fig 4 -graphs 30        # more repetitions for Fig. 4
//	experiments -fig all -scale paper    # the published scale (hours!)
//	experiments -fig 5 -csv out/         # also write out/fig5.csv
//	experiments -fig 4 -shards 4         # Monte-Carlo over 4 worker processes
//	experiments -fig 4 -scenario montage-lognormal   # workflow shape + heavy tails
//	experiments -corrgap -scenario epigenomics       # correlated-load robustness gap
//
// `experiments worker` runs the scatter/gather worker loop on stdin/stdout
// (-shards spawns these subprocesses automatically) or, with -listen, on a
// TCP address that a coordinator reaches via -remote.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"robsched/internal/dist"
	"robsched/internal/experiments"
	"robsched/internal/obs"
	"robsched/internal/robust"
	"robsched/internal/scenario"
	"robsched/internal/viz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command line args, writing tables to stdout and
// progress and errors to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if err := execute(args, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	return 0
}

func execute(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && args[0] == "worker" {
		wfs := flag.NewFlagSet("experiments worker", flag.ContinueOnError)
		wfs.SetOutput(stderr)
		listen := wfs.String("listen", "", "serve the worker protocol on this TCP `address` (host:port) instead of stdin/stdout")
		if err := wfs.Parse(args[1:]); err != nil {
			return err
		}
		return dist.RunWorker(*listen)
	}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig          = fs.String("fig", "all", "figure to regenerate: 1..8 or all (empty with -ablation set)")
		ablation     = fs.String("ablation", "", "ablation to run instead/in addition: seed, slackmetric, risk, policies, or all")
		sensitivity  = fs.String("sensitivity", "", "sensitivity sweep to run: ccr, shape, procs")
		faultExp     = fs.Bool("faults", false, "run the slack-vs-fault-resilience experiment")
		corrGap      = fs.Bool("corrgap", false, "run the correlated-load robustness-gap experiment: the same schedules under independent vs shared per-processor load at equal marginal variance")
		scenName     = fs.String("scenario", "", "named scenario `family[-model]` (montage-lognormal, cybershake-pareto, random-correlated, ...; see internal/scenario): workload family and duration model for every runner (empty = the paper's path)")
		mtbf         = fs.Float64("mtbf", 2.0, "fault experiment: MTBF per processor in multiples of the HEFT makespan")
		retries      = fs.Int("retries", 2, "fault experiment: max retries per killed task")
		drop         = fs.Float64("drop", 4.0, "fault experiment: drop non-critical tasks starting past this multiple of M0 (0 disables)")
		scale        = fs.String("scale", "quick", "experiment scale: quick or paper")
		seed         = fs.Uint64("seed", 1, "root random seed")
		graphs       = fs.Int("graphs", 0, "override: graphs per data point")
		realizations = fs.Int("realizations", 0, "override: Monte-Carlo realizations")
		gens         = fs.Int("generations", 0, "override: GA generations")
		nTasks       = fs.Int("n", 0, "override: tasks per graph")
		mProcs       = fs.Int("m", 0, "override: processors")
		workers      = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		shards       = fs.Int("shards", 0, "shard Monte-Carlo evaluation over this many worker processes (0 = in-process); results are bit-identical")
		remote       = fs.String("remote", "", "comma-separated TCP worker `addresses` (each started with `experiments worker -listen`): scatter over the network instead of local subprocesses")
		pipeline     = fs.Int("pipeline", 0, "realization ranges in flight per worker connection; 0 derives the depth from the transport RTT, 1 restores strict request/response")
		workerTO     = fs.Duration("worker-timeout", 0, "with -shards: liveness deadline per worker exchange — a silent worker is declared dead and its range reassigned; also arms worker respawn (0 disables)")
		chaosSeed    = fs.Uint64("chaos", 0, "with -shards: inject seeded transport faults between coordinator and workers as a self-test; results stay bit-identical (0 disables; requires -worker-timeout)")
		csvDir       = fs.String("csv", "", "also write figN.csv files into this directory (plus a manifest.json run record)")
		svgDir       = fs.String("svg", "", "also write figN.svg line charts into this directory")
		obsPath      = fs.String("obs", "", "enable observability: write a JSONL trace to this file and print a telemetry summary")
		pprofAddr    = fs.String("pprof", "", "serve net/http/pprof, expvar and /debug/obs on this address (e.g. localhost:6060)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	want := map[string]bool{}
	switch {
	case *fig == "all" && (*ablation != "" || *sensitivity != "" || *faultExp || *corrGap):
		// -ablation alone runs only the ablations unless figures are also
		// requested explicitly.
	case *fig == "all":
		for _, f := range []string{"1", "2", "3", "4", "5", "6", "7", "8"} {
			want[f] = true
		}
	default:
		for _, f := range strings.Split(*fig, ",") {
			switch f = strings.TrimSpace(f); f {
			case "":
			case "1", "2", "3", "4", "5", "6", "7", "8":
				want[f] = true
			default:
				return fmt.Errorf("unknown -fig %q: want 1..8, a comma-separated list of them, or all", f)
			}
		}
	}
	wantAbl := map[string]bool{}
	if *ablation != "" {
		if *ablation == "all" {
			for _, a := range []string{"seed", "slackmetric", "risk", "policies", "gaparams"} {
				wantAbl[a] = true
			}
		} else {
			for _, a := range strings.Split(*ablation, ",") {
				wantAbl[strings.TrimSpace(a)] = true
			}
		}
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
		fmt.Fprintf(stderr, "experiments: pprof serving on http://%s/debug/pprof/\n", addr)
	}

	var cfg experiments.Config
	switch *scale {
	case "quick":
		cfg = experiments.Default()
	case "paper":
		cfg = experiments.PaperScale()
	default:
		return fmt.Errorf("unknown -scale %q", *scale)
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Obs = reg
	cfg.Trace = tracer
	if *graphs > 0 {
		cfg.Graphs = *graphs
	}
	if *realizations > 0 {
		cfg.Realizations = *realizations
	}
	if *gens > 0 {
		cfg.GA.MaxGenerations = *gens
	}
	if *nTasks > 0 {
		cfg.Gen.N = *nTasks
	}
	if *mProcs > 0 {
		cfg.Gen.M = *mProcs
	}
	if *scenName != "" {
		sc, err := scenario.Lookup(*scenName)
		if err != nil {
			return err
		}
		cfg.Scenario = &sc
	}
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
				return fmt.Errorf("locating executable for workers: %w", err)
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
			pool.Respawn(spawn, 2*nworkers)
		}
		coord := &dist.Coordinator{
			Pool: pool, Obs: reg, Trace: tracer,
			Timeout: *workerTO, PipelineDepth: *pipeline,
		}
		cfg.Sim = coord.EvaluateAll
	}

	emit := func(figName, title, xlabel string, series []experiments.Series) error {
		fmt.Fprint(stdout, experiments.FormatSeries(title, xlabel, series))
		fmt.Fprintln(stdout)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			f, err := os.Create(filepath.Join(*csvDir, "fig"+figName+".csv"))
			if err != nil {
				return err
			}
			if err := experiments.WriteCSV(f, xlabel, series); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		if *svgDir != "" {
			if err := os.MkdirAll(*svgDir, 0o755); err != nil {
				return err
			}
			vs := make([]viz.Series, len(series))
			for i, s := range series {
				vs[i] = viz.Series{Name: s.Name, X: s.X, Y: s.Y}
			}
			svg := viz.LineChartSVG(vs, viz.ChartOptions{Title: title, XLabel: xlabel})
			if err := os.WriteFile(filepath.Join(*svgDir, "fig"+figName+".svg"), []byte(svg), 0o644); err != nil {
				return err
			}
		}
		return nil
	}

	start := time.Now()
	if want["1"] {
		out, err := experiments.Fig1(*seed)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, out)
		fmt.Fprintln(stdout)
	}
	if want["2"] || want["3"] {
		modes := []struct {
			fig   string
			mode  robust.Mode
			title string
		}{
			{"2", robust.MinMakespan, "Fig. 2 — GA minimizing the makespan: ln ratio vs generation 0"},
			{"3", robust.MaxSlack, "Fig. 3 — GA maximizing the slack: ln ratio vs generation 0"},
		}
		for _, m := range modes {
			if !want[m.fig] {
				continue
			}
			tr, err := cfg.EvolutionTrace(m.mode)
			if err != nil {
				return err
			}
			if err := emit(m.fig, m.title, "step", tr.Series()); err != nil {
				return err
			}
		}
	}
	if want["4"] || want["5"] || want["6"] || want["7"] || want["8"] {
		fmt.Fprintf(stderr, "experiments: running UL×ε sweep (%d ULs × %d ε × %d graphs)...\n",
			len(cfg.ULs), len(cfg.Eps), cfg.Graphs)
		sw, err := cfg.RunSweep()
		if err != nil {
			return err
		}
		if want["4"] {
			s, err := sw.Fig4()
			if err != nil {
				return err
			}
			if err := emit("4", "Fig. 4 — improvement over HEFT at ε = 1.0 (ln ratio)", "UL", s); err != nil {
				return err
			}
		}
		if want["5"] {
			s, err := sw.FigEpsImprovement(experiments.R1)
			if err != nil {
				return err
			}
			if err := emit("5", "Fig. 5 — R1 improvement over ε = 1.0 (relative)", "eps", s); err != nil {
				return err
			}
		}
		if want["6"] {
			s, err := sw.FigEpsImprovement(experiments.R2)
			if err != nil {
				return err
			}
			if err := emit("6", "Fig. 6 — R2 improvement over ε = 1.0 (relative)", "eps", s); err != nil {
				return err
			}
		}
		if want["7"] {
			s, err := sw.FigBestEps(experiments.R1)
			if err != nil {
				return err
			}
			if err := emit("7", "Fig. 7 — best ε for overall performance (R1)", "r", s); err != nil {
				return err
			}
		}
		if want["8"] {
			s, err := sw.FigBestEps(experiments.R2)
			if err != nil {
				return err
			}
			if err := emit("8", "Fig. 8 — best ε for overall performance (R2)", "r", s); err != nil {
				return err
			}
		}
	}
	if len(wantAbl) > 0 {
		type abl struct {
			key, title, xlabel string
			run                func() ([]experiments.Series, error)
		}
		abls := []abl{
			{"seed", "Ablation — HEFT seed in the initial population", "UL", cfg.AblationSeed},
			{"slackmetric", "Ablation — average vs minimum slack surrogate", "UL", cfg.AblationSlackMetric},
			{"risk", "Ablation — risk-adjusted HEFT (E[c]+k·σ): relative change vs plain HEFT", "k",
				func() ([]experiments.Series, error) { return cfg.AblationRiskFactor(nil) }},
			{"policies", "Comparison — static / repair / dynamic / robust-GA realized mean (÷ static HEFT)", "UL",
				func() ([]experiments.Series, error) { return cfg.PolicyComparison(1.4, 0.05) }},
			{"gaparams", "Ablation — GA crossover/mutation rate grid (final slack ÷ pc=0.9,pm=0.1)", "pm",
				func() ([]experiments.Series, error) { return cfg.AblationGAParams(nil, nil) }},
		}
		for _, a := range abls {
			if !wantAbl[a.key] {
				continue
			}
			s, err := a.run()
			if err != nil {
				return err
			}
			if err := emit("abl_"+a.key, a.title, a.xlabel, s); err != nil {
				return err
			}
		}
	}
	if *sensitivity != "" {
		var (
			param experiments.SensitivityParam
			grid  []float64
		)
		switch *sensitivity {
		case "ccr":
			param, grid = experiments.SweepCCR, []float64{0.1, 0.25, 0.5, 1, 2}
		case "shape":
			param, grid = experiments.SweepShape, []float64{0.5, 1, 2, 4}
		case "procs":
			param, grid = experiments.SweepProcs, []float64{2, 4, 8, 16}
		default:
			return fmt.Errorf("unknown -sensitivity %q", *sensitivity)
		}
		s, err := cfg.Sensitivity(param, grid, 1.4)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Sensitivity — GA (ε=1.4) vs HEFT as %s varies (UL=%g)", param, cfg.ULs[0])
		if err := emit("sens_"+*sensitivity, title, param.String(), s); err != nil {
			return err
		}
	}
	if *faultExp {
		fc := experiments.DefaultFaultConfig()
		fc.MTBFFactor = *mtbf
		fc.Policy.Retry.MaxRetries = *retries
		fc.Policy.DropFactor = *drop
		fmt.Fprintf(stderr, "experiments: running fault-resilience experiment (%d graphs, mtbf %g·M0)...\n",
			cfg.Graphs, *mtbf)
		res, err := cfg.FaultResilience(fc)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.String())
		fmt.Fprintln(stdout)
	}
	if *corrGap {
		fmt.Fprintf(stderr, "experiments: running correlated-load gap experiment (%d graphs)...\n", cfg.Graphs)
		res, err := cfg.CorrelationGap(experiments.DefaultCorrGapConfig())
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.String())
		fmt.Fprintln(stdout)
		title := fmt.Sprintf("Correlated vs independent load — mean relative tardiness (family %s)", res.Family)
		if err := emit("corrgap", title, "loadCOV", res.Series()); err != nil {
			return err
		}
	}
	if *csvDir != "" {
		// Every CSV-producing run leaves its provenance next to the data:
		// effective config, seed, source revision and (when observability is
		// on) the final metric snapshot.
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		if err := experiments.WriteManifest(filepath.Join(*csvDir, "manifest.json"), cfg.Manifest(reg)); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "experiments: manifest written to %s\n", filepath.Join(*csvDir, "manifest.json"))
	}
	if *obsPath != "" {
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
		fmt.Fprintf(stderr, "experiments: trace written to %s\n", *obsPath)
	}
	fmt.Fprintf(stderr, "experiments: done in %v (seed %d, %d graphs, %d realizations, %d tasks, %d processors)\n",
		time.Since(start).Round(time.Millisecond), cfg.Seed, cfg.Graphs, cfg.Realizations, cfg.Gen.N, cfg.Gen.M)
	return nil
}
