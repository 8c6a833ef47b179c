// Command dagen generates workload instances: random layered DAGs with the
// paper's parameters, structured graphs (Gaussian elimination, FFT,
// fork-join, stencil), or scientific-workflow shapes (Montage, Epigenomics,
// CyberShake), written as JSON workloads and optionally as Graphviz DOT.
//
// Examples:
//
//	dagen -n 100 -m 8 -ul 4 -out w.json
//	dagen -kind gauss -k 6 -m 4 -out gauss.json -dot gauss.dot
//	dagen -kind fft -stages 4 -m 8 -out fft.json
//	dagen -shape montage -width 8 -m 4 -out montage.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"robsched/internal/dag"
	"robsched/internal/gen"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/wio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dagen:", err)
		os.Exit(1)
	}
}

// run parses flags from args into a private FlagSet and writes the workload
// to stdout (or -out), keeping the command testable end to end.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind   = fs.String("kind", "random", "graph kind: random, gauss, fft, forkjoin, stencil, outtree, intree, seriesparallel, paper-example")
		n      = fs.Int("n", 100, "tasks (random kind)")
		m      = fs.Int("m", 8, "processors")
		k      = fs.Int("k", 6, "matrix size (gauss kind)")
		stages = fs.Int("stages", 3, "stages (fft / forkjoin kinds)")
		width  = fs.Int("width", 4, "width (forkjoin / stencil kinds)")
		depth  = fs.Int("depth", 4, "depth (stencil kind)")
		seed   = fs.Uint64("seed", 1, "random seed")
		meanUL = fs.Float64("ul", 2.0, "mean uncertainty level")
		cc     = fs.Float64("cc", 20, "average computation cost")
		ccr    = fs.Float64("ccr", 0.1, "communication-to-computation ratio")
		shape  = fs.String("shape", "1.0", "graph shape α (random kind), or a workflow family: montage, epigenomics, cybershake (uses -width)")
		vtask  = fs.Float64("vtask", 0.5, "task heterogeneity COV")
		vmach  = fs.Float64("vmach", 0.5, "machine heterogeneity COV")
		outP   = fs.String("out", "", "output workload JSON path (stdout when empty)")
		dotP   = fs.String("dot", "", "also write the graph as Graphviz DOT to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	r := rng.New(*seed)
	p := gen.PaperParams()
	p.N, p.M = *n, *m
	p.MeanUL, p.CC, p.CCR = *meanUL, *cc, *ccr
	p.VTask, p.VMach = *vtask, *vmach

	var (
		w        *platform.Workload
		g        *dag.Graph
		err      error
		kindName = *kind
	)
	if alpha, ferr := strconv.ParseFloat(*shape, 64); ferr == nil {
		p.Shape = alpha // numeric -shape is the random kind's α, as before
	} else if *kind != "random" {
		return fmt.Errorf("-shape %q names a workflow family and conflicts with -kind %q", *shape, *kind)
	} else {
		// A non-numeric -shape selects a scientific-workflow family, which
		// builds the whole workload (graph, edge data and cost matrices
		// follow the family's per-stage profiles) at parallel width -width.
		w, err = gen.WorkflowByName(*shape, *width, p, r)
		if err != nil {
			return err
		}
		g = w.G
		kindName = *shape
	}
	if w == nil {
		commData := *cc * *ccr // uniform edge data for structured graphs
		switch *kind {
		case "random":
			g, err = gen.RandomGraph(p, r)
		case "gauss":
			g, err = gen.GaussianElimination(*k, commData)
		case "fft":
			g, err = gen.FFT(*stages, commData)
		case "forkjoin":
			g, err = gen.ForkJoin(*width, *stages, commData)
		case "stencil":
			g, err = gen.Stencil(*width, *depth, commData)
		case "outtree":
			g, err = gen.OutTree(*n, *width, commData, r)
		case "intree":
			g, err = gen.InTree(*n, *width, commData, r)
		case "seriesparallel":
			g, err = gen.SeriesParallel(*n, commData, r)
		case "paper-example":
			g = gen.PaperExampleGraph(commData)
		default:
			return fmt.Errorf("unknown -kind %q", *kind)
		}
		if err != nil {
			return err
		}

		bcet := gen.ExecMatrix(g.N(), *m, *cc, *vtask, *vmach, r)
		ul := gen.ULMatrix(g.N(), *m, *meanUL, p.V1, p.V2, r)
		w, err = platform.NewWorkload(g, platform.UniformSystem(*m, p.Rate), bcet, ul)
		if err != nil {
			return err
		}
	}

	out := stdout
	if *outP != "" {
		f, err := os.Create(*outP)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := wio.WriteWorkload(out, w); err != nil {
		return err
	}
	if *outP != "" {
		fmt.Fprintf(stderr, "dagen: %s workload with %d tasks, %d edges, %d processors -> %s\n",
			kindName, g.N(), g.EdgeCount(), *m, *outP)
	}
	if *dotP != "" {
		if err := os.WriteFile(*dotP, []byte(g.Dot(kindName)), 0o644); err != nil {
			return err
		}
	}
	return nil
}
