// Scientific-workflow shape generators: Montage-like fan-in reduction,
// Epigenomics-like parallel pipeline sweep, CyberShake-like scatter —
// the workflow classes of the Pegasus workflow gallery that dominate real
// scheduling studies, as opposed to the paper's layered-random graphs.
//
// Each family is built from named stages. A stage carries its own CCR
// multiplier (communication is wildly non-uniform across real workflow
// stages: Montage's mosaic assembly moves orders of magnitude more data than
// its background fitting) and its own computation-cost multiplier (an
// Epigenomics map step dwarfs the format conversions around it). Edge data
// into a stage is sampled U(0.5, 1.5)·CC·stageCCR·Rate, so every edge's
// communication cost lies within [0.5, 1.5]× the stage mean — a bound the
// tests pin. Task computation means are CC·stageComp, fed through the same
// Ali et al. COV heterogeneity model as the random generator.

package gen

import (
	"fmt"

	"robsched/internal/dag"
	"robsched/internal/platform"
	"robsched/internal/rng"
)

// stage describes one named phase of a generated workflow: its task ids,
// its effective CCR (the mean communication cost of an edge into the stage
// is CC·CCR, sampled within [0.5, 1.5]× that mean), and its computation
// multiplier (the stage's mean task computation cost is CC·Comp).
type stage struct {
	Name string
	// Tasks lists the stage's task ids (contiguous, in stage order).
	Tasks []int
	// CCR is the stage's effective communication-to-computation ratio for
	// incoming edges; 0 for entry stages, which have none.
	CCR float64
	// Comp scales the stage's mean computation cost relative to Params.CC.
	Comp float64
}

// WorkflowShapes lists the workflow generator family names accepted by
// WorkflowByName (and the CLIs' -shape/-scenario flags).
func WorkflowShapes() []string { return []string{"montage", "epigenomics", "cybershake"} }

// WorkflowByName generates a workflow of the named family. width controls
// the parallel width W of the family (Montage: 3W+4 tasks, Epigenomics:
// 3W+4, CyberShake: 2W+4).
func WorkflowByName(name string, width int, p Params, r *rng.Source) (*platform.Workload, error) {
	var family func(int, Params, *rng.Source) (*platform.Workload, []stage, error)
	switch name {
	case "montage":
		family = montage
	case "epigenomics":
		family = epigenomics
	case "cybershake":
		family = cybershake
	default:
		return nil, fmt.Errorf("gen: unknown workflow shape %q (want montage|epigenomics|cybershake)", name)
	}
	w, _, err := family(width, p, r)
	return w, err
}

// wfEdge is a structural edge plus the consumer stage whose CCR profile
// prices its data.
type wfEdge struct {
	from, to, stage int
}

// wfBuilder accumulates a workflow's structure before costs are sampled.
type wfBuilder struct {
	stages []stage
	edges  []wfEdge
	n      int
}

// stage appends a named stage of count tasks with the given CCR multiplier
// (relative to p.CCR) and computation multiplier, returning the task ids.
func (b *wfBuilder) stage(name string, count int, ccrMult, comp float64, p Params) []int {
	ids := make([]int, count)
	for i := range ids {
		ids[i] = b.n + i
	}
	b.n += count
	b.stages = append(b.stages, stage{
		Name:  name,
		Tasks: ids,
		CCR:   ccrMult * p.CCR,
		Comp:  comp,
	})
	return ids
}

// edge records from→to, priced by the consumer's (latest added) stage unless
// stageIdx names another.
func (b *wfBuilder) edge(from, to int) {
	b.edges = append(b.edges, wfEdge{from, to, len(b.stages) - 1})
}

// build materializes the structure into a workload: edge data sampled per
// consumer-stage CCR, computation means per stage Comp through the COV
// heterogeneity model, and the paper's two-level Gamma UL matrix. The draw
// order is fixed (edges in insertion order, then BCET in task order, then
// UL), so one seed reproduces one workload exactly.
func (b *wfBuilder) build(p Params, r *rng.Source) (*platform.Workload, []stage, error) {
	p.N = b.n
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	db := dag.NewBuilder(b.n)
	for _, e := range b.edges {
		st := b.stages[e.stage]
		data := 0.0
		if st.CCR > 0 {
			data = r.Uniform(0.5, 1.5) * p.CC * st.CCR * p.Rate
		}
		if err := db.AddEdge(e.from, e.to, data); err != nil {
			return nil, nil, err
		}
	}
	g, err := db.Build()
	if err != nil {
		return nil, nil, err
	}
	sys := platform.UniformSystem(p.M, p.Rate)
	bcet := platform.NewMatrix(b.n, p.M)
	for _, st := range b.stages {
		for _, t := range st.Tasks {
			q := r.GammaMeanCOV(p.CC*st.Comp, p.VTask)
			for j := 0; j < p.M; j++ {
				bcet.Set(t, j, r.GammaMeanCOV(q, p.VMach))
			}
		}
	}
	ul := ULMatrix(b.n, p.M, p.MeanUL, p.V1, p.V2, r)
	w, err := platform.NewWorkload(g, sys, bcet, ul)
	if err != nil {
		return nil, nil, err
	}
	return w, b.stages, nil
}

// montage generates a Montage-like mosaic workflow of width W (3W+4 tasks):
// W parallel reprojections, W overlap-pair difference fits feeding one
// fan-in concatenation, a background model broadcast back out to W
// background corrections, then the communication-heavy mosaic add and a
// final shrink. The fan-in/fan-out diamond around the background model and
// the high-CCR add stage are the family's signature stresses.
func montage(width int, p Params, r *rng.Source) (*platform.Workload, []stage, error) {
	if width < 2 {
		return nil, nil, fmt.Errorf("gen: montage width=%d must be >= 2", width)
	}
	var b wfBuilder
	project := b.stage("project", width, 0, 1.0, p)
	diff := b.stage("diff", width, 2.0, 0.3, p)
	for i, d := range diff {
		// Each difference fits an overlapping pair of reprojected tiles.
		b.edge(project[i], d)
		b.edge(project[(i+1)%width], d)
	}
	concat := b.stage("concat", 1, 1.0, 0.2, p)
	for _, d := range diff {
		b.edge(d, concat[0])
	}
	bgModel := b.stage("bgmodel", 1, 0.5, 1.5, p)
	b.edge(concat[0], bgModel[0])
	background := b.stage("background", width, 1.5, 0.4, p)
	for i, bg := range background {
		b.edge(bgModel[0], bg)
		b.edge(project[i], bg)
	}
	add := b.stage("add", 1, 4.0, 2.0, p)
	for _, bg := range background {
		b.edge(bg, add[0])
	}
	shrink := b.stage("shrink", 1, 2.0, 0.5, p)
	b.edge(add[0], shrink[0])
	return b.build(p, r)
}

// epigenomics generates an Epigenomics-like parallel sweep of width W
// (3W+4 tasks): one split fans out to W independent three-step pipelines
// (filter → convert → map, with the map step carrying most of the
// computation), merged and indexed into a final pileup. Long independent
// chains make it the schedule-length stress case: slack on one lane is
// useless to the others.
func epigenomics(width int, p Params, r *rng.Source) (*platform.Workload, []stage, error) {
	if width < 2 {
		return nil, nil, fmt.Errorf("gen: epigenomics width=%d must be >= 2", width)
	}
	var b wfBuilder
	split := b.stage("split", 1, 0, 0.5, p)
	filter := b.stage("filter", width, 1.0, 1.0, p)
	for _, f := range filter {
		b.edge(split[0], f)
	}
	convert := b.stage("convert", width, 0.5, 0.3, p)
	for i, c := range convert {
		b.edge(filter[i], c)
	}
	mapStage := b.stage("map", width, 0.5, 4.0, p)
	for i, m := range mapStage {
		b.edge(convert[i], m)
	}
	merge := b.stage("merge", 1, 1.0, 1.0, p)
	for _, m := range mapStage {
		b.edge(m, merge[0])
	}
	index := b.stage("index", 1, 2.0, 0.5, p)
	b.edge(merge[0], index[0])
	pileup := b.stage("pileup", 1, 1.0, 1.0, p)
	b.edge(index[0], pileup[0])
	return b.build(p, r)
}

// cybershake generates a CyberShake-like scatter workflow of width W
// (2W+4 tasks): two strain-tensor extractions scatter to W seismogram
// syntheses — each consuming both extraction outputs over the family's
// signature very-high-CCR edges — with per-synthesis peak calculations and
// two zip fan-ins. Communication dominates computation here, the opposite
// regime from Epigenomics.
func cybershake(width int, p Params, r *rng.Source) (*platform.Workload, []stage, error) {
	if width < 2 {
		return nil, nil, fmt.Errorf("gen: cybershake width=%d must be >= 2", width)
	}
	var b wfBuilder
	extract := b.stage("extract", 2, 0, 2.0, p)
	synthesis := b.stage("synthesis", width, 8.0, 1.0, p)
	for _, s := range synthesis {
		b.edge(extract[0], s)
		b.edge(extract[1], s)
	}
	peak := b.stage("peak", width, 0.2, 0.3, p)
	for i, pk := range peak {
		b.edge(synthesis[i], pk)
	}
	zip := b.stage("zip", 2, 3.0, 0.2, p)
	for _, s := range synthesis {
		b.edge(s, zip[0])
	}
	for _, pk := range peak {
		b.edge(pk, zip[1])
	}
	return b.build(p, r)
}
