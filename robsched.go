// Package robsched is a library for robust static scheduling of
// DAG-structured applications onto non-deterministic heterogeneous
// computing systems, reproducing
//
//	Zhiao Shi, Emmanuel Jeannot, Jack J. Dongarra.
//	"Robust task scheduling in non-deterministic heterogeneous computing
//	systems." IEEE CLUSTER 2006.
//
// A parallel application is a task graph whose edges carry communication
// data; the platform is a set of fully connected heterogeneous processors.
// Task durations are uncertain: the real duration of task i on processor j
// is U(b_ij, (2·UL_ij−1)·b_ij) around the best-case time b_ij, so the
// expected duration UL_ij·b_ij is all a static scheduler sees.
//
// The library provides:
//
//   - the schedule model of the paper — disjunctive graphs, ASAP makespan
//     semantics (Claim 3.2), per-task and average slack (Definition 3.3);
//   - deterministic baselines HEFT and CPOP;
//   - the bi-objective genetic algorithm (Section 4): maximize average
//     slack subject to M0(s) ≤ ε·M_HEFT, via the ε-constraint method;
//   - a Monte-Carlo evaluator for the robustness metrics R1 (inverse
//     expected relative tardiness) and R2 (inverse miss rate);
//   - workload generators (layered random DAGs, the COV heterogeneity
//     model of Ali et al., structured graphs) and the full experiment
//     harness regenerating every figure of the paper's evaluation.
//
// # Quick start
//
//	r := robsched.NewRNG(42)
//	w, _ := robsched.GenerateWorkload(robsched.PaperWorkloadParams(), r)
//	res, _ := robsched.Solve(w, robsched.PaperSolveOptions(robsched.EpsilonConstraint, 1.2), r)
//	m, _ := robsched.Evaluate(res.Schedule, robsched.PaperSimOptions(), r)
//	fmt.Printf("makespan %.1f (HEFT %.1f), R1 %.2f, miss rate %.2f\n",
//	    res.Schedule.Makespan(), res.MHEFT, m.R1, m.MissRate)
//
// All randomness flows through explicit *RNG sources, so every result is
// reproducible from a seed; Monte-Carlo evaluation parallelizes internally
// with per-realization streams and is deterministic regardless of the
// worker count.
package robsched

import (
	"io"

	"robsched/internal/clark"
	"robsched/internal/dag"
	"robsched/internal/dynamic"
	"robsched/internal/experiments"
	"robsched/internal/gen"
	"robsched/internal/heft"
	"robsched/internal/measures"
	"robsched/internal/pareto"
	"robsched/internal/platform"
	"robsched/internal/repair"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/schedule"
	"robsched/internal/sim"
	"robsched/internal/stats"
	"robsched/internal/stoch"
	"robsched/internal/viz"
	"robsched/internal/wio"
)

// RNG is a deterministic, splittable random source. All library entry
// points that sample take one explicitly.
type RNG = rng.Source

// NewRNG returns a source seeded with the given value; the same seed
// reproduces the same stream.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// Graph is an immutable directed acyclic task graph; edges carry the data
// volume communicated between dependent tasks.
type Graph = dag.Graph

// GraphBuilder accumulates tasks and edges and validates them into a Graph.
type GraphBuilder = dag.Builder

// GraphEdge is one directed edge of a task graph.
type GraphEdge = dag.Edge

// NewGraphBuilder returns a builder for a task graph with n tasks,
// identified 0..n-1.
func NewGraphBuilder(n int) *GraphBuilder { return dag.NewBuilder(n) }

// Matrix is a dense rows×cols matrix used for execution times, uncertainty
// levels and transfer rates.
type Matrix = platform.Matrix

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) Matrix { return platform.NewMatrix(rows, cols) }

// MatrixFromRows builds a matrix from row slices of equal length.
func MatrixFromRows(rows [][]float64) (Matrix, error) { return platform.MatrixFromRows(rows) }

// System is a fully connected set of heterogeneous processors with a data
// transfer rate matrix.
type System = platform.System

// NewSystem validates a square positive rate matrix into a System.
func NewSystem(rates Matrix) (*System, error) { return platform.NewSystem(rates) }

// UniformSystem returns m processors joined by links of one common rate.
func UniformSystem(m int, rate float64) *System { return platform.UniformSystem(m, rate) }

// Workload bundles a task graph, a platform, the best-case execution time
// matrix and the uncertainty-level matrix — one scheduling problem
// instance.
type Workload = platform.Workload

// NewWorkload validates and assembles a workload.
func NewWorkload(g *Graph, sys *System, bcet, ul Matrix) (*Workload, error) {
	return platform.NewWorkload(g, sys, bcet, ul)
}

// DeterministicWorkload builds a workload whose durations are exact
// (UL = 1 everywhere): the classical deterministic scheduling model.
func DeterministicWorkload(g *Graph, sys *System, exec Matrix) (*Workload, error) {
	return platform.DeterministicWorkload(g, sys, exec)
}

// WorkloadParams parameterizes the random workload generator of the
// paper's evaluation: graph size and shape, average computation cost,
// communication-to-computation ratio, COV heterogeneity, uncertainty
// levels and platform size.
type WorkloadParams = gen.Params

// PaperWorkloadParams returns the parameter values of Section 5 (n=100,
// α=1, cc=20, CCR=0.1, V=0.5 everywhere, 8 processors).
func PaperWorkloadParams() WorkloadParams { return gen.PaperParams() }

// GenerateWorkload samples one random workload instance.
func GenerateWorkload(p WorkloadParams, r *RNG) (*Workload, error) { return gen.Random(p, r) }

// GenerateGraph samples only the random layered task graph.
func GenerateGraph(p WorkloadParams, r *RNG) (*Graph, error) { return gen.RandomGraph(p, r) }

// ExecMatrix samples an execution-time matrix with the COV-based
// heterogeneity model of Ali et al. (HCW 2000).
func ExecMatrix(n, m int, muTask, vTask, vMach float64, r *RNG) Matrix {
	return gen.ExecMatrix(n, m, muTask, vTask, vMach, r)
}

// ULMatrix samples the two-level Gamma uncertainty-level matrix of
// Section 5, clamped to ≥ 1.
func ULMatrix(n, m int, meanUL, v1, v2 float64, r *RNG) Matrix {
	return gen.ULMatrix(n, m, meanUL, v1, v2, r)
}

// Structured task graphs for examples and domain workloads.
var (
	// PaperExampleGraph returns the 8-task illustrative graph of Fig. 1.
	PaperExampleGraph = gen.PaperExampleGraph
	// GaussianElimination returns the DAG of Gaussian elimination on a
	// k×k matrix.
	GaussianElimination = gen.GaussianElimination
	// FFT returns the butterfly DAG of a 2^stages-point FFT.
	FFT = gen.FFT
	// ForkJoin returns sequential fork-join stages.
	ForkJoin = gen.ForkJoin
	// Stencil returns a width×depth pipeline stencil DAG.
	Stencil = gen.Stencil
	// OutTree returns a random rooted out-tree (divide-style computation).
	OutTree = gen.OutTree
	// InTree returns a random rooted in-tree (reduction-style computation).
	InTree = gen.InTree
	// SeriesParallel returns a random series-parallel DAG.
	SeriesParallel = gen.SeriesParallel
)

// Schedule is an immutable task→processor assignment with per-processor
// orders and the full expected-duration analysis: start/finish times,
// makespan M0, top/bottom levels, per-task and average slack.
type Schedule = schedule.Schedule

// NewSchedule builds a schedule from a task→processor map and explicit
// per-processor orders, validating them against the precedence
// constraints.
func NewSchedule(w *Workload, proc []int, procOrder [][]int) (*Schedule, error) {
	return schedule.New(w, proc, procOrder)
}

// ScheduleFromOrder builds a schedule from a global topological execution
// order plus a task→processor map (the GA chromosome decoding).
func ScheduleFromOrder(w *Workload, order, proc []int) (*Schedule, error) {
	return schedule.FromOrder(w, order, proc)
}

// ScheduleFromOrderTrusted is ScheduleFromOrder: both validate the order
// and the processor map in full.
//
// Deprecated: use ScheduleFromOrder.
func ScheduleFromOrderTrusted(w *Workload, order, proc []int) (*Schedule, error) {
	return schedule.FromOrder(w, order, proc)
}

// ScheduleDecoder is the pooled fast path for decoding many trusted
// (order, proc) pairs against one workload with minimal allocation.
type ScheduleDecoder = schedule.Decoder

// NewScheduleDecoder returns a decoder for the workload.
func NewScheduleDecoder(w *Workload) *ScheduleDecoder { return schedule.NewDecoder(w) }

// HEFT schedules the workload with the Heterogeneous Earliest Finish Time
// heuristic (Topcuoglu et al.), the paper's baseline and GA seed.
func HEFT(w *Workload) (*Schedule, error) { return heft.HEFT(w, heft.Options{}) }

// HEFTNoInsertion is HEFT with the insertion-based slot search disabled
// (append-only), exposed for ablation studies.
func HEFTNoInsertion(w *Workload) (*Schedule, error) {
	return heft.HEFT(w, heft.Options{NoInsertion: true})
}

// CPOP schedules the workload with the Critical Path On a Processor
// heuristic (Topcuoglu et al.).
func CPOP(w *Workload) (*Schedule, error) { return heft.CPOP(w, heft.Options{}) }

// PEFT schedules the workload with the Predict Earliest Finish Time
// heuristic (Arabnejad & Barbosa): HEFT's modern successor, placing each
// task with a one-hop lookahead via the optimistic cost table.
func PEFT(w *Workload) (*Schedule, error) { return heft.PEFT(w, heft.Options{}) }

// RandomSchedule returns a uniformly random valid schedule.
func RandomSchedule(w *Workload, r *RNG) (*Schedule, error) { return heft.RandomSchedule(w, r) }

// BatchRule selects a levelized batch heuristic.
type BatchRule = heft.BatchRule

// Batch heuristics: Min-Min commits the globally earliest-finishing ready
// task; Max-Min commits the ready task whose best finish is latest.
const (
	MinMin = heft.MinMin
	MaxMin = heft.MaxMin
)

// BatchSchedule runs the levelized Min-Min / Max-Min batch heuristic.
func BatchSchedule(w *Workload, rule BatchRule) (*Schedule, error) { return heft.Batch(w, rule) }

// UpwardRanks returns HEFT's upward rank of every task.
func UpwardRanks(w *Workload) []float64 { return heft.UpwardRanks(w) }

// Mode selects the GA objective of the robust scheduler.
type Mode = robust.Mode

// GA objectives: the paper's ε-constraint bi-objective method and the two
// single-objective modes used in its Section 5.1 experiments.
const (
	EpsilonConstraint = robust.EpsilonConstraint
	MinMakespan       = robust.MinMakespan
	MaxSlack          = robust.MaxSlack
)

// SlackMetric selects the robustness surrogate the GA maximizes.
type SlackMetric = robust.SlackMetric

// Slack surrogates: the paper's average slack, or the minimum slack
// extension. The minimum slack of every schedule is 0 up to rounding (a
// critical path's tasks have zero slack), so a GA maximizing it selects on
// rounding residue; see robust.MinSlack.
const (
	AvgSlackMetric = robust.AvgSlack
	MinSlackMetric = robust.MinSlack
)

// SolveOptions configures the robust genetic scheduler: objective, ε,
// slack surrogate and GA parameters.
type SolveOptions = robust.Options

// SolveResult is the outcome of a robust scheduling run: the best schedule,
// the HEFT baseline and run statistics.
type SolveResult = robust.Result

// PaperSolveOptions returns the paper's GA configuration (Np=20, pc=0.9,
// pm=0.1, 1000 generations, 100-generation stagnation) for the given mode
// and ε.
func PaperSolveOptions(mode Mode, eps float64) SolveOptions { return robust.PaperOptions(mode, eps) }

// Solve runs the bi-objective genetic algorithm of Section 4 on the
// workload.
func Solve(w *Workload, opt SolveOptions, r *RNG) (*SolveResult, error) {
	return robust.Solve(w, opt, r)
}

// SimOptions configures Monte-Carlo evaluation (sample count, parallelism).
type SimOptions = sim.Options

// SimMetrics reports a schedule's realized behaviour: makespan
// distribution, expected relative tardiness, miss rate, and the paper's
// robustness metrics R1 = 1/E[δ] and R2 = 1/α.
type SimMetrics = sim.Metrics

// PaperSimOptions returns the paper's evaluation scale (1000 realizations).
func PaperSimOptions() SimOptions { return sim.PaperOptions() }

// Evaluate runs Monte-Carlo realizations of one schedule and returns its
// robustness metrics.
func Evaluate(s *Schedule, opt SimOptions, r *RNG) (SimMetrics, error) {
	return sim.Evaluate(s, opt, r)
}

// CVaR returns the conditional value at risk of the schedule's makespan at
// level q: the mean of the worst (1−q) fraction of sampled realizations.
func CVaR(s *Schedule, q float64, opt SimOptions, r *RNG) (float64, error) {
	return sim.CVaR(s, q, opt, r)
}

// VizSeries is one named curve for SVG chart rendering.
type VizSeries = viz.Series

// ChartOptions styles LineChartSVG.
type ChartOptions = viz.ChartOptions

// GanttOptions styles GanttSVG.
type GanttOptions = viz.GanttOptions

// HistogramOptions styles HistogramSVG.
type HistogramOptions = viz.HistogramOptions

// LineChartSVG renders curves as a standalone SVG line chart.
func LineChartSVG(series []VizSeries, opt ChartOptions) string { return viz.LineChartSVG(series, opt) }

// GanttSVG renders a schedule as an SVG Gantt chart, optionally shading
// each task's slack window.
func GanttSVG(s *Schedule, opt GanttOptions) string { return viz.GanttSVG(s, opt) }

// HistogramSVG renders an empirical distribution (e.g. SampleMakespans
// output) as an SVG histogram with labelled reference markers.
func HistogramSVG(samples []float64, opt HistogramOptions) string {
	return viz.HistogramSVG(samples, opt)
}

// DeadlineForConfidence returns the smallest deadline the schedule meets
// with the given confidence across sampled realizations — "what completion
// time can I promise with 95% confidence?".
func DeadlineForConfidence(s *Schedule, confidence float64, opt SimOptions, r *RNG) (float64, error) {
	return sim.DeadlineForConfidence(s, confidence, opt, r)
}

// EvaluateAll evaluates several schedules of one workload under common
// random numbers (identical sampled environments), the right way to
// estimate improvements of one scheduler over another.
func EvaluateAll(ss []*Schedule, opt SimOptions, r *RNG) ([]SimMetrics, error) {
	return sim.EvaluateAll(ss, opt, r)
}

// RealizeAll exposes the Monte-Carlo engine's raw output: the realized
// makespans of every schedule, indexed [schedule][realization], under common
// random numbers. Evaluate, EvaluateAll, CVaR and DeadlineForConfidence are
// views over this sample; it is the input for custom risk measures and
// distributional comparisons (e.g. KSDistance). Results are bit-identical
// for every Workers and BatchSize setting.
func RealizeAll(ss []*Schedule, opt SimOptions, r *RNG) ([][]float64, error) {
	return sim.RealizeAll(ss, opt, r)
}

// OverallPerformance computes the paper's combined score P(s) (Eqn. 9):
// r·ln(M_HEFT/M) + (1−r)·ln(R/R_HEFT).
func OverallPerformance(r, makespan, makespanHEFT, robustness, robustnessHEFT float64) float64 {
	return stats.OverallPerformance(r, makespan, makespanHEFT, robustness, robustnessHEFT)
}

// ExperimentConfig parameterizes the figure-regeneration harness.
type ExperimentConfig = experiments.Config

// ExperimentSeries is one named curve of a regenerated figure.
type ExperimentSeries = experiments.Series

// Sweep is the UL × ε × graph grid of GA outcomes behind Figs. 4–8.
type Sweep = experiments.Sweep

// EvolutionTraceResult holds the Fig. 2 / Fig. 3 trajectories.
type EvolutionTraceResult = experiments.Trace

// Robustness metric selectors for the experiment harness.
const (
	MetricR1 = experiments.R1
	MetricR2 = experiments.R2
)

// DefaultExperimentConfig returns a configuration that reproduces every
// figure's qualitative shape in seconds.
func DefaultExperimentConfig() ExperimentConfig { return experiments.Default() }

// PaperScaleExperimentConfig returns the published experimental scale
// (100 graphs × 1000 realizations × 1000 generations); expect hours.
func PaperScaleExperimentConfig() ExperimentConfig { return experiments.PaperScale() }

// Fig1WorkedExample renders the paper's Fig. 1 walkthrough (task graph,
// system, schedule notation, Gantt, disjunctive graph) as text plus DOT.
func Fig1WorkedExample(seed uint64) (string, error) { return experiments.Fig1(seed) }

// FormatSeries renders regenerated figure data as an aligned text table.
func FormatSeries(title, xlabel string, series []ExperimentSeries) string {
	return experiments.FormatSeries(title, xlabel, series)
}

// ParetoOptions configures the NSGA-II front solver.
type ParetoOptions = robust.ParetoOptions

// ParetoPoint is one non-dominated schedule of an NSGA-II front.
type ParetoPoint = robust.ParetoPoint

// PaperParetoOptions returns NSGA-II parameters sized like the paper's GA.
func PaperParetoOptions() ParetoOptions { return robust.PaperParetoOptions() }

// SolvePareto runs NSGA-II over (minimize makespan, maximize slack) and
// returns the approximated Pareto front sorted by increasing makespan —
// the whole trade-off curve the ε-constraint method samples one point of.
func SolvePareto(w *Workload, opt ParetoOptions, r *RNG) ([]ParetoPoint, error) {
	return robust.SolvePareto(w, opt, r)
}

// SolveWeightedSum runs the classical weighted-sum scalarization
// comparator: maximize weight·(M_HEFT/M0) + (1−weight)·(slack/M_HEFT).
func SolveWeightedSum(w *Workload, weight float64, opt SolveOptions, r *RNG) (*SolveResult, error) {
	return robust.SolveWeightedSum(w, weight, opt, r)
}

// AnnealOptions configures the simulated-annealing comparator.
type AnnealOptions = robust.AnnealOptions

// PaperishAnnealOptions returns an SA budget matched to the paper's GA
// (20000 evaluations).
func PaperishAnnealOptions(eps float64) AnnealOptions { return robust.PaperishAnnealOptions(eps) }

// SolveAnneal runs simulated annealing over the same chromosome,
// neighbourhood and ε-constraint objective as the GA — the
// search-strategy comparator among the paper's "guided random search
// methods".
func SolveAnneal(w *Workload, opt AnnealOptions, r *RNG) (*SolveResult, error) {
	return robust.SolveAnneal(w, opt, r)
}

// DynamicResult is one simulated online execution of the dynamic
// dispatcher baseline.
type DynamicResult = dynamic.Result

// SimulateDynamic plays the rank-ordered earliest-finish-time online
// dispatcher against one realized duration matrix, with placement
// decisions based on the estimate matrix (normally the expected
// durations).
func SimulateDynamic(w *Workload, durs, estimate Matrix, ranks []float64) (DynamicResult, error) {
	return dynamic.Simulate(w, durs, estimate, ranks)
}

// EvaluateDynamic Monte-Carlo evaluates the online dispatcher with metrics
// directly comparable to Evaluate on static schedules.
func EvaluateDynamic(w *Workload, opt SimOptions, r *RNG) (SimMetrics, error) {
	return dynamic.Evaluate(w, opt, r)
}

// RealizeDurations samples one full n×m actual-duration matrix — one
// concrete environment realization.
func RealizeDurations(w *Workload, r *RNG) Matrix { return dynamic.RealizeMatrix(w, r) }

// Moments is a mean/variance pair of an (approximately normal) variable.
type Moments = clark.Moments

// ClarkAnalysis is the analytic (Monte-Carlo-free) makespan-distribution
// estimate of a schedule.
type ClarkAnalysis = clark.Analysis

// AnalyzeClark estimates E[makespan] and Var[makespan] of a schedule with
// Clark's moment-matching recursion over the disjunctive graph — a fast
// screening alternative to Monte-Carlo simulation (see internal/clark for
// the method's documented bias bands).
func AnalyzeClark(s *Schedule) ClarkAnalysis { return clark.Analyze(s) }

// MeasureReport bundles the related-work robustness measures of one
// schedule: Bölöni & Marinescu's critical components and criticality
// entropy, Leon et al.'s mean slack, and the Monte-Carlo metrics.
type MeasureReport = measures.Report

// MeasureRobustness computes the full related-work measure report.
func MeasureRobustness(s *Schedule, realizations int, r *RNG) (MeasureReport, error) {
	return measures.Measure(s, realizations, r)
}

// CriticalityProbabilities estimates, per task, the probability of lying
// on a critical path of a realized execution.
func CriticalityProbabilities(s *Schedule, realizations int, r *RNG) ([]float64, error) {
	return measures.CriticalityProbabilities(s, realizations, r)
}

// KSDistance is the two-sample Kolmogorov–Smirnov statistic between
// empirical samples — England et al.'s distributional robustness view.
func KSDistance(a, b []float64) (float64, error) { return measures.KSDistance(a, b) }

// SampleMakespans draws n realized makespans of a schedule.
func SampleMakespans(s *Schedule, n int, r *RNG) ([]float64, error) {
	return measures.SampleMakespans(s, n, r)
}

// SigmaMatrix returns the n×m duration standard deviations implied by the
// workload's uniform model: σ_ij = (UL_ij − 1)·b_ij/√3 — the "stochastic
// information" the paper's future work proposes exploiting.
func SigmaMatrix(w *Workload) Matrix { return stoch.Sigma(w) }

// RiskAdjustedWorkload returns a planning view whose durations are
// E[c] + k·σ, turning any deterministic scheduler into a variance-aware
// one. Schedules built on the view must be re-bound with RebindSchedule
// before evaluation.
func RiskAdjustedWorkload(w *Workload, k float64) (*Workload, error) {
	return stoch.RiskAdjusted(w, k)
}

// RebindSchedule re-expresses a schedule planned on one view of a workload
// as a schedule of the target workload (same graph and platform),
// revalidating and re-analyzing it.
func RebindSchedule(s *Schedule, target *Workload) (*Schedule, error) {
	return stoch.Rebind(s, target)
}

// RiskHEFT is HEFT on risk-adjusted durations E[c] + k·σ, bound back to
// the original workload — the variance-aware baseline of the paper's
// future-work direction.
func RiskHEFT(w *Workload, k float64) (*Schedule, error) { return stoch.HEFT(w, k) }

// RepairPolicy selects the runtime repair behaviour when executing a
// static schedule against realized durations.
type RepairPolicy = repair.Policy

// RepairOutcome is one simulated execution under a repair policy.
type RepairOutcome = repair.Outcome

// RepairMetrics extends the simulator metrics with repair statistics.
type RepairMetrics = repair.Metrics

// NeverReschedule is pure right-shift execution — exactly the paper's
// realization semantics.
func NeverReschedule() RepairPolicy { return repair.NeverReschedule() }

// ExecuteWithRepair plays one realized duration matrix against the
// schedule under the repair policy.
func ExecuteWithRepair(s *Schedule, durs Matrix, pol RepairPolicy) (RepairOutcome, error) {
	return repair.Execute(s, durs, pol)
}

// EvaluateWithRepair Monte-Carlo evaluates a schedule executed under the
// repair policy; metrics are comparable to the static Evaluate.
func EvaluateWithRepair(s *Schedule, pol RepairPolicy, opt SimOptions, r *RNG) (RepairMetrics, error) {
	return repair.Evaluate(s, pol, opt, r)
}

// ParetoFilter returns the indices of the non-dominated objective vectors
// (all objectives minimized).
func ParetoFilter(objs [][]float64) []int { return pareto.Filter(objs) }

// Hypervolume2D returns the area dominated by 2-objective points (both
// minimized) inside the reference box; the standard front-quality
// indicator.
func Hypervolume2D(objs [][]float64, ref [2]float64) float64 {
	return pareto.Hypervolume2D(objs, ref)
}

// WriteWorkload serializes a workload as JSON (see internal/wio for the
// format).
func WriteWorkload(out io.Writer, w *Workload) error { return wio.WriteWorkload(out, w) }

// ReadWorkload parses and validates a JSON workload.
func ReadWorkload(in io.Reader) (*Workload, error) { return wio.ReadWorkload(in) }

// WriteSchedule serializes a schedule as JSON.
func WriteSchedule(out io.Writer, s *Schedule) error { return wio.WriteSchedule(out, s) }

// ReadSchedule parses a JSON schedule and re-validates it against the
// workload.
func ReadSchedule(in io.Reader, w *Workload) (*Schedule, error) { return wio.ReadSchedule(in, w) }
