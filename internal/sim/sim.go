// Package sim implements the paper's evaluation methodology: Monte-Carlo
// realizations of the non-deterministic task durations (Section 3.1's
// uniform model c_ij ~ U(b_ij, (2·UL_ij−1)·b_ij)) and the two robustness
// metrics computed from them — R1, the inverse expected relative tardiness
// (Definition 3.6), and R2, the inverse schedule miss rate (Definition 3.7).
//
// Realizations are processed in lane-batched groups: a worker samples
// Options.BatchSize realizations of the read set — the (task, processor)
// pairs the call's schedules assign, a makespan depends on no other pair —
// gathers each schedule's assigned durations into lane-major buffers, and
// runs one structure-of-arrays forward longest-path sweep over the
// schedule's precomputed CSR disjunctive graph that advances all lanes per
// arc (schedule.MakespanBatchInto). Each realization draws the uniform
// block of the whole n×m matrix, so a pair's sample does not depend on
// which other schedules share the call. Batches fan out across
// Options.Workers goroutines with per-realization deterministic RNG streams.
//
// Every metric — including the P50/P95/P99 quantiles, which are exact order
// statistics of the retained per-realization makespan vector — is computed
// from the makespans in realization order, so all results are bit-identical
// regardless of worker count and batch width.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"robsched/internal/obs"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// DefaultBatchSize is the number of realizations a worker processes per
// kernel batch when Options.BatchSize is zero. Eight lanes of float64 fill
// one cache line and two ymm registers of the AVX kernel, and only this
// width has a specialized kernel (schedule.MakespanBatchInto).
const DefaultBatchSize = 8

// DurationModel selects the per-(task, processor) duration distribution.
// The zero value is the paper's uniform model, and selecting it (with
// CorrNone) keeps the original sampling path bit-identical.
type DurationModel uint8

const (
	// ModelUniform is the paper's c_ij ~ U(b_ij, (2·UL_ij−1)·b_ij).
	ModelUniform DurationModel = iota
	// ModelLognormal matches the uniform model's mean and variance per
	// (task, processor) pair but draws from a lognormal — the service-time
	// distribution observed on real shared clusters, with a right tail the
	// uniform model cannot produce.
	ModelLognormal
	// ModelBoundedPareto keeps the uniform model's support [b, (2·UL−1)·b]
	// but distributes mass as a truncated Pareto with tail index
	// Options.ParetoShape — most draws near the best case, rare draws near
	// the worst, the classic heavy-tail stress for slack-based robustness.
	ModelBoundedPareto

	numDurationModels
)

// String returns the registry name of the model ("uniform", "lognormal",
// "pareto").
func (m DurationModel) String() string {
	switch m {
	case ModelUniform:
		return "uniform"
	case ModelLognormal:
		return "lognormal"
	case ModelBoundedPareto:
		return "pareto"
	}
	return fmt.Sprintf("DurationModel(%d)", uint8(m))
}

// Correlation selects the cross-task dependence structure of one
// realization's duration matrix. The zero value (independent entries) is
// the paper's assumption.
type Correlation uint8

const (
	// CorrNone draws every matrix entry independently (the paper's model).
	CorrNone Correlation = iota
	// CorrShared multiplies all durations on a processor by one shared
	// mean-1 lognormal load factor per realization (COV Options.LoadCOV):
	// a busy processor is busy for every task it runs, which is the
	// correlation the paper's independence assumption hides.
	CorrShared
	// CorrIndep multiplies every matrix entry by its own independent mean-1
	// lognormal factor with the same COV as CorrShared. Each entry's
	// marginal distribution is identical to CorrShared's — only the
	// cross-task dependence differs — so the pair isolates the effect of
	// correlation at equal marginal variance.
	CorrIndep

	numCorrelations
)

// String returns the registry name of the correlation mode ("none",
// "shared", "indep").
func (c Correlation) String() string {
	switch c {
	case CorrNone:
		return "none"
	case CorrShared:
		return "shared"
	case CorrIndep:
		return "indep"
	}
	return fmt.Sprintf("Correlation(%d)", uint8(c))
}

// Options configures a Monte-Carlo evaluation.
type Options struct {
	// Realizations is the number of sampled executions (paper: 1000).
	Realizations int
	// Workers caps the parallel fan-out; 0 means GOMAXPROCS.
	Workers int
	// Deadline, when positive, additionally reports the fraction of
	// realizations whose makespan exceeds it (a user-deadline robustness
	// view beyond the paper's M0-relative miss rate).
	Deadline float64
	// Antithetic pairs each realization with its mirrored counterpart
	// (uniform draws u and 1−u). The makespan is monotone in every task
	// duration, so the paired makespans are negatively correlated and the
	// mean estimator's variance strictly drops for the same sample count —
	// classic antithetic-variates variance reduction. Odd realization
	// counts leave the last sample unpaired. Repair, dynamic dispatch and
	// faulty execution pair their realizations the same way (see Durations).
	Antithetic bool
	// BatchSize is the number of realizations evaluated per batched kernel
	// sweep; 0 means DefaultBatchSize. Any width yields bit-identical
	// results — this is purely a throughput knob.
	BatchSize int

	// Model selects the duration distribution. The zero value is the
	// paper's uniform model; combined with CorrNone it runs the original
	// sampling path bit-identically.
	Model DurationModel
	// Corr selects the cross-task correlation structure of each sampled
	// duration matrix. Non-CorrNone modes require LoadCOV > 0.
	Corr Correlation
	// LoadCOV is the coefficient of variation of the mean-1 lognormal load
	// factor applied by CorrShared/CorrIndep. Ignored under CorrNone.
	LoadCOV float64
	// ParetoShape is the tail index α of ModelBoundedPareto (smaller is
	// heavier; 1.5 is a typical heavy tail). Ignored by the other models.
	ParetoShape float64

	// Obs, if non-nil, receives engine telemetry: the deterministic
	// counters sim.realize_calls / sim.realizations / sim.schedules /
	// sim.batches and the sim.batch_occupancy histogram (all independent of
	// Workers), plus sim.worker_claims, a histogram of batches claimed per
	// worker whose shape — unlike every other instrument — depends on the
	// worker count and scheduling. Nil disables with zero overhead.
	Obs *obs.Registry
	// Trace, if non-nil, receives a "sim/realize_all" span per engine run
	// (realizations, schedules, batches, workers attributes; wall-clock
	// duration) and a "sim/build_sampler" span for the sample-table setup.
	Trace *obs.Tracer
}

// PaperOptions returns the paper's evaluation settings (1000 realizations).
func PaperOptions() Options { return Options{Realizations: 1000} }

// OptionError reports an invalid Options field. It is the typed error
// returned by Validate, so callers can tell a misconfigured evaluation
// apart from an execution failure and report which knob is wrong.
type OptionError struct {
	Field  string
	Value  float64
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("sim: Options.%s=%g %s", e.Field, e.Value, e.Reason)
}

// Validate checks the option set without clamping anything: every consumer
// of Options (here and in the repair/fault evaluators) rejects bad values
// with an *OptionError instead of silently correcting them.
func (o Options) Validate() error {
	if o.Realizations < 1 {
		return &OptionError{"Realizations", float64(o.Realizations), "must be >= 1"}
	}
	if o.Workers < 0 {
		return &OptionError{"Workers", float64(o.Workers), "must be >= 0"}
	}
	if o.BatchSize < 0 {
		return &OptionError{"BatchSize", float64(o.BatchSize), "must be >= 0"}
	}
	if math.IsNaN(o.Deadline) || math.IsInf(o.Deadline, 0) {
		return &OptionError{"Deadline", o.Deadline, "must be finite"}
	}
	if o.Model >= numDurationModels {
		return &OptionError{"Model", float64(o.Model), "is not a known duration model"}
	}
	if o.Corr >= numCorrelations {
		return &OptionError{"Corr", float64(o.Corr), "is not a known correlation mode"}
	}
	if math.IsNaN(o.LoadCOV) || math.IsInf(o.LoadCOV, 0) || o.LoadCOV < 0 {
		return &OptionError{"LoadCOV", o.LoadCOV, "must be finite and >= 0"}
	}
	if o.Corr != CorrNone && o.LoadCOV == 0 {
		return &OptionError{"LoadCOV", o.LoadCOV, "must be > 0 when Corr is set"}
	}
	if math.IsNaN(o.ParetoShape) || math.IsInf(o.ParetoShape, 0) || o.ParetoShape < 0 {
		return &OptionError{"ParetoShape", o.ParetoShape, "must be finite and >= 0"}
	}
	if o.Model == ModelBoundedPareto && o.ParetoShape == 0 {
		return &OptionError{"ParetoShape", o.ParetoShape, "must be > 0 for the bounded-Pareto model"}
	}
	return nil
}

func (o Options) workers() int {
	w := o.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// batch returns the kernel batch width for a run of r realizations.
func (o Options) batch(r int) int {
	b := o.BatchSize
	if b == 0 {
		b = DefaultBatchSize
	}
	if b > r {
		b = r
	}
	return b
}

// Metrics summarizes the realized behaviour of one schedule.
type Metrics struct {
	// M0 is the expected makespan the schedule was planned with.
	M0 float64
	// Realizations is the number of Monte-Carlo samples behind the stats.
	Realizations int

	// MeanMakespan, StdMakespan, MinMakespan, MaxMakespan summarize the
	// realized makespan distribution.
	MeanMakespan float64
	StdMakespan  float64
	MinMakespan  float64
	MaxMakespan  float64

	// MeanTardiness is E[δ] with δ_i = max(0, M_i − M0)/M0 (Eqn. 4).
	MeanTardiness float64
	// MissRate is α = |{M_i > M0}|/N (Definition 3.7).
	MissRate float64
	// R1 = 1/E[δ] (Eqn. 5); +Inf when no realization is tardy.
	R1 float64
	// R2 = 1/α (Eqn. 6); +Inf when no realization misses.
	R2 float64

	// P50, P95 and P99 are exact order statistics of the realized makespan
	// distribution (tail behaviour the mean hides): the smallest sampled
	// makespan not exceeded by at least the given fraction of realizations,
	// the same convention as DeadlineForConfidence.
	P50, P95, P99 float64
	// DeadlineMissRate is the fraction of realizations whose makespan
	// exceeded Options.Deadline; NaN when no deadline was set.
	DeadlineMissRate float64
}

// accum folds one makespan vector into the scalar statistics. Mean and
// variance use Welford's online algorithm — the naive sum-of-squares form
// cancels catastrophically when the makespan spread is tiny relative to its
// magnitude (e.g. deterministic workloads). Realizations are always fed in
// realization order, so the accumulation is worker-independent.
type accum struct {
	n         int
	meanM     float64
	m2        float64 // sum of squared deviations from the running mean
	minM      float64
	maxM      float64
	sumDelta  float64
	missCount int

	deadline       float64 // 0 disables
	deadlineMisses int
}

func newAccum() accum {
	return accum{minM: math.Inf(1), maxM: math.Inf(-1)}
}

func (a *accum) add(m, m0 float64) {
	if a.deadline > 0 && m > a.deadline {
		a.deadlineMisses++
	}
	a.n++
	d := m - a.meanM
	a.meanM += d / float64(a.n)
	a.m2 += d * (m - a.meanM)
	if m < a.minM {
		a.minM = m
	}
	if m > a.maxM {
		a.maxM = m
	}
	if m > m0*(1+1e-12) {
		a.missCount++
		a.sumDelta += (m - m0) / m0
	}
}

func (a accum) metrics(m0 float64) Metrics {
	n := float64(a.n)
	mean := a.meanM
	variance := a.m2 / n
	if variance < 0 {
		variance = 0
	}
	meanDelta := a.sumDelta / n
	missRate := float64(a.missCount) / n
	r1 := math.Inf(1)
	if meanDelta > 0 {
		r1 = 1 / meanDelta
	}
	r2 := math.Inf(1)
	if missRate > 0 {
		r2 = 1 / missRate
	}
	deadlineMiss := math.NaN()
	if a.deadline > 0 {
		deadlineMiss = float64(a.deadlineMisses) / n
	}
	return Metrics{
		M0:               m0,
		Realizations:     a.n,
		MeanMakespan:     mean,
		StdMakespan:      math.Sqrt(variance),
		MinMakespan:      a.minM,
		MaxMakespan:      a.maxM,
		MeanTardiness:    meanDelta,
		MissRate:         missRate,
		R1:               r1,
		R2:               r2,
		DeadlineMissRate: deadlineMiss,
		// Quantiles are filled by the callers from the sorted sample.
		P50: math.NaN(), P95: math.NaN(), P99: math.NaN(),
	}
}

// sampler precomputes the duration-distribution constants of the read set —
// the (task, processor) pairs some schedule of the call assigns — so the
// per-realization sampling loop is pure RNG and arithmetic work with no
// matrix lookups, and no pair that no schedule reads is ever transformed.
// Entry e of every table describes pair[e]; pairs are in ascending pair
// index t*m+p.
//
// The realization's uniform block covers the whole matrix: load-factor
// draws first, then one draw per non-degenerate pair of all n×m in pair
// order, exactly like Workload.SampleDuration. A degenerate pair (UL == 1)
// consumes no draw. Entry e reads its draw at u[ui[e]], so the streams, the
// antithetic mirror and every sampled bit are those of a full-matrix sample.
type sampler struct {
	pair  []int32   // read set: pair index t*m+p per entry, ascending
	ui    []int32   // index of the entry's draw in the uniform block; −1 if degenerate
	lo    []float64 // b_ij
	width []float64 // hi − b, hi = (2·UL−1)·b
	sum   []float64 // b + hi, the antithetic mirror constant
	draws int       // non-degenerate pairs of the whole matrix == duration uniforms per realization

	// Model extension. The fields above fully describe the uniform model;
	// the general path (any non-default Model/Corr) additionally uses the
	// tables below. mu/sigma are the lognormal parameters matched per pair
	// to the uniform model's mean and variance. The bounded Pareto over the
	// same support [lo, hi], hi = lo+width, with tail index α is
	// lo / (1 − u·paretoC)^invAlpha: rng.BoundedParetoQuantile with its
	// per-pair constants paretoC = 1 − (lo/hi)^α and invAlpha = 1/α hoisted,
	// the same expressions and so the same bits.
	model     DurationModel
	corr      Correlation
	mu, sigma []float64
	paretoC   []float64
	invAlpha  float64
	// Mean-1 lognormal load-factor parameters: sigma² = ln(1+LoadCOV²),
	// mu = −sigma²/2.
	loadMu, loadSigma float64
	loadDraws         int // uniforms consumed for load factors per realization
	m                 int // processors (column count of the pair index)
}

// general reports whether this sampler needs the generalized path; false
// means the original uniform code runs, bit-identical to the pre-model
// engine.
func (sp *sampler) general() bool {
	return sp.model != ModelUniform || sp.corr != CorrNone
}

// scratch returns the per-realization uniform block length the worker must
// provide: load-factor draws first, then one draw per non-degenerate pair.
func (sp *sampler) scratch() int { return sp.loadDraws + sp.draws }

// readSet returns the sorted union of the (task, processor) pairs the
// schedules assign, as pair indices t*m+p, and the gather indices into it:
// entry gather[j*n+t] is the read-set position of schedule j's pair for
// task t.
func readSet(ss []*schedule.Schedule, n, m int) (pairs, gather []int32) {
	pos := make([]int32, n*m) // 1 + read-set position, 0 = not read
	count := 0
	for _, s := range ss {
		for t := 0; t < n; t++ {
			if k := t*m + s.Proc(t); pos[k] == 0 {
				pos[k] = 1
				count++
			}
		}
	}
	pairs = make([]int32, 0, count)
	for k, read := range pos {
		if read != 0 {
			pairs = append(pairs, int32(k))
			pos[k] = int32(len(pairs))
		}
	}
	gather = make([]int32, len(ss)*n)
	for j, s := range ss {
		for t := 0; t < n; t++ {
			gather[j*n+t] = pos[t*m+s.Proc(t)] - 1
		}
	}
	return pairs, gather
}

// newSampler builds the sampler tables for the read set pairs (ascending
// pair indices, as readSet returns them).
func newSampler(w *platform.Workload, opt Options, pairs []int32) sampler {
	n, m := w.N(), w.M()
	sp := sampler{
		pair:  pairs,
		ui:    make([]int32, len(pairs)),
		lo:    make([]float64, len(pairs)),
		width: make([]float64, len(pairs)),
		sum:   make([]float64, len(pairs)),
		model: opt.Model,
		corr:  opt.Corr,
		m:     m,
	}
	if opt.Corr != CorrNone {
		s2 := math.Log(1 + opt.LoadCOV*opt.LoadCOV)
		sp.loadMu = -s2 / 2
		sp.loadSigma = math.Sqrt(s2)
		if opt.Corr == CorrShared {
			sp.loadDraws = m
		} else {
			sp.loadDraws = n * m
		}
	}
	// One pass over the whole matrix: every non-degenerate pair owns the
	// next draw of the block, read or not.
	e := 0
	for k := 0; k < n*m; k++ {
		t, p := k/m, k%m
		b := w.BCET.At(t, p)
		hi := (2*w.UL.At(t, p) - 1) * b
		if e < len(pairs) && int(pairs[e]) == k {
			sp.lo[e] = b
			sp.width[e] = hi - b
			sp.sum[e] = b + hi
			sp.ui[e] = -1
			if hi > b {
				sp.ui[e] = int32(sp.loadDraws + sp.draws)
			}
			e++
		}
		if hi > b {
			sp.draws++
		}
	}
	switch opt.Model {
	case ModelLognormal:
		// Match the uniform model's first two moments per pair:
		// mean μ = (b+hi)/2, variance v = (hi−b)²/12, then
		// sigma² = ln(1+v/μ²), mu = ln μ − sigma²/2.
		sp.mu = make([]float64, len(pairs))
		sp.sigma = make([]float64, len(pairs))
		for e, i := range sp.ui {
			if i < 0 {
				continue
			}
			mean := sp.sum[e] / 2
			v := sp.width[e] * sp.width[e] / 12
			s2 := math.Log(1 + v/(mean*mean))
			sp.mu[e] = math.Log(mean) - s2/2
			sp.sigma[e] = math.Sqrt(s2)
		}
	case ModelBoundedPareto:
		sp.paretoC = make([]float64, len(pairs))
		sp.invAlpha = 1 / opt.ParetoShape
		for e, i := range sp.ui {
			if i < 0 {
				continue
			}
			sp.paretoC[e] = 1 - math.Pow(sp.lo[e]/(sp.lo[e]+sp.width[e]), opt.ParetoShape)
		}
	}
	return sp
}

// sampleInto draws one realization of the read set into lane `lane` of dst,
// which is entry-major with the given lane stride: entry e lands at
// dst[e*stride+lane]. The draw per pair is lo + width·U[0,1), the same
// floating-point expression as Workload.SampleDuration / rng.Uniform. The
// realization's sp.draws uniforms are generated as one rng.Float64s block
// into the scratch u, and each entry reads the draw its pair owns — the
// identical draw sequence, minus a function call per draw.
func (sp *sampler) sampleInto(dst []float64, stride, lane int, r *rng.Source, u []float64) {
	u = u[:sp.draws]
	r.Float64s(u)
	for e, i := range sp.ui {
		if i < 0 {
			dst[e*stride+lane] = sp.lo[e]
			continue
		}
		dst[e*stride+lane] = sp.lo[e] + sp.width[e]*u[i]
	}
}

// sampleMirroredInto is sampleInto with every non-degenerate draw reflected
// across its interval midpoint: (b + hi) − (b + width·U), the antithetic
// counterpart stream, operation for operation the expression the scalar
// engine's mirrored wrapper evaluated.
func (sp *sampler) sampleMirroredInto(dst []float64, stride, lane int, r *rng.Source, u []float64) {
	u = u[:sp.draws]
	r.Float64s(u)
	for e, i := range sp.ui {
		if i < 0 {
			dst[e*stride+lane] = sp.lo[e]
			continue
		}
		dst[e*stride+lane] = sp.sum[e] - (sp.lo[e] + sp.width[e]*u[i])
	}
}

// sample draws the realization seeded by seed into lane `lane` of dst on
// the path the options select: general for any non-default Model/Corr,
// else uniform, mirrored for the odd half of an antithetic pair.
func (sp *sampler) sample(dst []float64, stride, lane int, seed uint64, mirror bool, u, load []float64) {
	r := rng.New(seed)
	switch {
	case sp.general():
		sp.sampleGeneralInto(dst, stride, lane, r, u, load, mirror)
	case mirror:
		sp.sampleMirroredInto(dst, stride, lane, r, u)
	default:
		sp.sampleInto(dst, stride, lane, r, u)
	}
}

// flip returns the antithetic counterpart 1−u of a draw when mirrored.
func flip(u float64, mirrored bool) float64 {
	if mirrored {
		return 1 - u
	}
	return u
}

// sampleGeneralInto is the model-extension sampling path: any duration model
// combined with any correlation mode, normal or antithetic-mirrored. One
// realization consumes sp.scratch() uniforms as a single rng.Float64s block —
// load-factor draws first, then one draw per non-degenerate pair — so the
// draw schedule is a pure function of the workload shape and the realization
// seed, independent of worker count, batch width, shard boundaries and the
// read set.
//
// The antithetic mirror is uniform across every model: the mirrored
// realization evaluates the identical transforms at 1−u for every uniform it
// reads. Float64 outputs are dyadic rationals k/2^53, so 1−u is exactly
// representable and the mirror is exact — no rounding asymmetry between a
// realization and its antithetic partner. (The uniform-only path keeps its
// historical midpoint-reflection expression instead; the two paths never
// mix, since this one only runs for non-default Model/Corr.)
//
// load is caller scratch of length sp.m, used only under CorrShared.
func (sp *sampler) sampleGeneralInto(dst []float64, stride, lane int, r *rng.Source, u, load []float64, mirrored bool) {
	u = u[:sp.scratch()]
	r.Float64s(u)
	if sp.corr == CorrShared {
		for p := 0; p < sp.m; p++ {
			load[p] = rng.LogNormalQuantile(sp.loadMu, sp.loadSigma, flip(u[p], mirrored))
		}
	}
	for e, i := range sp.ui {
		v := sp.lo[e]
		if i >= 0 {
			uu := flip(u[i], mirrored)
			switch sp.model {
			case ModelUniform:
				v = sp.lo[e] + sp.width[e]*uu
			case ModelLognormal:
				v = rng.LogNormalQuantile(sp.mu[e], sp.sigma[e], uu)
			case ModelBoundedPareto:
				v = sp.lo[e] / math.Pow(1-uu*sp.paretoC[e], sp.invAlpha)
			}
		}
		// The load factor multiplies every entry on the processor —
		// degenerate (deterministic) pairs included: a loaded processor
		// slows all of its tasks.
		switch sp.corr {
		case CorrShared:
			v *= load[int(sp.pair[e])%sp.m]
		case CorrIndep:
			v *= rng.LogNormalQuantile(sp.loadMu, sp.loadSigma, flip(u[sp.pair[e]], mirrored))
		}
		dst[e*stride+lane] = v
	}
}

// SeedVector derives the per-realization RNG seed vector RealizeAll uses:
// one root.Uint64() draw per realization, in realization order, independent
// of any parallelism. With antithetic pairing, realizations 2k and 2k+1
// share a seed; the odd one mirrors every uniform draw.
//
// The vector is the whole stream-derivation scheme: a coordinator that
// computes it once and hands contiguous windows (with their global base
// index, which carries the antithetic parity) to RealizeSeeded in other
// worker processes reproduces exactly the sample set of a single-process
// RealizeAll, shard boundaries included.
func SeedVector(realizations int, antithetic bool, root *rng.Source) []uint64 {
	seeds := make([]uint64, realizations)
	for i := range seeds {
		if antithetic && i%2 == 1 {
			seeds[i] = seeds[i-1]
		} else {
			seeds[i] = root.Uint64()
		}
	}
	return seeds
}

// RealizeAll is the shared Monte-Carlo engine: it runs opt.Realizations
// sampled executions of every schedule (all of the same workload, under
// common random numbers — each realization samples one duration matrix and
// every schedule reads its assigned pairs from it) and returns the realized
// makespans indexed [schedule][realization]. Evaluate, EvaluateAll, CVaR
// and DeadlineForConfidence are all views over this one engine.
//
// The root source seeds one independent stream per realization, and each
// lane's floating-point operations follow the scalar order, so the returned
// vectors are bit-identical for every Workers and BatchSize setting.
func RealizeAll(ss []*schedule.Schedule, opt Options, root *rng.Source) ([][]float64, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return RealizeSeeded(ss, opt, SeedVector(opt.Realizations, opt.Antithetic, root), 0)
}

// RealizeSeeded runs the batched Monte-Carlo engine over an explicit window
// of the realization space: seeds[l] is the RNG seed of global realization
// base+l (a window of the SeedVector derivation), and the returned makespans
// are indexed [schedule][l]. opt.Realizations is ignored; the window length
// is len(seeds). base matters only under Options.Antithetic, where the
// global index parity selects the mirrored sampler, so windows that split an
// antithetic pair still reproduce the exact single-process draws.
//
// RealizeAll is RealizeSeeded over the full vector at base 0; a scatter/
// gather coordinator (internal/dist) runs disjoint windows in worker
// processes and concatenates the results in base order, which is
// bit-identical to the single-process run for any partition.
func RealizeSeeded(ss []*schedule.Schedule, opt Options, seeds []uint64, base int) ([][]float64, error) {
	vopt := opt
	vopt.Realizations = len(seeds)
	if err := vopt.Validate(); err != nil {
		return nil, err
	}
	if base < 0 {
		return nil, &OptionError{"base", float64(base), "must be >= 0"}
	}
	w, err := SharedWorkload(ss)
	if err != nil {
		return nil, err
	}
	n, m := w.N(), w.M()
	R := len(seeds)
	B := opt.batch(R)
	buildDone := opt.Trace.Scope("sim").Span("build_sampler")
	pairs, gather := readSet(ss, n, m)
	sp := newSampler(w, opt, pairs)
	buildDone()
	mks := make([][]float64, len(ss))
	arena := make([]float64, len(ss)*R)
	for j := range mks {
		mks[j], arena = arena[:R:R], arena[R:]
	}
	nBatches := (R + B - 1) / B
	nw := opt.workers()
	if nw > nBatches {
		nw = nBatches
	}
	// Telemetry: the counters and the occupancy histogram aggregate
	// worker-independent facts (every run issues the same batch widths);
	// only worker_claims reflects the actual racy batch assignment.
	opt.Obs.Counter("sim.realize_calls").Inc()
	opt.Obs.Counter("sim.realizations").Add(int64(R))
	opt.Obs.Counter("sim.schedules").Add(int64(len(ss)))
	opt.Obs.Counter("sim.batches").Add(int64(nBatches))
	occupancy := opt.Obs.Histogram("sim.batch_occupancy", []float64{1, 2, 4, 8, 16, 32, 64})
	claims := opt.Obs.Histogram("sim.worker_claims", []float64{1, 2, 4, 8, 16, 64, 256, 1024})
	if opt.Trace != nil {
		defer opt.Trace.Scope("sim").Span("realize_all",
			obs.F("realizations", float64(R)),
			obs.F("schedules", float64(len(ss))),
			obs.F("batches", float64(nBatches)),
			obs.F("batch_size", float64(B)),
			obs.F("workers", float64(nw)),
		)()
	}
	// Workers claim whole batches off a shared cursor; since every batch
	// writes a disjoint [lo, lo+b) realization range, the assignment of
	// batches to workers cannot affect the result.
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < nw; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			durs := make([]float64, len(pairs)*B) // sampled read sets, lane-minor
			lane := make([]float64, n*B)          // one schedule's assigned durations
			st := make([]float64, B)
			finish := make([]float64, n*B)
			out := make([]float64, B)
			u := make([]float64, sp.scratch()) // one realization's uniform block
			load := make([]float64, m)         // CorrShared per-processor factors
			claimed := 0
			defer func() { claims.Observe(float64(claimed)) }()
			for {
				lo := int(cursor.Add(int64(B))) - B
				if lo >= R {
					return
				}
				claimed++
				b := B
				if lo+b > R {
					b = R - lo
				}
				occupancy.Observe(float64(b))
				for l := 0; l < b; l++ {
					i := lo + l
					// The antithetic mirror follows the global realization
					// index, so a window starting on an odd index keeps
					// mirroring exactly the realizations the full run would.
					sp.sample(durs, b, l, seeds[i], opt.Antithetic && (base+i)%2 == 1, u, load)
				}
				for j, s := range ss {
					for t, e := range gather[j*n : j*n+n] {
						base := int(e) * b
						copy(lane[t*b:t*b+b], durs[base:base+b])
					}
					s.MakespanBatchInto(b, lane[:n*b], st[:b], finish[:n*b], out[:b])
					copy(mks[j][lo:lo+b], out[:b])
				}
			}
		}()
	}
	wg.Wait()
	return mks, nil
}

// Durations is the realization loop of the evaluators that play whole
// duration matrices (runtime repair, faulty execution, dynamic dispatch):
// it hands fn(k, durs) realization k's full n×m matrix, sampled from
// seeds[k] exactly as RealizeSeeded samples it at base 0 — same uniform
// block, model, correlation and antithetic mirror — so right-shift
// execution reproduces RealizeSeeded's makespans bit for bit.
// opt.Realizations is ignored. Realizations fan out across opt.Workers
// goroutines that each reuse one matrix, so fn runs concurrently for
// distinct k and must not retain durs. The error returned is that of the
// lowest k whose fn failed.
func Durations(w *platform.Workload, opt Options, seeds []uint64, fn func(k int, durs platform.Matrix) error) error {
	vopt := opt
	vopt.Realizations = len(seeds)
	if err := vopt.Validate(); err != nil {
		return err
	}
	n, m := w.N(), w.M()
	pairs := make([]int32, n*m)
	for k := range pairs {
		pairs[k] = int32(k)
	}
	sp := newSampler(w, opt, pairs)
	errs := make([]error, len(seeds))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for range min(opt.workers(), len(seeds)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			durs := platform.NewMatrix(n, m)
			flat := make([]float64, n*m)       // the sampled matrix, row-major
			u := make([]float64, sp.scratch()) // one realization's uniform block
			load := make([]float64, m)         // CorrShared per-processor factors
			for k := int(cursor.Add(1)) - 1; k < len(seeds); k = int(cursor.Add(1)) - 1 {
				sp.sample(flat, 1, 0, seeds[k], opt.Antithetic && k%2 == 1, u, load)
				for t := 0; t < n; t++ {
					copy(durs.Row(t), flat[t*m:])
				}
				errs[k] = fn(k, durs)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SharedWorkload returns the one workload every schedule of ss is bound to.
// Common random numbers sample one duration matrix per realization for all
// of them, so schedules of two workloads cannot be realized together.
func SharedWorkload(ss []*schedule.Schedule) (*platform.Workload, error) {
	if len(ss) == 0 {
		return nil, fmt.Errorf("sim: no schedules to evaluate")
	}
	w := ss[0].Workload()
	for _, s := range ss[1:] {
		if s.Workload() != w {
			return nil, fmt.Errorf("sim: schedules must share one workload for common random numbers")
		}
	}
	return w, nil
}

// Evaluate runs opt.Realizations Monte-Carlo executions of the schedule and
// returns its robustness metrics. The root source seeds one independent
// stream per realization, so results do not depend on the worker count.
func Evaluate(s *schedule.Schedule, opt Options, root *rng.Source) (Metrics, error) {
	ms, err := EvaluateAll([]*schedule.Schedule{s}, opt, root)
	if err != nil {
		return Metrics{}, err
	}
	return ms[0], nil
}

// EvaluateAll evaluates several schedules of the *same workload* under
// common random numbers: each realization samples one duration matrix and
// applies it to every schedule, which is how the paper
// compares the GA's schedules against HEFT's on identical environments
// (and is the variance-reduction friendly way to estimate improvements).
//
// All metric fields, quantiles included, are computed from the full
// per-realization makespan vector in realization order and are therefore
// bit-identical for every Workers and BatchSize setting.
func EvaluateAll(ss []*schedule.Schedule, opt Options, root *rng.Source) ([]Metrics, error) {
	mks, err := RealizeAll(ss, opt, root)
	if err != nil {
		return nil, err
	}
	out := make([]Metrics, len(ss))
	for j, s := range ss {
		out[j] = MetricsFromSamples(s.Makespan(), mks[j], opt.Deadline)
	}
	return out, nil
}

// quantileSorted returns the exact empirical p-quantile of a sorted sample:
// the smallest sampled value x such that at least a p fraction of the
// samples are <= x (i.e. sorted[ceil(p·n)−1]).
func quantileSorted(sorted []float64, p float64) float64 {
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// MetricsFromSamples assembles the full metric set from an explicit slice
// of realized makespans against the planned makespan m0. The quantiles are
// exact order statistics of the sample. Other simulators (e.g. the dynamic
// online baseline and the runtime-repair comparator) use this to report
// results comparable to Evaluate's. deadline <= 0 disables the deadline
// miss rate.
func MetricsFromSamples(m0 float64, makespans []float64, deadline float64) Metrics {
	a := newAccum()
	a.deadline = deadline
	for _, m := range makespans {
		a.add(m, m0)
	}
	out := a.metrics(m0)
	sorted := append([]float64(nil), makespans...)
	sort.Float64s(sorted)
	if len(sorted) > 0 {
		out.P50 = quantileSorted(sorted, 0.50)
		out.P95 = quantileSorted(sorted, 0.95)
		out.P99 = quantileSorted(sorted, 0.99)
	}
	return out
}

// DeadlineForConfidence returns the smallest deadline D such that the
// schedule meets D in at least the given fraction of sampled realizations:
// the empirical `confidence`-quantile of the realized makespan. This is
// the planning question robustness ultimately answers — "what completion
// time can I promise with 95% confidence?". It runs on the same batched
// parallel engine as Evaluate and honours Options.Workers, Antithetic and
// BatchSize; with equal Options and root seed it returns exactly the
// corresponding order statistic of Evaluate's makespan sample.
func DeadlineForConfidence(s *schedule.Schedule, confidence float64, opt Options, root *rng.Source) (float64, error) {
	if confidence <= 0 || confidence > 1 {
		return 0, fmt.Errorf("sim: confidence %g out of (0, 1]", confidence)
	}
	mks, err := RealizeAll([]*schedule.Schedule{s}, opt, root)
	if err != nil {
		return 0, err
	}
	makespans := mks[0]
	sort.Float64s(makespans)
	return quantileSorted(makespans, confidence), nil
}

// CVaR returns the conditional value at risk of the schedule's makespan at
// level q: the mean of the worst (1−q) fraction of sampled realizations —
// what "bad days" cost on average, the risk measure conservative planners
// optimize for. Like DeadlineForConfidence it is a view over the shared
// batched engine and honours Options.Workers, Antithetic and BatchSize.
func CVaR(s *schedule.Schedule, q float64, opt Options, root *rng.Source) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("sim: CVaR level %g out of (0, 1)", q)
	}
	mks, err := RealizeAll([]*schedule.Schedule{s}, opt, root)
	if err != nil {
		return 0, err
	}
	makespans := mks[0]
	sort.Float64s(makespans)
	cut := int(math.Floor(q * float64(len(makespans))))
	if cut >= len(makespans) {
		cut = len(makespans) - 1
	}
	tail := makespans[cut:]
	sum := 0.0
	for _, m := range tail {
		sum += m
	}
	return sum / float64(len(tail)), nil
}
