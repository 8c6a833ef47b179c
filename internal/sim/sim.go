// Package sim implements the paper's evaluation methodology: Monte-Carlo
// realizations of the non-deterministic task durations (Section 3.1's
// uniform model c_ij ~ U(b_ij, (2·UL_ij−1)·b_ij)) and the two robustness
// metrics computed from them — R1, the inverse expected relative tardiness
// (Definition 3.6), and R2, the inverse schedule miss rate (Definition 3.7).
//
// Realizations are processed in groups of eight lanes: a worker claims
// Options.BatchSize realizations per cursor step and takes them eight at a
// time, sampling each group's read set — the (task, processor) pairs the
// call's schedules assign, a makespan depends on no other pair — from
// eight lockstep RNG streams (rng.Lanes8), and running one
// structure-of-arrays forward longest-path sweep per schedule over its
// precomputed CSR disjunctive graph that advances all eight lanes per arc
// and reads each task's durations from the read-set entry the schedule's
// gather index names (schedule.MakespanBatchIndexed). A group of fewer
// than eight realizations (the end of a claim) is swept on all eight lanes
// and keeps only its own. Each realization draws the uniform block of the
// whole n×m matrix, so a pair's sample does not depend on which other
// schedules share the call. Claims fan out across Options.Workers
// goroutines with per-realization deterministic RNG streams.
//
// Every metric — including the P50/P95/P99 quantiles, which are exact order
// statistics of the retained per-realization makespan vector — is computed
// from the makespans in realization order, so all results are bit-identical
// regardless of worker count and claim size.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"robsched/internal/obs"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
)

// DefaultBatchSize is the number of realizations a worker claims per
// cursor step when Options.BatchSize is zero: one group of eight lanes,
// the width of every group the engine samples and sweeps. Eight lanes of
// float64 fill one cache line and two ymm registers of the AVX kernel
// (schedule.MakespanBatchIndexed).
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
	// BatchSize is the number of realizations a worker claims per cursor
	// step; 0 means DefaultBatchSize. A claim is sampled and swept in
	// groups of eight lanes. Any size yields bit-identical results — this
	// only sets how finely workers share the realizations.
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

// batch returns the claim size for a run of r realizations.
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
		// Quantiles are selected from the sample by metricsOf.
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
// consumes no draw. Entry e reads draw ui[e] of the block, so the streams,
// the antithetic mirror and every sampled bit are those of a full-matrix
// sample.
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

// scratch returns the per-realization uniform block length: load-factor
// draws first, then one draw per non-degenerate pair.
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

// fillChunk is the number of draws per lane the sampler fills at a time:
// 128 draws of eight lanes are 8 KB, which stay in L1 while the entries
// reading them are transformed.
const fillChunk = 128

// lanes is one worker's sampling state: the eight-stream generator, the
// chunk of lane-interleaved uniforms it fills, and the CorrShared load
// factors of its lanes.
type lanes struct {
	gen  rng.Lanes8
	u    []float64 // draw d of lane l at u[(d−d0)*8+l], d0 the chunk's first draw
	load []float64 // CorrShared: processor p's factor in lane l at load[p*8+l]
}

// newLanes sizes a worker's sampling state: a chunk of min(fillChunk,
// block) draws. A correlated model reads its load-factor draws out of
// order, so it fills the whole block as one chunk.
func (sp *sampler) newLanes() *lanes {
	chunk := min(fillChunk, sp.scratch())
	if sp.corr != CorrNone {
		chunk = sp.scratch()
	}
	ls := &lanes{u: make([]float64, chunk*8)}
	if sp.corr == CorrShared {
		ls.load = make([]float64, sp.m*8)
	}
	return ls
}

// mirrorLanes returns the lanes of the c realizations from global index g
// on that mirror, as a bit mask: under antithetic pairing, the odd global
// indices, so a window starting on an odd index keeps mirroring exactly the
// realizations the full run would.
func mirrorLanes(antithetic bool, g, c int) uint8 {
	var mask uint8
	for l := 0; antithetic && l < c; l++ {
		if (g+l)%2 == 1 {
			mask |= 1 << l
		}
	}
	return mask
}

// sample draws the realizations seeded by seeds, one to eight of them, into
// dst, which is entry-major with stride eight: entry e of realization
// seeds[l] lands at dst[e*8+l], and lane l is mirrored when bit l of
// mirror is set. Lane l's uniform block is the stream rng.New(seeds[l])
// draws, filled chunk by chunk for all eight lanes at once; the entries
// whose draws a chunk holds are transformed right after it is filled,
// which is one pass because ui ascends. A partial group pads its unused
// lanes with a real seed, ignores their draws and leaves their lanes of
// dst as they were.
func (sp *sampler) sample(dst []float64, seeds []uint64, mirror uint8, ls *lanes) {
	var s8 [8]uint64
	for l := range s8 {
		s8[l] = seeds[min(l, len(seeds)-1)]
	}
	ls.gen.Seed(&s8)
	c := len(seeds)
	total := sp.scratch()
	chunk := len(ls.u) / 8
	e := 0
	for d0 := 0; ; d0 += chunk {
		d1 := min(d0+chunk, total)
		u := ls.u[:(d1-d0)*8]
		ls.gen.Float64s(u)
		if sp.general() {
			e = sp.generalLanes(dst, c, u, d0, d1, e, mirror, ls.load)
		} else {
			e = sp.uniformLanes(dst, c, u, d0, d1, e, mirror)
		}
		if d1 == total {
			return
		}
	}
}

// uniformLanes writes lanes [0, c) of entry e and of every later entry
// until the first whose draw lies at or past d1, the end of the chunk u
// that starts at draw d0, and returns that entry. The draw per pair is
// lo + width·u, the same floating-point expression as
// Workload.SampleDuration / rng.Uniform; a mirrored lane reflects it across
// the interval midpoint as (b + hi) − (b + width·u), the antithetic
// counterpart; a degenerate pair is lo and reads no draw. Eight unmirrored
// lanes run in AVX assembly where the CPU has it; both forms give the same
// bits.
func (sp *sampler) uniformLanes(dst []float64, c int, u []float64, d0, d1, e int, mirror uint8) int {
	if !hasAVX || c != 8 || mirror != 0 {
		return sp.uniformLanesGo(dst, c, u, d0, d1, e, mirror)
	}
	sp.checkLanes(dst, u, d0, d1, sp.width)
	return uniform8AVX(sp.ui, sp.lo, sp.width, u, dst, 8, d0, d1, e)
}

// checkLanes panics unless lo and every table have one value per entry, u
// holds the chunk [d0, d1) and dst the eight lanes of every entry: the
// assembly transforms check no bounds.
func (sp *sampler) checkLanes(dst, u []float64, d0, d1 int, tables ...[]float64) {
	k := len(sp.ui)
	ok := len(sp.lo) == k && len(u) >= (d1-d0)*8 && len(dst) >= k*8
	for _, t := range tables {
		ok = ok && len(t) == k
	}
	if !ok {
		panic("sim: lane transform inputs have inconsistent lengths")
	}
}

// uniformLanesGo is the Go form of uniformLanes and the reference its
// assembly form is tested against.
func (sp *sampler) uniformLanesGo(dst []float64, c int, u []float64, d0, d1, e int, mirror uint8) int {
	for ; e < len(sp.ui); e++ {
		i := int(sp.ui[e])
		if i >= d1 {
			break
		}
		out := dst[e*8:][:c]
		lo := sp.lo[e]
		if i < 0 {
			for l := range out {
				out[l] = lo
			}
			continue
		}
		row := u[(i-d0)*8:][:8]
		w, sum := sp.width[e], sp.sum[e]
		for l := range out {
			v := lo + w*row[l]
			if mirror>>l&1 != 0 {
				v = sum - v
			}
			out[l] = v
		}
	}
	return e
}

// flip returns the antithetic counterpart 1−u of a draw when mirrored.
func flip(u float64, mirrored bool) float64 {
	if mirrored {
		return 1 - u
	}
	return u
}

// generalLanes is uniformLanes for the model extension: any duration model
// combined with any correlation mode, normal or antithetic-mirrored. One
// realization's block is sp.scratch() uniforms — load-factor draws first,
// then one draw per non-degenerate pair — so the draw schedule is a pure
// function of the workload shape and the realization seed, independent of
// worker count, claim size, shard boundaries and the read set. A
// correlated model's block is one chunk (newLanes), so its load-factor
// draws are all in u.
//
// The antithetic mirror is uniform across every model: the mirrored
// realization evaluates the identical transforms at 1−u for every uniform it
// reads. Float64 outputs are dyadic rationals k/2^53, so 1−u is exactly
// representable and the mirror is exact — no rounding asymmetry between a
// realization and its antithetic partner. (The uniform-only path keeps its
// historical midpoint-reflection expression instead; the two paths never
// mix, since this one only runs for non-default Model/Corr.)
//
// load is the lanes' CorrShared scratch, filled from the block's first
// chunk.
//
// Eight unmirrored lanes of the lognormal model under CorrNone run in AVX2
// and FMA assembly where the CPU has both and the init check passed; the
// kernel stops at an entry with a lane outside its fast path (Erfinv's far
// tail, or an Exp argument archExp treats as a special case), which the Go
// loop transforms before the kernel resumes. Both forms give the same
// bits.
func (sp *sampler) generalLanes(dst []float64, c int, u []float64, d0, d1, e int, mirror uint8, load []float64) int {
	if !hasLognormal || sp.model != ModelLognormal || sp.corr != CorrNone || c != 8 || mirror != 0 {
		return sp.generalLanesGo(dst, c, u, d0, d1, e, mirror, load)
	}
	sp.checkLanes(dst, u, d0, d1, sp.mu, sp.sigma)
	for {
		e = lognormal8AVX(sp.ui, sp.lo, sp.mu, sp.sigma, u, dst, 8, d0, d1, e)
		if e == len(sp.ui) || int(sp.ui[e]) >= d1 {
			return e
		}
		// Entry e's draw is in the chunk, so the kernel left it: the Go
		// loop transforms it and the degenerate entries after it.
		e = sp.generalLanesGo(dst, c, u, d0, int(sp.ui[e])+1, e, mirror, load)
	}
}

// generalLanesGo is the Go form of generalLanes and the reference its
// assembly form is tested against.
func (sp *sampler) generalLanesGo(dst []float64, c int, u []float64, d0, d1, e int, mirror uint8, load []float64) int {
	if sp.corr == CorrShared && d0 == 0 {
		for p := 0; p < sp.m; p++ {
			for l := 0; l < c; l++ {
				load[p*8+l] = rng.LogNormalQuantile(sp.loadMu, sp.loadSigma, flip(u[p*8+l], mirror>>l&1 != 0))
			}
		}
	}
	for ; e < len(sp.ui); e++ {
		i := int(sp.ui[e])
		if i >= d1 {
			break
		}
		for l := 0; l < c; l++ {
			mirrored := mirror>>l&1 != 0
			v := sp.lo[e]
			if i >= 0 {
				uu := flip(u[(i-d0)*8+l], mirrored)
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
				v *= load[int(sp.pair[e])%sp.m*8+l]
			case CorrIndep:
				v *= rng.LogNormalQuantile(sp.loadMu, sp.loadSigma, flip(u[int(sp.pair[e])*8+l], mirrored))
			}
			dst[e*8+l] = v
		}
	}
	return e
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
	// worker-independent facts (every run makes claims of the same sizes);
	// only worker_claims reflects the actual racy claim assignment.
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
	// Workers claim B realizations at a time off a shared cursor; since
	// every claim writes a disjoint [lo, hi) realization range, the
	// assignment of claims to workers cannot affect the result.
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < nw; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			durs := make([]float64, len(pairs)*8) // one group's read sets, entry e of lane l at e*8+l
			finish := make([]float64, n*8)
			var out [8]float64
			ls := sp.newLanes()
			claimed := 0
			defer func() { claims.Observe(float64(claimed)) }()
			for {
				lo := int(cursor.Add(int64(B))) - B
				if lo >= R {
					return
				}
				claimed++
				hi := min(lo+B, R)
				occupancy.Observe(float64(hi - lo))
				for g := lo; g < hi; g += 8 {
					c := min(8, hi-g)
					sp.sample(durs, seeds[g:g+c], mirrorLanes(opt.Antithetic, base+g, c), ls)
					// Schedule j reads task t's durations from the read-set
					// entry gather[j*n+t] names.
					for j, s := range ss {
						s.MakespanBatchIndexed(durs, gather[j*n:j*n+n], finish, out[:])
						copy(mks[j][g:g+c], out[:c])
					}
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
	for range min(opt.workers(), (len(seeds)+7)/8) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			durs := platform.NewMatrix(n, m)
			flat := make([]float64, n*m*8) // eight sampled matrices, pair k of lane l at k*8+l
			ls := sp.newLanes()
			for k0 := int(cursor.Add(8)) - 8; k0 < len(seeds); k0 = int(cursor.Add(8)) - 8 {
				c := min(8, len(seeds)-k0)
				sp.sample(flat, seeds[k0:k0+c], mirrorLanes(opt.Antithetic, k0, c), ls)
				for l := 0; l < c; l++ {
					for t := 0; t < n; t++ {
						row := durs.Row(t)
						for p := range row {
							row[p] = flat[(t*m+p)*8+l]
						}
					}
					errs[k0+l] = fn(k0+l, durs)
				}
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
	return MetricsAll(ss, mks, opt.Deadline), nil
}

// MetricsAll assembles the metrics of every schedule from its realized
// makespans, mks[j] for ss[j], as RealizeAll returns them; deadline <= 0
// disables the deadline miss rate. It selects the quantiles in place, so
// it reorders every vector of mks: EvaluateAll and the sharded evaluation
// pass vectors they own, and a caller that keeps its sample uses
// MetricsFromSamples.
func MetricsAll(ss []*schedule.Schedule, mks [][]float64, deadline float64) []Metrics {
	out := make([]Metrics, len(ss))
	for j, s := range ss {
		out[j] = metricsOf(s.Makespan(), mks[j], deadline)
	}
	return out
}

// quantileIndex returns the index of the exact empirical p-quantile in a
// sorted sample of n values: the smallest sampled value x such that at
// least a p fraction of the samples are <= x, sorted[ceil(p·n)−1].
func quantileIndex(n int, p float64) int {
	return max(0, min(int(math.Ceil(p*float64(n)))-1, n-1))
}

// floatLess is the order of sort.Float64s: NaN before every other value.
func floatLess(a, b float64) bool { return a < b || (a != a && b == b) }

// selectNth returns the value sort.Float64s would place at index k of x,
// and reorders x so that no value of x[:k] orders after it and none of
// x[k+1:] before it. It partitions around a median-of-three pivot (Hoare's
// FIND) and sorts what is left of the range after 2·log2(n) rounds, which
// bounds the worst case at a sort's cost.
func selectNth(x []float64, k int) float64 {
	lo, hi := 0, len(x)-1
	for budget := 2 * bits.Len(uint(len(x))); lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(x[lo : hi+1])
			break
		}
		m := lo + (hi-lo)/2
		if floatLess(x[m], x[lo]) {
			x[m], x[lo] = x[lo], x[m]
		}
		if floatLess(x[hi], x[lo]) {
			x[hi], x[lo] = x[lo], x[hi]
		}
		if floatLess(x[hi], x[m]) {
			x[hi], x[m] = x[m], x[hi]
		}
		p := x[m]
		i, j := lo, hi
		for i <= j {
			for floatLess(x[i], p) {
				i++
			}
			for floatLess(p, x[j]) {
				j--
			}
			if i <= j {
				x[i], x[j] = x[j], x[i]
				i++
				j--
			}
		}
		// x[lo:j+1] orders at or before p, x[i:hi+1] at or after it, and
		// whatever lies between equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return x[k]
		}
	}
	return x[k]
}

// MetricsFromSamples assembles the full metric set from an explicit slice
// of realized makespans against the planned makespan m0. The quantiles are
// exact order statistics of the sample. Other simulators (e.g. the dynamic
// online baseline and the runtime-repair comparator) use this to report
// results comparable to Evaluate's. deadline <= 0 disables the deadline
// miss rate. makespans is left as it was.
func MetricsFromSamples(m0 float64, makespans []float64, deadline float64) Metrics {
	return metricsOf(m0, append([]float64(nil), makespans...), deadline)
}

// metricsOf is MetricsFromSamples on a sample it may reorder: it folds the
// sample into the scalar statistics in realization order, then selects
// P50, P95 among the values above P50, and P99 among those above P95.
func metricsOf(m0 float64, makespans []float64, deadline float64) Metrics {
	a := newAccum()
	a.deadline = deadline
	for _, m := range makespans {
		a.add(m, m0)
	}
	out := a.metrics(m0)
	if n := len(makespans); n > 0 {
		k50, k95, k99 := quantileIndex(n, 0.50), quantileIndex(n, 0.95), quantileIndex(n, 0.99)
		out.P50 = selectNth(makespans, k50)
		out.P95 = selectNth(makespans[k50:], k95-k50)
		out.P99 = selectNth(makespans[k95:], k99-k95)
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
	return selectNth(makespans, quantileIndex(len(makespans), confidence)), nil
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
