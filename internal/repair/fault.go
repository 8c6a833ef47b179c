// Fault-aware execution: this file extends the event-driven executor to
// play a static schedule against a realized duration matrix *and* a fault
// scenario (internal/fault). A task running on a processor that fails
// permanently or suffers a transient outage is killed and retried at once,
// up to MaxRetries times: each kill re-plans every unstarted task with the
// same EFT re-planner the reactive policy uses, onto the processors still
// alive. An optional graceful-degradation mode drops non-critical tasks
// whose start slips past DropFactor·M0 (à la Mokhtari et al.'s autonomous
// task dropping) and the run reports a completion fraction instead of
// failing.
//
// Under an empty scenario ExecuteFaults is plain right-shift / reactive
// execution, and Execute is exactly that call; fault_test.go holds it bit
// for bit to a reference copy of the fault-oblivious event loop.
package repair

import (
	"fmt"
	"math"

	"robsched/internal/fault"
	"robsched/internal/heft"
	"robsched/internal/obs"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/schedule"
	"robsched/internal/sim"
)

// FaultPolicy configures fault-aware execution: the embedded reactive-
// reschedule Policy (use NeverReschedule for pure right-shift), the retry
// bound, and graceful degradation.
type FaultPolicy struct {
	Policy
	// MaxRetries is the number of re-attempts a task may consume after
	// kills; once exceeded the task is abandoned (dropped under graceful
	// degradation, otherwise the run is marked failed). A killed task
	// retries at once: every unstarted task is re-planned (EFT over
	// expected durations, alive processors only), so the killed task can
	// move off the faulty processor.
	MaxRetries int
	// DropFactor d > 0 enables graceful degradation: a non-critical task
	// (planned slack > 0) whose earliest feasible start exceeds d·M0 is
	// dropped rather than executed, and abandoned tasks count as drops
	// instead of failing the run. 0 disables dropping.
	DropFactor float64

	// Obs, if non-nil, receives executor telemetry: the counters
	// repair.executions, repair.kills, repair.retries, repair.migrations,
	// repair.drops, repair.abandons and repair.reschedules. The totals are
	// deterministic for a fixed evaluation (per-realization streams are
	// seeded sequentially), independent of worker count. Nil disables with
	// zero overhead.
	Obs *obs.Registry
	// Trace, if non-nil, receives one structured event per fault-handling
	// decision — repair/kill, repair/retry, repair/migrate, repair/drop,
	// repair/abandon and repair/reschedule — each carrying task, processor
	// and simulated-time attribution. Events from concurrently evaluated
	// realizations interleave in wall-clock order.
	Trace *obs.Tracer
}

// DefaultFaultPolicy is right-shift execution with two retries and no
// dropping — the configuration the CLI starts from.
func DefaultFaultPolicy() FaultPolicy {
	return FaultPolicy{Policy: NeverReschedule(), MaxRetries: 2}
}

// Validate checks the policy, reporting *PolicyError.
func (pol FaultPolicy) Validate() error {
	if pol.Threshold < 0 || math.IsNaN(pol.Threshold) {
		return &PolicyError{"Threshold", fmt.Sprintf("%g must be >= 0", pol.Threshold)}
	}
	if pol.MaxRetries < 0 {
		return &PolicyError{"MaxRetries", fmt.Sprintf("%d must be >= 0", pol.MaxRetries)}
	}
	if pol.DropFactor < 0 || math.IsNaN(pol.DropFactor) || math.IsInf(pol.DropFactor, 0) {
		return &PolicyError{"DropFactor", fmt.Sprintf("%g must be finite and >= 0", pol.DropFactor)}
	}
	return nil
}

// FaultOutcome is one simulated execution under faults. Start/Finish/Proc
// are meaningful for completed tasks only; Makespan is the latest finish
// among completed tasks.
type FaultOutcome struct {
	Outcome
	// Completed marks the tasks that ran to completion.
	Completed []bool
	// Dropped lists tasks abandoned under graceful degradation (their
	// descendants cascade here too); Unfinished lists tasks abandoned
	// without degradation enabled, in which case Failed is set.
	Dropped    []int
	Unfinished []int
	Failed     bool
	// Kills counts work-losing fault hits; Retries the re-attempts they
	// triggered; Migrations the retry attempts that started on a different
	// processor than the previous attempt.
	Kills      int
	Retries    int
	Migrations int
	// CompletionFraction is completed tasks / n.
	CompletionFraction float64
}

// ExecuteFaults plays the realized duration matrix against the schedule
// under the fault scenario and policy. With fault.None() and no drop
// setting it is Execute.
func ExecuteFaults(s *schedule.Schedule, durs platform.Matrix, sc fault.Scenario, pol FaultPolicy) (FaultOutcome, error) {
	return executeFaults(s, durs, sc, pol, nil)
}

// executeFaults is ExecuteFaults given the workload's upward ranks, which
// only a re-plan reads. The evaluators compute them once per evaluation;
// nil computes them at the first re-plan, so right-shift execution never
// does.
func executeFaults(s *schedule.Schedule, durs platform.Matrix, sc fault.Scenario, pol FaultPolicy, ranks []float64) (FaultOutcome, error) {
	w := s.Workload()
	n, m := w.N(), w.M()
	if durs.Rows() != n || durs.Cols() != m {
		return FaultOutcome{}, fmt.Errorf("repair: duration matrix is %dx%d, want %dx%d", durs.Rows(), durs.Cols(), n, m)
	}
	if err := pol.Validate(); err != nil {
		return FaultOutcome{}, err
	}
	if err := sc.Validate(); err != nil {
		return FaultOutcome{}, err
	}
	if sc.M != 0 && sc.M != m {
		return FaultOutcome{}, &fault.ValidationError{Field: "M", Reason: fmt.Sprintf("scenario is for %d processors, platform has %d", sc.M, m)}
	}
	window := pol.Threshold * s.Makespan()
	dropAfter := pol.DropFactor * s.Makespan()
	critTol := 1e-9 * (1 + s.Makespan())

	// Telemetry handles (nil-safe no-ops when observability is off). The
	// instrumentation only records decisions already taken — it cannot
	// perturb the executor's floating-point sequence.
	tsc := pol.Trace.Scope("repair")
	cKills := pol.Obs.Counter("repair.kills")
	cRetries := pol.Obs.Counter("repair.retries")
	cMigrations := pol.Obs.Counter("repair.migrations")
	cDrops := pol.Obs.Counter("repair.drops")
	cAbandons := pol.Obs.Counter("repair.abandons")
	cResched := pol.Obs.Counter("repair.reschedules")
	pol.Obs.Counter("repair.executions").Inc()

	out := FaultOutcome{
		Outcome: Outcome{
			Proc:   s.ProcAssignment(),
			Start:  make([]float64, n),
			Finish: make([]float64, n),
		},
		Completed: make([]bool, n),
	}
	queues := make([][]int, m)
	for p := 0; p < m; p++ {
		queues[p] = s.ProcOrder(p)
	}
	planned := make([]float64, n)
	for v := 0; v < n; v++ {
		planned[v] = s.Finish(v)
	}
	completed := out.Completed
	remainingPreds := make([]int, n)
	for v := 0; v < n; v++ {
		remainingPreds[v] = w.G.InDegree(v)
	}
	procFree := make([]float64, m)

	// The fault bookkeeping: each task's earliest restart after a kill, its
	// kills, the processor its last killed attempt ran on, and whether it
	// was abandoned. A run that never kills, abandons or re-plans — right
	// shift under an empty scenario — never reads it, so it is allocated
	// at the first of those.
	var (
		notBefore []float64
		attempts  []int
		lastProc  []int
		abandoned []bool
	)
	book := func() {
		if abandoned == nil {
			notBefore, attempts = make([]float64, n), make([]int, n)
			lastProc, abandoned = make([]int, n), make([]bool, n)
		}
	}
	nAbandoned := 0

	// abandon removes v (and, transitively, every descendant that can now
	// never become ready) from the run.
	var abandon func(v int)
	abandon = func(v int) {
		book()
		if abandoned[v] || completed[v] {
			return
		}
		abandoned[v] = true
		nAbandoned++
		if pol.DropFactor > 0 {
			out.Dropped = append(out.Dropped, v)
			cDrops.Inc()
			tsc.Event("drop", obs.F("task", float64(v)))
		} else {
			out.Unfinished = append(out.Unfinished, v)
			out.Failed = true
			cAbandons.Inc()
			tsc.Event("abandon", obs.F("task", float64(v)))
		}
		for _, a := range w.G.Successors(v) {
			abandon(a.To)
		}
	}
	// aliveAt masks the processors that have not permanently failed by t.
	aliveAt := func(t float64) ([]bool, bool) {
		alive := make([]bool, m)
		any := false
		for p := 0; p < m; p++ {
			if sc.Alive(p, t) {
				alive[p] = true
				any = true
			}
		}
		return alive, any
	}
	replanFault := func(now float64) bool {
		alive, any := aliveAt(now)
		if !any {
			return false
		}
		if ranks == nil {
			ranks = heft.UpwardRanks(w)
		}
		book()
		replanWith(w, ranks, completed, abandoned, alive, notBefore, out.Outcome, procFree, queues, planned)
		return true
	}

	done := 0
	stalled := false // one re-plan already spent on the current stall
	for done+nAbandoned < n {
		// Drop abandoned tasks off the queue heads so the scan below only
		// sees live work.
		for p := 0; p < m && nAbandoned > 0; p++ {
			for len(queues[p]) > 0 && abandoned[queues[p][0]] {
				queues[p] = queues[p][1:]
			}
		}
		// Among processor-queue heads whose predecessors are all completed,
		// execute the one with the earliest feasible start. Heads whose
		// processor can never run them again (dead by their earliest start)
		// are collected as stuck.
		bestProc, bestStart := -1, math.Inf(1)
		var stuck []int
		for p := 0; p < m; p++ {
			if len(queues[p]) == 0 {
				continue
			}
			v := queues[p][0]
			if remainingPreds[v] > 0 {
				continue
			}
			start := procFree[p]
			for _, a := range w.G.Predecessors(v) {
				u := a.To
				if t := out.Finish[u] + w.Sys.CommCost(out.Proc[u], p, a.Data); t > start {
					start = t
				}
			}
			if notBefore != nil && notBefore[v] > start {
				start = notBefore[v]
			}
			start = sc.NextStart(p, start)
			if math.IsInf(start, 1) {
				stuck = append(stuck, p)
				continue
			}
			if start < bestStart {
				bestProc, bestStart = p, start
			}
		}
		if bestProc < 0 {
			if len(stuck) == 0 {
				return FaultOutcome{}, fmt.Errorf("repair: execution stalled with %d tasks left (plan inconsistency)", n-done-nAbandoned)
			}
			// Every runnable head sits on a processor that is dead by the
			// time the task could start. Spend one re-plan per stall; if
			// that does not unstick the run, abandon the stuck heads —
			// they have nowhere to go.
			if !stalled {
				now := 0.0
				for p := 0; p < m; p++ {
					if sc.Alive(p, procFree[p]) && procFree[p] > now {
						now = procFree[p]
					}
				}
				if replanFault(now) {
					stalled = true
					continue
				}
			}
			for _, p := range stuck {
				abandon(queues[p][0])
			}
			stalled = false
			continue
		}
		stalled = false
		v := queues[bestProc][0]
		// Graceful degradation: a non-critical task whose feasible start
		// slipped past d·M0 is dropped instead of executed.
		if pol.DropFactor > 0 && bestStart > dropAfter && s.Slack(v) > critTol {
			abandon(v)
			continue
		}
		queues[bestProc] = queues[bestProc][1:]
		if attempts != nil && attempts[v] > 0 && bestProc != lastProc[v] {
			out.Migrations++
			cMigrations.Inc()
			tsc.Event("migrate",
				obs.F("task", float64(v)),
				obs.F("from", float64(lastProc[v])),
				obs.F("to", float64(bestProc)),
				obs.F("time", bestStart),
			)
		}
		fin, killed, killTime := sc.Run(bestProc, bestStart, durs.At(v, bestProc))
		if killed {
			book()
			lastProc[v] = bestProc
			out.Kills++
			cKills.Inc()
			tsc.Event("kill",
				obs.F("task", float64(v)),
				obs.F("proc", float64(bestProc)),
				obs.F("time", killTime),
			)
			procFree[bestProc] = killTime
			attempts[v]++
			if attempts[v] > pol.MaxRetries {
				abandon(v)
				continue
			}
			out.Retries++
			notBefore[v] = killTime
			cRetries.Inc()
			tsc.Event("retry",
				obs.F("task", float64(v)),
				obs.F("attempt", float64(attempts[v])),
				obs.F("not_before", notBefore[v]),
			)
			if !replanFault(killTime) {
				abandon(v) // no processor left alive
			}
			continue
		}
		out.Start[v] = bestStart
		out.Finish[v] = fin
		out.Proc[v] = bestProc
		procFree[bestProc] = fin
		completed[v] = true
		done++
		for _, a := range w.G.Successors(v) {
			remainingPreds[a.To]--
		}
		if fin > out.Makespan {
			out.Makespan = fin
		}
		// Repair trigger: the observed finish ran past the plan by more
		// than the window. With every processor dead by then there is
		// nothing to plan onto; the stall handling above abandons the rest.
		if !math.IsInf(pol.Threshold, 1) && fin-planned[v] > window && done+nAbandoned < n && replanFault(fin) {
			out.Reschedules++
			cResched.Inc()
			tsc.Event("reschedule",
				obs.F("task", float64(v)),
				obs.F("time", fin),
				obs.F("overrun", fin-planned[v]),
			)
		}
	}
	out.CompletionFraction = float64(done) / float64(n)
	return out, nil
}

// FaultMetrics extends the repair metrics with fault statistics averaged
// over the realizations.
type FaultMetrics struct {
	Metrics
	MeanRetries    float64
	MeanMigrations float64
	MeanDropped    float64
	// MeanCompletion is the average completion fraction; FailRate the
	// fraction of realizations that ended with unfinished tasks (always 0
	// when graceful degradation is on).
	MeanCompletion float64
	FailRate       float64
}

// EvaluateFaults Monte-Carlo evaluates the schedule under the fault policy:
// each realization samples a fresh duration matrix through sim.Durations
// (every duration model, correlation mode and antithetic pairing applies)
// and draws a scenario from the sampler over the given horizon of simulated
// time (<= 0 defaults to 4·M0). The root draws a duration seed and a
// scenario seed per realization, in that order; under Options.Antithetic
// the odd realization of a pair reuses its partner's duration seed instead
// of drawing one, as sim.SeedVector pairs do. Realizations fan out across
// opt.Workers goroutines and results are folded in realization order, so
// all outputs — retries, migrations, drops and the makespan distribution —
// are identical for every worker count.
//
// Makespans of partially completed runs cover the completed tasks only;
// MeanCompletion and FailRate report how much work those runs shed.
func EvaluateFaults(s *schedule.Schedule, pol FaultPolicy, src fault.Sampler, horizon float64, opt sim.Options, root *rng.Source) (FaultMetrics, error) {
	if err := opt.Validate(); err != nil {
		return FaultMetrics{}, err
	}
	if err := pol.Validate(); err != nil {
		return FaultMetrics{}, err
	}
	if math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		return FaultMetrics{}, &PolicyError{"horizon", fmt.Sprintf("%g must be finite", horizon)}
	}
	if horizon <= 0 {
		horizon = 4 * s.Makespan()
	}
	if pol.Trace != nil {
		defer pol.Trace.Scope("repair").Span("evaluate_faults",
			obs.F("realizations", float64(opt.Realizations)),
			obs.F("horizon", horizon),
		)()
	}
	w := s.Workload()
	ranks := heft.UpwardRanks(w)
	R := opt.Realizations
	durSeeds := make([]uint64, R)
	scenSeeds := make([]uint64, R)
	for k := range durSeeds {
		if opt.Antithetic && k%2 == 1 {
			durSeeds[k] = durSeeds[k-1]
		} else {
			durSeeds[k] = root.Uint64()
		}
		scenSeeds[k] = root.Uint64()
	}
	outs := make([]FaultOutcome, R)
	err := sim.Durations(w, opt, durSeeds, func(k int, durs platform.Matrix) error {
		sc, err := src.Scenario(w.M(), horizon, rng.New(scenSeeds[k]))
		if err != nil {
			return err
		}
		outs[k], err = executeFaults(s, durs, sc, pol, ranks)
		return err
	})
	if err != nil {
		return FaultMetrics{}, err
	}
	makespans := make([]float64, R)
	var fm FaultMetrics
	totalResched := 0
	for k, o := range outs {
		makespans[k] = o.Makespan
		totalResched += o.Reschedules
		fm.MeanRetries += float64(o.Retries)
		fm.MeanMigrations += float64(o.Migrations)
		fm.MeanDropped += float64(len(o.Dropped))
		fm.MeanCompletion += o.CompletionFraction
		if o.Failed {
			fm.FailRate++
		}
	}
	rf := float64(R)
	fm.MeanRetries /= rf
	fm.MeanMigrations /= rf
	fm.MeanDropped /= rf
	fm.MeanCompletion /= rf
	fm.FailRate /= rf
	fm.Metrics = Metrics{
		Metrics:         sim.MetricsFromSamples(s.Makespan(), makespans, opt.Deadline),
		MeanReschedules: float64(totalResched) / rf,
	}
	return fm, nil
}
