// Package fault models processor faults for the robustness evaluation:
// the paper only perturbs task *durations* (c_ij ~ U(b_ij, (2·UL_ij−1)·b_ij)),
// but real heterogeneous platforms also lose and degrade processors. A
// Scenario is a deterministic, replayable description of what happens to
// each processor over simulated time:
//
//   - a permanent fail-stop failure at time FailAt[p] (the processor dies
//     and never recovers; work running at that instant is killed);
//   - transient outages [Start, End): the processor is unavailable, a task
//     running when the outage begins is killed (fail-stop with reboot —
//     partial work is lost), and no task may start inside the interval;
//   - straggler slowdowns [Start, End) with Factor ≥ 1: work progresses at
//     rate 1/Factor during the interval — the task is not killed, it just
//     takes longer (degraded, not dead).
//
// Scenarios are sampled from Model (per-processor exponential hazards, the
// classic reliability assumption of the NSGA-II reliability-cost literature)
// through deterministic rng streams, or loaded from JSON via internal/wio,
// so a fault run is fully reproducible from (seed, scenario file). Model
// samples failures and outages; slowdowns come from scenario files.
//
// The timeline engine (NextStart, Run) is written so that a processor with
// no events takes a fast path returning the exact same floating-point
// values as fault-oblivious execution — the fault-aware executor in
// internal/repair is bit-identical to the plain one under an empty
// scenario.
//
// The same vocabulary doubles as the distribution runtime's chaos model:
// internal/dist's tests wrap each coordinator↔worker connection in a two-
// "processor" Scenario (one per link direction), so outages become frame
// stalls and failures become dropped connections — sampled by the same
// Model, replayable from the same seeds.
package fault

import (
	"fmt"
	"math"

	"robsched/internal/rng"
)

// ValidationError reports an invalid field of a Scenario or Model. It is
// the typed error returned by every validation path of this package, so
// callers can distinguish malformed fault inputs from execution errors.
type ValidationError struct {
	Field  string
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("fault: %s: %s", e.Field, e.Reason)
}

// Interval is a half-open unavailability window [Start, End) of a
// processor.
type Interval struct {
	Start float64
	End   float64
}

// Slowdown is a half-open degradation window [Start, End) during which the
// processor executes work at rate 1/Factor (Factor ≥ 1).
type Slowdown struct {
	Start  float64
	End    float64
	Factor float64
}

// Scenario is one realized fault timeline for an m-processor platform.
// The zero value is the empty scenario (no faults on any platform size).
// Per-processor lists must be sorted by Start and pairwise disjoint; Build
// in internal/wio sorts on load, Model sampling produces them sorted.
type Scenario struct {
	// M is the number of processors the scenario was built for; 0 marks
	// the empty scenario, valid for any platform.
	M int
	// FailAt[p] is the permanent fail-stop time of processor p; +Inf (or a
	// nil slice) means the processor never fails permanently.
	FailAt []float64
	// Outages[p] lists the transient unavailability intervals of p.
	Outages [][]Interval
	// Slowdowns[p] lists the degradation intervals of p.
	Slowdowns [][]Slowdown
}

// None returns the empty scenario, valid for any platform size.
func None() Scenario { return Scenario{} }

// Empty reports whether the scenario contains no fault events at all.
func (sc *Scenario) Empty() bool {
	for _, t := range sc.FailAt {
		if !math.IsInf(t, 1) {
			return false
		}
	}
	for _, list := range sc.Outages {
		if len(list) > 0 {
			return false
		}
	}
	for _, list := range sc.Slowdowns {
		if len(list) > 0 {
			return false
		}
	}
	return true
}

// Validate checks internal consistency: slice lengths match M, times are
// finite (FailAt may be +Inf), non-negative and ordered, intervals are
// disjoint and slowdown factors are ≥ 1. All failures are reported as
// *ValidationError.
func (sc *Scenario) Validate() error {
	if sc.M < 0 {
		return &ValidationError{"M", fmt.Sprintf("%d must be >= 0", sc.M)}
	}
	if sc.M == 0 {
		if len(sc.FailAt) != 0 || len(sc.Outages) != 0 || len(sc.Slowdowns) != 0 {
			return &ValidationError{"M", "empty scenario (M=0) must carry no events"}
		}
		return nil
	}
	if len(sc.FailAt) != 0 && len(sc.FailAt) != sc.M {
		return &ValidationError{"FailAt", fmt.Sprintf("has %d entries for %d processors", len(sc.FailAt), sc.M)}
	}
	for p, t := range sc.FailAt {
		if math.IsNaN(t) || t < 0 {
			return &ValidationError{"FailAt", fmt.Sprintf("processor %d fails at invalid time %g", p, t)}
		}
	}
	if len(sc.Outages) != 0 && len(sc.Outages) != sc.M {
		return &ValidationError{"Outages", fmt.Sprintf("has %d lists for %d processors", len(sc.Outages), sc.M)}
	}
	for p, list := range sc.Outages {
		prevEnd := 0.0
		for i, iv := range list {
			switch {
			case math.IsNaN(iv.Start) || math.IsNaN(iv.End) || math.IsInf(iv.Start, 0) || math.IsInf(iv.End, 0):
				return &ValidationError{"Outages", fmt.Sprintf("processor %d interval %d is not finite", p, i)}
			case iv.Start < 0 || iv.End <= iv.Start:
				return &ValidationError{"Outages", fmt.Sprintf("processor %d interval %d [%g,%g) is not a positive window", p, i, iv.Start, iv.End)}
			case iv.Start < prevEnd:
				return &ValidationError{"Outages", fmt.Sprintf("processor %d interval %d overlaps or is out of order", p, i)}
			}
			prevEnd = iv.End
		}
	}
	if len(sc.Slowdowns) != 0 && len(sc.Slowdowns) != sc.M {
		return &ValidationError{"Slowdowns", fmt.Sprintf("has %d lists for %d processors", len(sc.Slowdowns), sc.M)}
	}
	for p, list := range sc.Slowdowns {
		prevEnd := 0.0
		for i, sl := range list {
			switch {
			case math.IsNaN(sl.Start) || math.IsNaN(sl.End) || math.IsInf(sl.Start, 0) || math.IsInf(sl.End, 0):
				return &ValidationError{"Slowdowns", fmt.Sprintf("processor %d interval %d is not finite", p, i)}
			case sl.Start < 0 || sl.End <= sl.Start:
				return &ValidationError{"Slowdowns", fmt.Sprintf("processor %d interval %d [%g,%g) is not a positive window", p, i, sl.Start, sl.End)}
			case sl.Start < prevEnd:
				return &ValidationError{"Slowdowns", fmt.Sprintf("processor %d interval %d overlaps or is out of order", p, i)}
			case math.IsNaN(sl.Factor) || math.IsInf(sl.Factor, 0) || sl.Factor < 1:
				return &ValidationError{"Slowdowns", fmt.Sprintf("processor %d factor %g must be a finite value >= 1", p, sl.Factor)}
			}
			prevEnd = sl.End
		}
	}
	return nil
}

// failTime returns the permanent failure time of p (+Inf if never).
func (sc *Scenario) failTime(p int) float64 {
	if len(sc.FailAt) == 0 {
		return math.Inf(1)
	}
	return sc.FailAt[p]
}

// outages returns p's outage list (nil when none).
func (sc *Scenario) outages(p int) []Interval {
	if len(sc.Outages) == 0 {
		return nil
	}
	return sc.Outages[p]
}

// slowdowns returns p's slowdown list (nil when none).
func (sc *Scenario) slowdowns(p int) []Slowdown {
	if len(sc.Slowdowns) == 0 {
		return nil
	}
	return sc.Slowdowns[p]
}

// Alive reports whether processor p has not permanently failed by time t
// (a processor is dead at and after its FailAt instant).
func (sc *Scenario) Alive(p int, t float64) bool {
	return t < sc.failTime(p)
}

// NextStart returns the earliest instant >= t at which processor p can
// begin executing work: outside every outage interval and strictly before
// the permanent failure. It returns +Inf when p can never start again.
// For a processor with no events this is the identity — the fast path that
// keeps fault-aware execution bit-identical to plain execution under an
// empty scenario.
func (sc *Scenario) NextStart(p int, t float64) float64 {
	fail := sc.failTime(p)
	for _, iv := range sc.outages(p) {
		if iv.End <= t {
			continue
		}
		if iv.Start <= t {
			t = iv.End
		}
		// Intervals are sorted; once one starts after t, later ones do too.
		if iv.Start > t {
			break
		}
	}
	if t >= fail {
		return math.Inf(1)
	}
	return t
}

// Run executes work units of base duration on processor p from start
// (which must be a NextStart-feasible instant). It returns the finish
// time, walking the slowdown timeline at rate 1/Factor inside degradation
// windows. killed is true when the next outage or the permanent failure
// arrives before completion; the work done up to killTime is lost.
// A task finishing exactly at a kill boundary completes.
//
// For a processor with no slowdowns the finish is computed as start+work,
// the exact floating-point expression of fault-oblivious execution.
func (sc *Scenario) Run(p int, start, work float64) (finish float64, killed bool, killTime float64) {
	// The earliest instant that would kill the task: the next outage start
	// strictly after start, or the permanent failure.
	kill := sc.failTime(p)
	for _, iv := range sc.outages(p) {
		if iv.Start > start {
			if iv.Start < kill {
				kill = iv.Start
			}
			break
		}
	}
	finish = start + work
	if slows := sc.slowdowns(p); len(slows) > 0 {
		t, remaining := start, work
		for _, sl := range slows {
			if sl.End <= t {
				continue
			}
			if sl.Start > t {
				// Full-rate segment before the slowdown.
				seg := sl.Start - t
				if remaining <= seg {
					t += remaining
					remaining = 0
					break
				}
				t = sl.Start
				remaining -= seg
			}
			// Degraded segment: rate 1/Factor.
			segWork := (sl.End - t) / sl.Factor
			if remaining <= segWork {
				t += remaining * sl.Factor
				remaining = 0
				break
			}
			t = sl.End
			remaining -= segWork
		}
		finish = t + remaining
	}
	if finish > kill {
		return kill, true, kill
	}
	return finish, false, 0
}

// Sampler produces one scenario per Monte-Carlo realization. Model samples
// fresh timelines from a deterministic stream; Fixed replays one scenario.
type Sampler interface {
	// Scenario returns a fault timeline for an m-processor platform over
	// the given horizon of simulated time, drawing only from r.
	Scenario(m int, horizon float64, r *rng.Source) (Scenario, error)
}

// Model parameterizes random fault scenarios: per-processor exponential
// hazards for permanent failures and Poisson arrivals of transient outages
// with exponential lengths. The zero value generates empty scenarios.
type Model struct {
	// MTBF is the mean time to permanent fail-stop failure of each
	// processor (exponential hazard). 0 disables permanent failures.
	MTBF float64
	// OutageEvery is the mean gap between transient outages per processor
	// (Poisson arrivals); 0 disables outages. OutageMean is the mean
	// outage length (exponential).
	OutageEvery float64
	OutageMean  float64
	// KeepOne, when set, guarantees at least one processor survives: if
	// every processor drew a permanent failure inside the horizon, the
	// latest failure is cancelled.
	KeepOne bool
}

// Validate checks the model parameters, reporting *ValidationError.
func (mo Model) Validate() error {
	check := func(field string, v float64, allowZero bool) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || (!allowZero && v == 0) {
			return &ValidationError{field, fmt.Sprintf("%g must be a finite value > 0", v)}
		}
		return nil
	}
	if err := check("MTBF", mo.MTBF, true); err != nil {
		return err
	}
	if err := check("OutageEvery", mo.OutageEvery, true); err != nil {
		return err
	}
	if mo.OutageEvery > 0 {
		if err := check("OutageMean", mo.OutageMean, false); err != nil {
			return err
		}
	}
	return nil
}

// Scenario samples one fault timeline for m processors over the horizon.
// The draw sequence is fixed (per processor: failure, then outages), so
// the same (m, horizon, stream) triple always regenerates the same
// scenario regardless of which model features are enabled elsewhere.
func (mo Model) Scenario(m int, horizon float64, r *rng.Source) (Scenario, error) {
	if err := mo.Validate(); err != nil {
		return Scenario{}, err
	}
	if m < 1 {
		return Scenario{}, &ValidationError{"m", fmt.Sprintf("%d must be >= 1", m)}
	}
	if math.IsNaN(horizon) || math.IsInf(horizon, 0) || horizon <= 0 {
		return Scenario{}, &ValidationError{"horizon", fmt.Sprintf("%g must be a finite value > 0", horizon)}
	}
	sc := Scenario{M: m}
	for p := 0; p < m; p++ {
		fail := math.Inf(1)
		if mo.MTBF > 0 {
			if t := r.Exp(1 / mo.MTBF); t < horizon {
				fail = t
			}
		}
		sc.FailAt = append(sc.FailAt, fail)
		var outs []Interval
		if mo.OutageEvery > 0 {
			t := 0.0
			for {
				t += r.Exp(1 / mo.OutageEvery)
				if t >= horizon {
					break
				}
				d := r.Exp(1 / mo.OutageMean)
				outs = append(outs, Interval{Start: t, End: t + d})
				t += d
			}
		}
		sc.Outages = append(sc.Outages, outs)
	}
	if mo.KeepOne {
		last, lastAt := -1, math.Inf(-1)
		allFail := true
		for p, t := range sc.FailAt {
			if math.IsInf(t, 1) {
				allFail = false
				break
			}
			if t > lastAt {
				last, lastAt = p, t
			}
		}
		if allFail && last >= 0 {
			sc.FailAt[last] = math.Inf(1)
		}
	}
	return sc, nil
}

// Fixed replays one scenario for every realization (durations still vary),
// the replayable-artifact mode: the scenario typically comes from a JSON
// file written by internal/wio.
type Fixed struct {
	S Scenario
}

// Scenario returns the fixed scenario after validating it against the
// platform size. The empty scenario matches any platform.
func (f Fixed) Scenario(m int, _ float64, _ *rng.Source) (Scenario, error) {
	if err := f.S.Validate(); err != nil {
		return Scenario{}, err
	}
	if f.S.M != 0 && f.S.M != m {
		return Scenario{}, &ValidationError{"M", fmt.Sprintf("scenario is for %d processors, platform has %d", f.S.M, m)}
	}
	return f.S, nil
}
