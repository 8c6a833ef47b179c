// Package scenario is the named scenario-family registry behind the CLIs'
// -scenario flag: the cross product of workflow families (the paper's
// layered-random generator plus the Montage / Epigenomics / CyberShake
// shapes of internal/gen) and duration models (the paper's uniform model,
// lognormal and bounded-Pareto heavy tails, and correlated per-processor
// load — internal/sim's model extension).
//
// A Scenario bundles exactly the two decisions an experiment must make —
// which workload to generate and which uncertainty model to evaluate it
// under — so figure sweeps, fault-resilience runs and benchmarks can be
// re-run per family by name instead of growing ad-hoc flag sets. The
// default scenario, "random-uniform", reproduces the paper's path
// bit-identically: it generates through gen.Random and applies zero-valued
// sim options.
package scenario

import (
	"fmt"
	"strings"

	"robsched/internal/gen"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/sim"
)

// Default parameters of the non-paper duration models: a 0.3-COV shared
// load factor is a moderately loaded cluster (busy enough to break the
// independence assumption measurably), and tail index 1.5 is the classic
// heavy tail (infinite variance before truncation).
const (
	DefaultLoadCOV     = 0.3
	DefaultParetoShape = 1.5
)

// Scenario is one named (workload family, duration model) pair.
type Scenario struct {
	// Name is the registry key, "<family>-<model>".
	Name string
	// Family is the workload generator: "random" (the paper's layered
	// generator) or a gen workflow shape ("montage", "epigenomics",
	// "cybershake").
	Family string
	// Model, Corr, LoadCOV and ParetoShape are the sim.Options overlay of
	// the scenario's duration model.
	Model       sim.DurationModel
	Corr        sim.Correlation
	LoadCOV     float64
	ParetoShape float64
}

// Families lists the workload families, paper generator first.
func Families() []string {
	return append([]string{"random"}, gen.WorkflowShapes()...)
}

// Models lists the duration-model names: the paper's independent uniform
// model, the two heavy tails, and correlated per-processor load (uniform
// marginals, CorrShared dependence).
func Models() []string { return []string{"uniform", "lognormal", "pareto", "correlated"} }

// Names enumerates the full registry in family-major order:
// "random-uniform", "random-lognormal", …, "cybershake-correlated".
func Names() []string {
	var out []string
	for _, f := range Families() {
		for _, m := range Models() {
			out = append(out, f+"-"+m)
		}
	}
	return out
}

// Lookup resolves a scenario name. Both the full "<family>-<model>" form
// and the bare family (implying the paper's uniform model) are accepted.
func Lookup(name string) (Scenario, error) {
	family, model := name, "uniform"
	if i := strings.LastIndex(name, "-"); i >= 0 {
		family, model = name[:i], name[i+1:]
	}
	familyOK := false
	for _, f := range Families() {
		if f == family {
			familyOK = true
			break
		}
	}
	if !familyOK {
		return Scenario{}, fmt.Errorf("scenario: unknown name %q (families %s, models %s)",
			name, strings.Join(Families(), "|"), strings.Join(Models(), "|"))
	}
	s := Scenario{Name: family + "-" + model, Family: family}
	switch model {
	case "uniform":
	case "lognormal":
		s.Model = sim.ModelLognormal
	case "pareto":
		s.Model = sim.ModelBoundedPareto
		s.ParetoShape = DefaultParetoShape
	case "correlated":
		s.Corr = sim.CorrShared
		s.LoadCOV = DefaultLoadCOV
	default:
		return Scenario{}, fmt.Errorf("scenario: unknown duration model %q in %q (want %s)",
			model, name, strings.Join(Models(), "|"))
	}
	return s, nil
}

// WidthFor derives the workflow width that brings the family's task count
// closest to (but not above) n: montage/epigenomics generate 3W+4 tasks,
// cybershake 2W+4. The minimum width is 2.
func (s Scenario) WidthFor(n int) int {
	var w int
	switch s.Family {
	case "cybershake":
		w = (n - 4) / 2
	default:
		w = (n - 4) / 3
	}
	if w < 2 {
		w = 2
	}
	return w
}

// Workload generates one workload instance of the scenario's family. The
// generator params carry the usual knobs (p.N sizes the instance; for
// workflow families the width is derived via WidthFor, so the task count
// tracks p.N without exceeding it). "random" routes through gen.Random
// unchanged — same draws, same workload, bit for bit.
func (s Scenario) Workload(p gen.Params, r *rng.Source) (*platform.Workload, error) {
	if s.Family == "" || s.Family == "random" {
		return gen.Random(p, r)
	}
	w, err := gen.WorkflowByName(s.Family, s.WidthFor(p.N), p, r)
	return w, err
}

// Apply overlays the scenario's duration model onto a sim option set. The
// default scenario's overlay writes only zero values, leaving the paper
// path untouched.
func (s Scenario) Apply(opt sim.Options) sim.Options {
	opt.Model = s.Model
	opt.Corr = s.Corr
	opt.LoadCOV = s.LoadCOV
	opt.ParetoShape = s.ParetoShape
	return opt
}
