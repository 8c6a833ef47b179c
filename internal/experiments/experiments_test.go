package experiments

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"robsched/internal/dist"
	"robsched/internal/gen"
	"robsched/internal/obs"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/scenario"
	"robsched/internal/schedule"
	"robsched/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tinyConfig is small enough for unit tests yet large enough that the
// paper's qualitative shapes still emerge.
func tinyConfig() Config {
	c := Default()
	c.Gen.N = 24
	c.Gen.M = 3
	c.Graphs = 3
	c.Realizations = 120
	c.ULs = []float64{2, 6}
	c.Eps = []float64{1.0, 1.5, 2.0}
	c.RGrid = []float64{0, 0.5, 1}
	c.GA.PopSize = 10
	c.GA.MaxGenerations = 40
	c.GA.Stagnation = 0
	c.TraceEvery = 20
	return c
}

func TestConfigValidate(t *testing.T) {
	good := tinyConfig()
	if err := good.validate(); err != nil {
		t.Fatalf("tiny config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Graphs = 0 },
		func(c *Config) { c.Realizations = 0 },
		func(c *Config) { c.ULs = nil },
		func(c *Config) { c.ULs = []float64{0.5} },
		func(c *Config) { c.TraceEvery = 0 },
		func(c *Config) { c.Gen.N = 0 },
	}
	for i, mut := range cases {
		c := tinyConfig()
		mut(&c)
		if err := c.validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestDefaultAndPaperScaleValid(t *testing.T) {
	if err := Default().validate(); err != nil {
		t.Errorf("Default invalid: %v", err)
	}
	ps := PaperScale()
	if err := ps.validate(); err != nil {
		t.Errorf("PaperScale invalid: %v", err)
	}
	if ps.Graphs != 100 || ps.Realizations != 1000 || ps.Gen.N != 100 {
		t.Errorf("PaperScale not at paper scale: %+v", ps)
	}
	if ps.GA.PopSize != 20 || ps.GA.MaxGenerations != 1000 {
		t.Errorf("PaperScale GA params wrong: %+v", ps.GA)
	}
}

func TestSampleSteps(t *testing.T) {
	got := sampleSteps(100, 30)
	want := []int{0, 30, 60, 90, 100}
	if len(got) != len(want) {
		t.Fatalf("sampleSteps = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sampleSteps = %v, want %v", got, want)
		}
	}
	// Exact multiple: maxGen still included once.
	got = sampleSteps(60, 30)
	want = []int{0, 30, 60}
	if len(got) != len(want) || got[2] != 60 {
		t.Fatalf("sampleSteps = %v, want %v", got, want)
	}
}

func TestEvolutionTraceFig2Shape(t *testing.T) {
	c := tinyConfig()
	tr, err := c.EvolutionTrace(robust.MinMakespan)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) == 0 || tr.Steps[0] != 0 || tr.Steps[len(tr.Steps)-1] != c.GA.MaxGenerations {
		t.Fatalf("Steps = %v", tr.Steps)
	}
	for u := range tr.ULs {
		// Log ratios are 0 at step 0 by construction.
		if tr.Makespan[u][0] != 0 || tr.Slack[u][0] != 0 || tr.R1[u][0] != 0 {
			t.Fatalf("UL index %d: trace does not start at 0: %g %g %g",
				u, tr.Makespan[u][0], tr.Slack[u][0], tr.R1[u][0])
		}
	}
	last := len(tr.Steps) - 1
	// Paper Fig. 2 shape: minimizing the makespan drives slack and R1
	// down, most significantly at small uncertainty levels (at large UL
	// the paper itself reports weaker, noisier movement).
	if tr.Slack[0][last] >= 0 {
		t.Errorf("UL=%g: slack log-ratio %g did not fall while minimizing makespan", tr.ULs[0], tr.Slack[0][last])
	}
	for u, ul := range tr.ULs {
		if tr.Slack[u][last] > 0.35 {
			t.Errorf("UL=%g: slack log-ratio rose to %g while minimizing makespan", ul, tr.Slack[u][last])
		}
		if tr.R1[u][last] > 0.35 {
			t.Errorf("UL=%g: R1 log-ratio rose to %g while minimizing makespan", ul, tr.R1[u][last])
		}
	}
	// At the lowest uncertainty level the realized makespan should improve
	// (negative log ratio).
	if tr.Makespan[0][last] >= 0 {
		t.Errorf("UL=%g: realized makespan did not improve: %g", tr.ULs[0], tr.Makespan[0][last])
	}
}

func TestEvolutionTraceFig3Shape(t *testing.T) {
	c := tinyConfig()
	tr, err := c.EvolutionTrace(robust.MaxSlack)
	if err != nil {
		t.Fatal(err)
	}
	last := len(tr.Steps) - 1
	// Paper Fig. 3 shape: maximizing slack raises slack, raises R1, and
	// raises the makespan substantially.
	for u, ul := range tr.ULs {
		if tr.Slack[u][last] <= 0 {
			t.Errorf("UL=%g: slack log-ratio %g did not rise while maximizing slack", ul, tr.Slack[u][last])
		}
		if tr.Makespan[u][last] <= 0 {
			t.Errorf("UL=%g: makespan log-ratio %g did not rise while maximizing slack", ul, tr.Makespan[u][last])
		}
		if tr.R1[u][last] <= -0.1 {
			t.Errorf("UL=%g: R1 log-ratio %g fell while maximizing slack", ul, tr.R1[u][last])
		}
	}
}

func TestEvolutionTraceRejectsEpsilonMode(t *testing.T) {
	c := tinyConfig()
	if _, err := c.EvolutionTrace(robust.EpsilonConstraint); err == nil {
		t.Fatal("epsilon-constraint mode accepted for a trace")
	}
}

func TestTraceSeries(t *testing.T) {
	c := tinyConfig()
	c.ULs = []float64{2}
	tr, err := c.EvolutionTrace(robust.MinMakespan)
	if err != nil {
		t.Fatal(err)
	}
	series := tr.Series()
	if len(series) != 3 {
		t.Fatalf("got %d series, want 3", len(series))
	}
	for _, s := range series {
		if len(s.X) != len(tr.Steps) || len(s.Y) != len(tr.Steps) {
			t.Fatalf("series %q has mismatched lengths", s.Name)
		}
		if !strings.Contains(s.Name, "UL=2.0") {
			t.Fatalf("series name %q missing UL tag", s.Name)
		}
	}
}

func TestRunSweepAndFigures(t *testing.T) {
	c := tinyConfig()
	sw, err := c.RunSweep()
	if err != nil {
		t.Fatal(err)
	}
	// Grid shape.
	if len(sw.GA) != len(c.ULs) || len(sw.GA[0]) != len(c.Eps) || len(sw.GA[0][0]) != c.Graphs {
		t.Fatalf("sweep grid shape wrong")
	}
	// Constraint holds per cell: M0 <= ε · M_HEFT.
	for u := range c.ULs {
		for e, eps := range c.Eps {
			for g := 0; g < c.Graphs; g++ {
				if sw.GA[u][e][g].M0 > eps*sw.HEFT[u][g].M0+1e-9 {
					t.Fatalf("cell (%d,%d,%d) violates the constraint: %g > %g·%g",
						u, e, g, sw.GA[u][e][g].M0, eps, sw.HEFT[u][g].M0)
				}
			}
		}
	}

	// Fig. 4: at ε=1.0 the GA should improve robustness over HEFT on
	// average (R1 log ratio positive at the lowest UL) and not lose on
	// makespan by much.
	fig4, err := sw.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig4) != 3 {
		t.Fatalf("Fig4 returned %d series", len(fig4))
	}
	byName := map[string]Series{}
	for _, s := range fig4 {
		byName[s.Name] = s
	}
	if s, ok := byName["R1"]; !ok || s.Y[0] <= 0 {
		t.Errorf("Fig4 R1 improvement at UL=%g is %g, want > 0", c.ULs[0], s.Y[0])
	}
	if s := byName["Makespan"]; s.Y[0] < -0.15 {
		t.Errorf("Fig4 makespan log ratio %g strongly negative: GA much worse than HEFT", s.Y[0])
	}

	// Fig. 5/6: relaxing ε should increase robustness relative to ε=1.0.
	for _, m := range []Metric{R1, R2} {
		series, err := sw.FigEpsImprovement(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(series) != len(c.ULs) {
			t.Fatalf("FigEpsImprovement(%v) returned %d series", m, len(series))
		}
		for _, s := range series {
			if len(s.X) != 2 { // eps 1.5 and 2.0
				t.Fatalf("series %q X = %v", s.Name, s.X)
			}
			// Mean improvement across the grid should be positive.
			mean := (s.Y[0] + s.Y[1]) / 2
			if mean <= 0 {
				t.Errorf("%v %s: mean improvement %g not positive", m, s.Name, mean)
			}
		}
	}

	// Fig. 7/8: best ε must come from the grid, and emphasizing the
	// makespan (r=1) must not prefer a larger ε than emphasizing
	// robustness (r=0).
	for _, m := range []Metric{R1, R2} {
		series, err := sw.FigBestEps(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range series {
			for _, y := range s.Y {
				if y < c.Eps[0] || y > c.Eps[len(c.Eps)-1] || math.IsNaN(y) {
					t.Fatalf("%v %s: best ε %g outside grid", m, s.Name, y)
				}
			}
			if s.Y[len(s.Y)-1] > s.Y[0] {
				t.Errorf("%v %s: best ε at r=1 (%g) exceeds best ε at r=0 (%g)",
					m, s.Name, s.Y[len(s.Y)-1], s.Y[0])
			}
			// r=1 cares only about makespan: ε=1.0 gives the GA the
			// tightest bound, so the best ε should be the smallest.
			if s.Y[len(s.Y)-1] != c.Eps[0] {
				t.Logf("note: %v %s best ε at r=1 is %g (grid minimum %g)", m, s.Name, s.Y[len(s.Y)-1], c.Eps[0])
			}
		}
	}
}

func TestSweepDeterminism(t *testing.T) {
	c := tinyConfig()
	c.ULs = []float64{2}
	c.Eps = []float64{1.0, 1.5}
	c.Graphs = 2
	run := func(workers int) *Sweep {
		cc := c
		cc.Workers = workers
		sw, err := cc.RunSweep()
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	a, b := run(1), run(4)
	for u := range a.GA {
		for e := range a.GA[u] {
			for g := range a.GA[u][e] {
				if a.GA[u][e][g].M0 != b.GA[u][e][g].M0 ||
					a.GA[u][e][g].Sim.MeanMakespan != b.GA[u][e][g].Sim.MeanMakespan {
					t.Fatalf("sweep not deterministic across worker counts at (%d,%d,%d)", u, e, g)
				}
			}
		}
	}
}

func TestFigRequiresEps1(t *testing.T) {
	c := tinyConfig()
	c.Eps = []float64{1.5, 2.0}
	sw, err := c.RunSweep()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Fig4(); err == nil {
		t.Error("Fig4 without ε=1.0 accepted")
	}
	if _, err := sw.FigEpsImprovement(R1); err == nil {
		t.Error("FigEpsImprovement without ε=1.0 accepted")
	}
}

func TestFormatSeries(t *testing.T) {
	s := []Series{
		{Name: "A", X: []float64{1, 2}, Y: []float64{0.5, math.Inf(1)}},
		{Name: "B", X: []float64{1, 2}, Y: []float64{-1, math.NaN()}},
	}
	out := FormatSeries("Fig. X", "UL", s)
	for _, want := range []string{"# Fig. X", "UL", "A", "B", "+Inf", "NaN", "0.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatSeries missing %q in:\n%s", want, out)
		}
	}
	if empty := FormatSeries("t", "x", nil); !strings.Contains(empty, "no data") {
		t.Error("empty series not handled")
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	s := []Series{
		{Name: "a,b", X: []float64{1, 2}, Y: []float64{3, 4}},
		{Name: "c", X: []float64{1, 2}, Y: []float64{5, 6}},
	}
	if err := WriteCSV(&b, "x", s); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != `x,"a,b",c` {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1,3,5" || lines[2] != "2,4,6" {
		t.Errorf("rows = %q, %q", lines[1], lines[2])
	}
}

func TestMeanFinite(t *testing.T) {
	if got := meanFinite([]float64{1, math.NaN(), 3}); got != 2 {
		t.Errorf("meanFinite = %g, want 2", got)
	}
	if !math.IsNaN(meanFinite([]float64{math.NaN()})) {
		t.Error("all-NaN input should be NaN")
	}
}

func TestGAOptionsFillsDefaults(t *testing.T) {
	var c Config
	c.Gen = gen.PaperParams()
	opt := c.gaOptions()
	if opt.PopSize != 20 || opt.MaxGenerations != 1000 || opt.CrossoverRate != 0.9 || opt.MutationRate != 0.1 {
		t.Fatalf("gaOptions defaults wrong: %+v", opt)
	}
}

// runnerConfig is the small config every runner case runs on.
func runnerConfig() Config {
	c := tinyConfig()
	c.Gen.N = 12
	c.Gen.M = 2
	c.Graphs = 2
	c.Realizations = 20
	c.ULs = []float64{2}
	c.Eps = []float64{1.0, 1.4}
	c.RGrid = []float64{0, 1}
	c.GA.PopSize = 6
	c.GA.MaxGenerations = 6
	c.TraceEvery = 3
	return c
}

// runnerCase is one experiment runner. Its value prints every float64 in
// its shortest exact form under %v: result structs are passed by value, so
// their String tables (rounded to four places) are not used.
type runnerCase struct {
	name string
	// samples marks the runners that draw realizations.
	samples bool
	run     func(c Config) (any, error)
}

func runnerCases() []runnerCase {
	fc := DefaultFaultConfig()
	fc.Policy.DropFactor = 4
	// under runs a case under the named scenario.
	under := func(name string, run func(c Config) (any, error)) func(c Config) (any, error) {
		return func(c Config) (any, error) {
			s, err := scenario.Lookup(name)
			if err != nil {
				return nil, err
			}
			c.Scenario = &s
			return run(c)
		}
	}
	sweep := func(c Config) (any, error) {
		sw, err := c.RunSweep()
		if err != nil {
			return nil, err
		}
		return []any{sw.ULs, sw.Eps, sw.GA, sw.HEFT}, nil
	}
	policies := func(c Config) (any, error) { return c.PolicyComparison(1.4, 0.05) }
	faults := func(c Config) (any, error) {
		res, err := c.FaultResilience(fc)
		if err != nil {
			return nil, err
		}
		return *res, nil
	}
	return []runnerCase{
		{"sweep", true, sweep},
		{"trace", true, func(c Config) (any, error) {
			tr, err := c.EvolutionTrace(robust.MinMakespan)
			if err != nil {
				return nil, err
			}
			return *tr, nil
		}},
		{"sensitivity", true, func(c Config) (any, error) { return c.Sensitivity(SweepCCR, []float64{0.5}, 1.4) }},
		{"risk", true, func(c Config) (any, error) { return c.AblationRiskFactor([]float64{1}) }},
		{"slackmetric", true, func(c Config) (any, error) { return c.AblationSlackMetric() }},
		{"policies", true, policies},
		{"faults", true, faults},
		{"corrgap", true, func(c Config) (any, error) {
			res, err := c.CorrelationGap(CorrGapConfig{LoadCOVs: []float64{0.3}})
			if err != nil {
				return nil, err
			}
			return *res, nil
		}},
		{"seed", false, func(c Config) (any, error) { return c.AblationSeed() }},
		{"gaparams", false, func(c Config) (any, error) { return c.AblationGAParams(nil, nil) }},
		{"sensitivity-shape", true, func(c Config) (any, error) { return c.Sensitivity(SweepShape, []float64{0.5, 2}, 1.4) }},
		{"sensitivity-procs", true, func(c Config) (any, error) { return c.Sensitivity(SweepProcs, []float64{3}, 1.4) }},
		// One scenario per workflow family, each with a different
		// duration model.
		{"sweep-montage-lognormal", true, under("montage-lognormal", sweep)},
		{"sweep-epigenomics-pareto", true, under("epigenomics-pareto", sweep)},
		{"sweep-cybershake-correlated", true, under("cybershake-correlated", sweep)},
		// Repair, dynamic dispatch and faulty execution under a
		// non-uniform duration model.
		{"policies-montage-lognormal", true, under("montage-lognormal", policies)},
		{"faults-random-correlated", true, under("random-correlated", faults)},
	}
}

// TestSimHookCoversEveryRunner: every runner that samples realizations goes
// through Config.Sim, the hook -shards and -remote plug into, and produces
// the same output with the hook as without it. Policies and faults also
// sample in process through sim.Durations (repair, dynamic dispatch and
// faulty execution); their static evaluations must still use the hook. A
// hook that fails makes every sampling runner return its error.
func TestSimHookCoversEveryRunner(t *testing.T) {
	base := runnerConfig()
	errHook := errors.New("sim hook failed")
	for _, r := range runnerCases() {
		if !r.samples {
			continue
		}
		want, err := r.run(base)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		var calls atomic.Int64
		hooked := base
		hooked.Sim = func(ss []*schedule.Schedule, opt sim.Options, root *rng.Source) ([]sim.Metrics, error) {
			calls.Add(1)
			return sim.EvaluateAll(ss, opt, root)
		}
		got, err := r.run(hooked)
		if err != nil {
			t.Fatalf("%s with the hook: %v", r.name, err)
		}
		if calls.Load() == 0 {
			t.Errorf("%s sampled without calling Config.Sim", r.name)
		}
		if g, w := fmt.Sprintf("%v", got), fmt.Sprintf("%v", want); g != w {
			t.Errorf("%s: output differs with the hook:\n got %s\nwant %s", r.name, g, w)
		}
		failing := base
		failing.Sim = func([]*schedule.Schedule, sim.Options, *rng.Source) ([]sim.Metrics, error) {
			return nil, errHook
		}
		if _, err := r.run(failing); !errors.Is(err, errHook) {
			t.Errorf("%s with a failing hook: got error %v, want %v", r.name, err, errHook)
		}
	}
}

// TestRunnersPinned pins every runner's output on runnerConfig to stored
// SHA-256 digests in testdata/runners.golden. Refresh with:
// go test ./internal/experiments -run TestRunnersPinned -update
func TestRunnersPinned(t *testing.T) {
	var b strings.Builder
	for _, r := range runnerCases() {
		b.WriteString(runnerDigest(t, r, runnerConfig()))
	}
	got := b.String()
	golden := filepath.Join("testdata", "runners.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("runner outputs differ from %s (refresh with -update):\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}
}

// runnerDigest runs r on c and returns its line of runners.golden.
func runnerDigest(t *testing.T, r runnerCase, c Config) string {
	t.Helper()
	v, err := r.run(c)
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	return fmt.Sprintf("%s %x\n", r.name, sha256.Sum256([]byte(fmt.Sprintf("%v", v))))
}

// TestRunnersPinnedThroughPool runs every sampling runner with Config.Sim
// on a 2-worker dist pool, over in-memory pipes and over loopback TCP, and
// checks its digest against the unchanged runners.golden: sharding the
// realizations must not move a byte. Ranges of 3 realizations spread every
// evaluation over both workers, and no range may run in process.
func TestRunnersPinnedThroughPool(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "runners.golden"))
	if err != nil {
		t.Fatal(err)
	}
	pinned := make(map[string]bool)
	for _, line := range strings.SplitAfter(string(golden), "\n") {
		pinned[line] = true
	}
	pools := []struct {
		name string
		open func(t *testing.T) *dist.Pool
	}{
		{"pipes", func(*testing.T) *dist.Pool { return dist.NewLocalPool(2) }},
		{"tcp", func(t *testing.T) *dist.Pool {
			addrs := make([]string, 2)
			for i := range addrs {
				srv, err := dist.ListenWorker("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go func() { _ = srv.Serve() }()
				t.Cleanup(srv.Shutdown)
				addrs[i] = srv.Addr()
			}
			pool, err := dist.NewSpawnPool(len(addrs), dist.TCPSpawner(addrs, 0))
			if err != nil {
				t.Fatal(err)
			}
			return pool
		}},
	}
	for _, p := range pools {
		t.Run(p.name, func(t *testing.T) {
			pool := p.open(t)
			defer pool.Close()
			reg := obs.NewRegistry()
			c := runnerConfig()
			c.Sim = (&dist.Coordinator{Pool: pool, Obs: reg, RangeSize: 3}).EvaluateAll
			for _, r := range runnerCases() {
				if !r.samples {
					continue
				}
				if line := runnerDigest(t, r, c); !pinned[line] {
					t.Errorf("through the pool, %s differs from runners.golden: %s", r.name, line)
				}
			}
			for i := 0; i < 2; i++ {
				if reg.Counter(fmt.Sprintf("dist.worker%d.sim_ranges", i)).Value() == 0 {
					t.Errorf("worker %d took no range", i)
				}
			}
			if n := reg.Counter("dist.inline_ranges").Value(); n != 0 {
				t.Errorf("%d ranges ran in process, want every range on a worker", n)
			}
			t.Logf("ranges per worker: %d, %d", reg.Counter("dist.worker0.sim_ranges").Value(), reg.Counter("dist.worker1.sim_ranges").Value())
		})
	}
}
