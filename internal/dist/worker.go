package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"robsched/internal/ga"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/schedule"
	"robsched/internal/sim"
	"robsched/internal/wio"
)

// frameWriter is a worker connection's response stream. The serve loop is
// its only writer, and every response leaves in one flush.
type frameWriter struct {
	w *bufio.Writer
}

func (fw *frameWriter) write(kind byte, payload []byte) error {
	if err := wio.WriteFrame(fw.w, kind, payload); err != nil {
		return err
	}
	return fw.w.Flush()
}

func (fw *frameWriter) sendJSON(kind byte, v any) error {
	if err := sendJSON(fw.w, kind, v); err != nil {
		return err
	}
	return fw.w.Flush()
}

// ServeWorker runs the worker half of the dist protocol over the (r, w)
// pipe pair — in production, the stdin/stdout of a `robsched worker`
// subprocess — until the coordinator closes the stream or sends KShutdown.
//
// Job-level failures (a malformed workload, invalid options) are reported
// back as KErr frames and the worker keeps serving; transport failures
// terminate the loop with an error. The worker holds two pieces of state
// per connection: the sim setup bound by KSimSetup, until the next setup
// replaces it, and the island host built by KIslandInit, until
// KIslandFinish or a replacing init.
//
// Every request is executed as it arrives, and each range or island answer
// echoes its request's Seq. A transport that duplicates a request
// therefore yields a second answer, which the coordinator reads as a Seq
// mismatch on its next exchange: a transport failure, never a silently
// doubled step.
func ServeWorker(r io.Reader, w io.Writer) error {
	fw := &frameWriter{w: bufio.NewWriterSize(w, 1<<16)}
	fr := wio.NewFrameReader(bufio.NewReaderSize(r, 1<<16))
	var host *islandHost
	var setup *simState
	for {
		kind, payload, err := fr.Read()
		if err == io.EOF {
			return nil // coordinator closed between frames: clean exit
		}
		if err != nil {
			return fmt.Errorf("dist: worker read: %w", err)
		}
		var jobErr error
		switch kind {
		case KShutdown:
			return nil
		case KSimSetup:
			setup, jobErr = newSimState(payload)
		case KSimRange:
			jobErr = handleSimRange(fw, setup, payload)
		case KIslandInit:
			host, jobErr = newIslandHost(payload)
			if jobErr == nil {
				jobErr = fw.sendJSON(KIslandState, host.states(host.initSeq))
			}
		case KEpoch:
			jobErr = handleEpoch(fw, host, payload)
		case KMigrate:
			jobErr = handleMigrate(fw, host, payload)
		case KIslandFinish:
			host = nil
			jobErr = fw.write(KOK, nil)
		default:
			jobErr = fmt.Errorf("dist: unknown frame kind %d", kind)
		}
		if jobErr != nil {
			// Report and keep serving. If even the error frame cannot be
			// written the pipe is gone and the loop must end.
			em := ErrMsg{Error: jobErr.Error()}
			var se *setupError
			if errors.As(jobErr, &se) {
				em.Code = ErrCodeSetup
			}
			if err := fw.sendJSON(KErr, em); err != nil {
				return err
			}
		}
	}
}

// simState is the per-connection sim setup bound by KSimSetup: the decoded
// workload and schedules every subsequent KSimRange realizes against.
type simState struct {
	id  uint64
	ss  []*schedule.Schedule
	opt sim.Options
}

// setupError marks a range that referenced a setup this worker does not
// hold — the setup frame was lost in transit. Reported back with
// ErrMsg.Code "setup" so the coordinator reassigns rather than aborts.
type setupError struct{ id uint64 }

func (e *setupError) Error() string {
	return fmt.Sprintf("dist: no setup %d bound to this connection", e.id)
}

// newSimState decodes and binds a KSimSetup. No response frame: the setup
// is validated here, and a bad one surfaces as the KErr this handler's
// error becomes — which the coordinator receives in place of the first
// range's result.
func newSimState(payload []byte) (*simState, error) {
	var su SimSetup
	if err := parseJSON(payload, &su); err != nil {
		return nil, err
	}
	wl, err := su.Workload.Build()
	if err != nil {
		return nil, err
	}
	ss := make([]*schedule.Schedule, len(su.Schedules))
	for i, doc := range su.Schedules {
		if ss[i], err = doc.Bind(wl); err != nil {
			return nil, err
		}
	}
	return &simState{
		id: su.ID,
		ss: ss,
		opt: sim.Options{
			Antithetic: su.Antithetic, BatchSize: su.BatchSize, Workers: su.Workers,
			Model: su.Model, Corr: su.Corr, LoadCOV: su.LoadCOV, ParetoShape: su.ParetoShape,
		},
	}, nil
}

// handleSimRange realizes one pipelined seed window against the bound
// setup and answers with one KSimResult frame in one flush. Everything is
// computed before the first response byte, so a failure never leaves a
// half-written answer.
func handleSimRange(fw *frameWriter, setup *simState, payload []byte) error {
	var req SimRange
	if err := parseJSON(payload, &req); err != nil {
		return err
	}
	if setup == nil || setup.id != req.Setup {
		return &setupError{req.Setup}
	}
	mks, err := sim.RealizeSeeded(setup.ss, setup.opt, req.Seeds, req.Base)
	if err != nil {
		return err
	}
	return fw.write(KSimResult, encodeResult(req.Seq, mks))
}

func handleEpoch(fw *frameWriter, host *islandHost, payload []byte) error {
	if host == nil {
		return fmt.Errorf("dist: epoch before init")
	}
	var req EpochReq
	if err := parseJSON(payload, &req); err != nil {
		return err
	}
	for _, st := range host.islands {
		st.Epoch(req.StartGen, req.Gens)
	}
	return fw.sendJSON(KIslandState, host.states(req.Seq))
}

func handleMigrate(fw *frameWriter, host *islandHost, payload []byte) error {
	if host == nil {
		return fmt.Errorf("dist: migrate before init")
	}
	var req MigrateReq
	if err := parseJSON(payload, &req); err != nil {
		return err
	}
	if err := host.runMigrate(req); err != nil {
		return err
	}
	return fw.sendJSON(KIslandState, host.states(req.Seq))
}

// islandHost is the worker-side state of an island-sharded solve: the
// solver engine for the workload plus the hosted ga.Island states. It is
// the same state machine ga.RunIslands drives in-process; the coordinator
// supplies the barrier ordering and the ring migrants.
type islandHost struct {
	eng     *robust.Engine
	islands []*ga.Island[*robust.Chromosome] // ascending island index
	initSeq uint64
}

// newIslandHost builds the engine a KIslandInit describes and the islands
// it lists, each fresh from its seed.
func newIslandHost(payload []byte) (*islandHost, error) {
	var init IslandInit
	if err := parseJSON(payload, &init); err != nil {
		return nil, err
	}
	if len(init.Islands) == 0 {
		return nil, fmt.Errorf("dist: island init with no islands")
	}
	wl, err := init.Workload.Build()
	if err != nil {
		return nil, err
	}
	o := init.Opt
	eng, err := robust.NewEngine(wl, robust.Options{
		Mode:           robust.Mode(o.Mode),
		Eps:            o.Eps,
		SlackMetric:    robust.SlackMetric(o.SlackMetric),
		PopSize:        o.PopSize,
		CrossoverRate:  o.CrossoverRate,
		MutationRate:   o.MutationRate,
		MaxGenerations: o.MaxGenerations,
		Stagnation:     o.Stagnation,
		NoHEFTSeed:     o.NoHEFTSeed,
		NoMetricsCache: o.NoMetricsCache,
	})
	if err != nil {
		return nil, err
	}
	h := &islandHost{eng: eng, initSeq: init.Seq}
	sort.Slice(init.Islands, func(i, j int) bool { return init.Islands[i].Island < init.Islands[j].Island })
	cfg := eng.Config()
	for _, is := range init.Islands {
		st, err := ga.NewIsland(cfg, is.Island, rng.New(is.Seed))
		if err != nil {
			return nil, err
		}
		h.islands = append(h.islands, st)
	}
	return h, nil
}

// states snapshots every hosted island's running best in island order,
// stamped with the request sequence it answers. The genotypes alias the
// islands' bests: every answer is encoded before a later epoch can recycle
// them.
func (h *islandHost) states(seq uint64) IslandStates {
	out := IslandStates{States: make([]IslandState, 0, len(h.islands)), Seq: seq}
	for _, st := range h.islands {
		b, bf := st.Best()
		out.States = append(out.States, IslandState{
			Island:          st.Index(),
			Best:            Genotype{Order: b.Order, Proc: b.Proc},
			BestFitnessBits: math.Float64bits(bf),
			SinceImprove:    st.SinceImprove(),
		})
	}
	return out
}

func (h *islandHost) find(island int) (*ga.Island[*robust.Chromosome], error) {
	if h == nil {
		return nil, fmt.Errorf("dist: island message before init")
	}
	for _, st := range h.islands {
		if st.Index() == island {
			return st, nil
		}
	}
	return nil, fmt.Errorf("dist: island %d not hosted here", island)
}

// runMigrate delivers this barrier's migrants to their target islands. Every
// migrant is checked before any is delivered: one that names an island
// hosted elsewhere or does not decode on the workload fails the whole
// request, which leaves the islands untouched — the evaluator would treat
// an undecodable genotype as a bug and panic.
func (h *islandHost) runMigrate(req MigrateReq) error {
	targets := make([]*ga.Island[*robust.Chromosome], len(req.Migrants))
	migrants := make([]*robust.Chromosome, len(req.Migrants))
	for i, m := range req.Migrants {
		st, err := h.find(m.Island)
		if err != nil {
			return err
		}
		// The migrant arrives as a bare genotype; the island re-evaluates
		// it locally. The fitness is a pure function of the genotype, so
		// losing the sender's memoized metrics changes speed, never values.
		c := robust.NewChromosome(m.Genotype.Order, m.Genotype.Proc)
		if err := h.eng.Validate(c); err != nil {
			return fmt.Errorf("dist: migrant for island %d: %w", m.Island, err)
		}
		targets[i], migrants[i] = st, c
	}
	for i, st := range targets {
		st.Migrate(migrants[i])
	}
	return nil
}
