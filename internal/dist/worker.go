package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"robsched/internal/ga"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/schedule"
	"robsched/internal/sim"
	"robsched/internal/wio"
)

// frameWriter serializes frame writes to the response stream. Heartbeat
// pulses are emitted from a side goroutine while a computation runs, so
// every write must take the whole frame (header + payload + flush) under
// one lock — interleaving half-frames would corrupt the stream.
type frameWriter struct {
	mu sync.Mutex
	w  *bufio.Writer
}

func (fw *frameWriter) write(kind byte, payload []byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if err := wio.WriteFrame(fw.w, kind, payload); err != nil {
		return err
	}
	return fw.w.Flush()
}

func (fw *frameWriter) sendJSON(kind byte, v any) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if err := sendJSON(fw.w, kind, v); err != nil {
		return err
	}
	return fw.w.Flush()
}

// batch runs fn against the locked write buffer and flushes once at the
// end — the write-coalescing path: a whole response sequence (ack, vector
// frames, done marker) leaves in one flush, one syscall, one packet train,
// instead of a flush per frame. A mid-batch error can only come from the
// underlying writer failing, at which point the stream is dead anyway.
func (fw *frameWriter) batch(fn func(w *bufio.Writer) error) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if err := fn(fw.w); err != nil {
		return err
	}
	return fw.w.Flush()
}

// withHeartbeat runs compute while emitting KHeartbeat frames every millis
// milliseconds, so the coordinator's per-frame deadline sees life from a
// worker that is busy rather than stuck. millis <= 0 runs compute directly —
// the fault-free default costs nothing. The pulse goroutine is stopped and
// reaped before returning, so the response that follows never races a
// heartbeat for the stream (and a heartbeat can never land after KErr).
func withHeartbeat(fw *frameWriter, millis int, compute func() error) error {
	if millis <= 0 {
		return compute()
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Duration(millis) * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if fw.write(KHeartbeat, nil) != nil {
					return // pipe gone; the main loop will notice
				}
			}
		}
	}()
	err := compute()
	close(stop)
	<-done
	return err
}

// ServeWorker runs the worker half of the dist protocol over the (r, w)
// pipe pair — in production, the stdin/stdout of a `robsched worker`
// subprocess — until the coordinator closes the stream or sends KShutdown.
//
// Job-level failures (a malformed workload, invalid options) are reported
// back as KErr frames and the worker keeps serving; transport failures
// terminate the loop with an error. The worker is stateless between sim
// jobs; island hosting holds state from KIslandInit until KIslandFinish or
// a replacing init.
//
// Island requests carry sequence numbers: a request whose Seq matches the
// last one processed is answered from the cached response without
// re-executing, so a transport that duplicates frames cannot advance an
// island twice (at-most-once semantics; Seq 0 disables the check).
func ServeWorker(r io.Reader, w io.Writer) error {
	return serveWorker(r, w, nil, nil)
}

// drained reports whether the drain channel (nil when graceful shutdown is
// not wired) has fired.
func drained(drain <-chan struct{}) bool {
	if drain == nil {
		return false
	}
	select {
	case <-drain:
		return true
	default:
		return false
	}
}

// serveWorker is the serve loop behind ServeWorker and the graceful-stop
// transports. When drain is non-nil and fires, interrupt is invoked once to
// unblock the pending between-requests read (closing the transport's read
// direction or arming an immediate read deadline — writes must survive, so
// the in-flight operation still answers and flushes); the loop then exits
// cleanly instead of treating the unblocked read's error as a failure.
func serveWorker(r io.Reader, w io.Writer, drain <-chan struct{}, interrupt func()) error {
	br := bufio.NewReaderSize(r, 1<<16)
	fw := &frameWriter{w: bufio.NewWriterSize(w, 1<<16)}
	fr := wio.NewFrameReader(br)
	var host *islandHost
	var setup *simState
	if drain != nil && interrupt != nil {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-drain:
				interrupt()
			case <-done:
			}
		}()
	}
	for {
		kind, payload, err := fr.Read()
		if err == io.EOF {
			return nil // coordinator closed between frames: clean exit
		}
		if err != nil {
			if drained(drain) {
				return nil // graceful stop unblocked the idle read
			}
			return fmt.Errorf("dist: worker read: %w", err)
		}
		var jobErr error
		switch kind {
		case KShutdown:
			return nil
		case KSimJob:
			jobErr = handleSimJob(fw, payload)
		case KSimSetup:
			setup, jobErr = newSimState(payload)
		case KSimRange:
			jobErr = handleSimRange(fw, setup, payload)
		case KIslandInit:
			host, jobErr = newIslandHost(payload)
			if jobErr == nil {
				jobErr = host.reply(fw, KIslandState, host.statesSeq(host.initSeq))
			}
		case KEpoch:
			jobErr = handleEpoch(fw, host, payload)
		case KMigrate:
			jobErr = handleMigrate(fw, host, payload)
		case KCheckpoint:
			jobErr = handleCheckpoint(fw, host, payload)
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
		if drained(drain) {
			return nil // graceful stop: the in-flight op answered; exit
		}
	}
}

// handleSimJob realizes one seed window and streams the makespan vectors
// back: a KAck echoing the job's sequence number, one KSimVec frame per
// schedule in schedule order, then KSimDone. Everything is computed before
// the first response byte, so a failure never leaves a half-written
// response sequence. Heartbeats pulse during the compute when the job asks
// for them.
func handleSimJob(fw *frameWriter, payload []byte) error {
	var job SimJob
	if err := parseJSON(payload, &job); err != nil {
		return err
	}
	var mks [][]float64
	err := withHeartbeat(fw, job.HeartbeatMillis, func() error {
		wl, err := job.Workload.Build()
		if err != nil {
			return err
		}
		ss := make([]*schedule.Schedule, len(job.Schedules))
		for i, doc := range job.Schedules {
			if ss[i], err = doc.Bind(wl); err != nil {
				return err
			}
		}
		opt := sim.Options{
			Antithetic: job.Antithetic, BatchSize: job.BatchSize, Workers: job.Workers,
			Model: job.Model, Corr: job.Corr, LoadCOV: job.LoadCOV, ParetoShape: job.ParetoShape,
		}
		mks, err = sim.RealizeSeeded(ss, opt, job.Seeds, job.Base)
		return err
	})
	if err != nil {
		return err
	}
	if err := fw.sendJSON(KAck, Ack{Seq: job.Seq}); err != nil {
		return err
	}
	for j, v := range mks {
		if err := fw.write(KSimVec, encodeVec(j, v)); err != nil {
			return err
		}
	}
	return fw.write(KSimDone, nil)
}

// simState is the per-connection sim setup bound by KSimSetup: the decoded
// workload and schedules every subsequent KSimRange realizes against.
type simState struct {
	id       uint64
	ss       []*schedule.Schedule
	opt      sim.Options
	hbMillis int
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
// range's ack.
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
		hbMillis: su.HeartbeatMillis,
	}, nil
}

// handleSimRange realizes one pipelined seed window against the bound
// setup and streams the response — KAck, one KSimVec per schedule, KSimDone
// — in a single coalesced flush. Everything is computed before the first
// response byte, so a failure never leaves a half-written sequence.
func handleSimRange(fw *frameWriter, setup *simState, payload []byte) error {
	var req SimRange
	if err := parseJSON(payload, &req); err != nil {
		return err
	}
	if setup == nil || setup.id != req.Setup {
		return &setupError{req.Setup}
	}
	var mks [][]float64
	err := withHeartbeat(fw, setup.hbMillis, func() error {
		var err error
		mks, err = sim.RealizeSeeded(setup.ss, setup.opt, req.Seeds, req.Base)
		return err
	})
	if err != nil {
		return err
	}
	return fw.batch(func(w *bufio.Writer) error {
		if err := sendJSON(w, KAck, Ack{Seq: req.Seq}); err != nil {
			return err
		}
		for j, v := range mks {
			if err := wio.WriteFrame(w, KSimVec, encodeVec(j, v)); err != nil {
				return err
			}
		}
		return wio.WriteFrame(w, KSimDone, nil)
	})
}

func handleEpoch(fw *frameWriter, host *islandHost, payload []byte) error {
	if host == nil {
		return fmt.Errorf("dist: epoch before init")
	}
	var req EpochReq
	if err := parseJSON(payload, &req); err != nil {
		return err
	}
	if host.replayCached(fw, req.Seq) {
		return nil
	}
	err := withHeartbeat(fw, host.hbMillis, func() error { return host.runEpoch(req) })
	if err != nil {
		return err
	}
	return host.reply(fw, KIslandState, host.statesSeq(req.Seq))
}

func handleMigrate(fw *frameWriter, host *islandHost, payload []byte) error {
	if host == nil {
		return fmt.Errorf("dist: migrate before init")
	}
	var req MigrateReq
	if err := parseJSON(payload, &req); err != nil {
		return err
	}
	if host.replayCached(fw, req.Seq) {
		return nil
	}
	if err := host.runMigrate(req); err != nil {
		return err
	}
	return host.reply(fw, KIslandState, host.statesSeq(req.Seq))
}

func handleCheckpoint(fw *frameWriter, host *islandHost, payload []byte) error {
	if host == nil {
		return fmt.Errorf("dist: checkpoint before init")
	}
	var req CheckpointReq
	if err := parseJSON(payload, &req); err != nil {
		return err
	}
	if host.replayCached(fw, req.Seq) {
		return nil
	}
	cks := host.checkpoints()
	cks.Seq = req.Seq
	return host.reply(fw, KCheckpointState, cks)
}

// islandHost is the worker-side state of an island-sharded solve: the
// solver engine for the workload plus the hosted ga.Island states. It is
// the same state machine ga.RunIslands drives in-process; the coordinator
// supplies the barrier ordering and the ring migrants. The coordinator's
// graceful-degradation path reuses it verbatim via hostIslands when the
// pool is exhausted.
type islandHost struct {
	eng      *robust.Engine
	islands  []*ga.Island[*robust.Chromosome] // ascending island index
	hbMillis int
	initSeq  uint64

	// At-most-once replay cache: the kind and encoded body of the last
	// response, keyed by the request sequence that produced it.
	lastSeq  uint64
	lastKind byte
	lastBody []byte
}

// replayCached answers a duplicated request (same non-zero Seq as the last
// one processed) from the cached response, reporting whether it did.
func (h *islandHost) replayCached(fw *frameWriter, seq uint64) bool {
	if seq == 0 || seq != h.lastSeq || h.lastBody == nil {
		return false
	}
	_ = fw.write(h.lastKind, h.lastBody)
	return true
}

// reply sends a response and records it for duplicate replay.
func (h *islandHost) reply(fw *frameWriter, kind byte, v any) error {
	body, err := marshalJSON(v)
	if err != nil {
		return err
	}
	var seq uint64
	switch resp := v.(type) {
	case IslandStates:
		seq = resp.Seq
	case IslandCheckpoints:
		seq = resp.Seq
	}
	if seq != 0 {
		h.lastSeq, h.lastKind, h.lastBody = seq, kind, body
	}
	return fw.write(kind, body)
}

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
		Workers:        o.Workers,
	})
	if err != nil {
		return nil, err
	}
	h, err := hostIslands(eng, init.Islands)
	if err != nil {
		return nil, err
	}
	h.hbMillis = init.HeartbeatMillis
	h.initSeq = init.Seq
	return h, nil
}

// hostIslands builds the island state machines on an existing engine: fresh
// from each seed, or resumed from a checkpoint when one is attached (the
// recovery path). The coordinator's in-process degradation uses this
// directly with its own engine.
func hostIslands(eng *robust.Engine, seeds []IslandSeed) (*islandHost, error) {
	h := &islandHost{eng: eng}
	sorted := append([]IslandSeed(nil), seeds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Island < sorted[j].Island })
	cfg := eng.Config()
	for _, is := range sorted {
		var st *ga.Island[*robust.Chromosome]
		var err error
		if is.Restore != nil {
			if is.Restore.Island != is.Island {
				return nil, fmt.Errorf("dist: checkpoint for island %d attached to island %d", is.Restore.Island, is.Island)
			}
			st, err = restoredIsland(cfg, is.Restore)
		} else {
			st, err = ga.NewIsland(cfg, is.Island, rng.New(is.Seed))
		}
		if err != nil {
			return nil, err
		}
		h.islands = append(h.islands, st)
	}
	return h, nil
}

// restoredIsland rebuilds a ga.Island from its wire checkpoint.
func restoredIsland(cfg ga.Config[*robust.Chromosome], ck *IslandCheckpoint) (*ga.Island[*robust.Chromosome], error) {
	if len(ck.Pop) != len(ck.FitBits) {
		return nil, fmt.Errorf("dist: checkpoint for island %d has %d genotypes, %d fitnesses", ck.Island, len(ck.Pop), len(ck.FitBits))
	}
	snap := ga.IslandSnapshot[*robust.Chromosome]{
		Pop:          make([]*robust.Chromosome, len(ck.Pop)),
		Fit:          make([]float64, len(ck.FitBits)),
		Best:         robust.NewChromosome(ck.Best.Order, ck.Best.Proc),
		BestFit:      math.Float64frombits(ck.BestFitnessBits),
		SinceImprove: ck.SinceImprove,
		Rng: rng.State{
			S:        ck.Rng.S,
			Spare:    math.Float64frombits(ck.Rng.SpareBits),
			HasSpare: ck.Rng.HasSpare,
		},
	}
	for i, g := range ck.Pop {
		snap.Pop[i] = robust.NewChromosome(g.Order, g.Proc)
	}
	for i, b := range ck.FitBits {
		snap.Fit[i] = math.Float64frombits(b)
	}
	return ga.RestoreIsland(cfg, ck.Island, snap)
}

// states snapshots every hosted island's running best in island order.
func (h *islandHost) states() IslandStates {
	out := IslandStates{States: make([]IslandState, 0, len(h.islands))}
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

// statesSeq is states stamped with the request sequence it answers.
func (h *islandHost) statesSeq(seq uint64) IslandStates {
	out := h.states()
	out.Seq = seq
	return out
}

// checkpoints serializes every hosted island's full resumable state, in
// island order. Snapshot is a pure read: the rng stream does not advance,
// so checkpointing never perturbs the trajectory.
func (h *islandHost) checkpoints() IslandCheckpoints {
	out := IslandCheckpoints{Checkpoints: make([]IslandCheckpoint, 0, len(h.islands))}
	for _, st := range h.islands {
		snap := st.Snapshot()
		ck := IslandCheckpoint{
			Island:          st.Index(),
			Pop:             make([]Genotype, len(snap.Pop)),
			FitBits:         make([]uint64, len(snap.Fit)),
			SinceImprove:    snap.SinceImprove,
			BestFitnessBits: math.Float64bits(snap.BestFit),
			Rng: RNGState{
				S:         snap.Rng.S,
				SpareBits: math.Float64bits(snap.Rng.Spare),
				HasSpare:  snap.Rng.HasSpare,
			},
		}
		bo, bp := snap.Best.Genes()
		ck.Best = Genotype{Order: bo, Proc: bp}
		for i, ch := range snap.Pop {
			o, p := ch.Genes()
			ck.Pop[i] = Genotype{Order: o, Proc: p}
		}
		for i, f := range snap.Fit {
			ck.FitBits[i] = math.Float64bits(f)
		}
		out.Checkpoints = append(out.Checkpoints, ck)
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

// runEpoch advances every hosted island. Pure state transition — the
// serving layer (or the coordinator's in-process fallback) owns the
// response.
func (h *islandHost) runEpoch(req EpochReq) error {
	for _, st := range h.islands {
		if err := st.Epoch(req.StartGen, req.Gens); err != nil {
			return err
		}
	}
	return nil
}

// runMigrate delivers this barrier's migrants to their target islands.
func (h *islandHost) runMigrate(req MigrateReq) error {
	for _, m := range req.Migrants {
		st, err := h.find(m.Island)
		if err != nil {
			return err
		}
		// The migrant arrives as a bare genotype; the island re-evaluates
		// it locally. The fitness is a pure function of the genotype, so
		// losing the sender's memoized metrics changes speed, never values.
		if err := st.Migrate(robust.NewChromosome(m.Genotype.Order, m.Genotype.Proc)); err != nil {
			return err
		}
	}
	return nil
}
