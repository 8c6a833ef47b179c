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
// terminate the loop with an error. The worker holds two pieces of state
// per connection: the sim setup bound by KSimSetup, until the next setup
// replaces it, and the island host built by KIslandInit, until
// KIslandFinish or a replacing init.
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
		case KSimSetup:
			setup, jobErr = newSimState(payload)
		case KSimRange:
			jobErr = handleSimRange(fw, setup, payload)
		case KIslandInit:
			host, jobErr = newIslandHost(payload)
			if jobErr == nil {
				jobErr = host.reply(fw, host.statesSeq(host.initSeq))
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
		if drained(drain) {
			return nil // graceful stop: the in-flight op answered; exit
		}
	}
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
	err := withHeartbeat(fw, host.hbMillis, func() error { host.runEpoch(req); return nil })
	if err != nil {
		return err
	}
	return host.reply(fw, host.statesSeq(req.Seq))
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
	return host.reply(fw, host.statesSeq(req.Seq))
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

	// At-most-once replay cache: the encoded body of the last response,
	// keyed by the request sequence that produced it.
	lastSeq  uint64
	lastBody []byte
}

// replayCached answers a duplicated request (same non-zero Seq as the last
// one processed) from the cached response, reporting whether it did.
func (h *islandHost) replayCached(fw *frameWriter, seq uint64) bool {
	if seq == 0 || seq != h.lastSeq || h.lastBody == nil {
		return false
	}
	_ = fw.write(KIslandState, h.lastBody)
	return true
}

// reply sends a KIslandState response and records it for duplicate replay.
func (h *islandHost) reply(fw *frameWriter, states IslandStates) error {
	body, err := marshalJSON(states)
	if err != nil {
		return err
	}
	if states.Seq != 0 {
		h.lastSeq, h.lastBody = states.Seq, body
	}
	return fw.write(KIslandState, body)
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

// hostIslands builds the island state machines on an existing engine, each
// fresh from its seed. The coordinator's in-process degradation uses this
// directly with its own engine.
func hostIslands(eng *robust.Engine, seeds []IslandSeed) (*islandHost, error) {
	h := &islandHost{eng: eng}
	sorted := append([]IslandSeed(nil), seeds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Island < sorted[j].Island })
	cfg := eng.Config()
	for _, is := range sorted {
		st, err := ga.NewIsland(cfg, is.Island, rng.New(is.Seed))
		if err != nil {
			return nil, err
		}
		h.islands = append(h.islands, st)
	}
	return h, nil
}

// states snapshots every hosted island's running best in island order. The
// genes are copies: the in-process fallback keeps the states across epochs,
// and the island recycles its best once a later epoch drops it.
func (h *islandHost) states() IslandStates {
	out := IslandStates{States: make([]IslandState, 0, len(h.islands))}
	for _, st := range h.islands {
		b, bf := st.Best()
		order, proc := b.Genes()
		out.States = append(out.States, IslandState{
			Island:          st.Index(),
			Best:            Genotype{Order: order, Proc: proc},
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
func (h *islandHost) runEpoch(req EpochReq) {
	for _, st := range h.islands {
		st.Epoch(req.StartGen, req.Gens)
	}
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
