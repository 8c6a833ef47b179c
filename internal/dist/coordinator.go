package dist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"robsched/internal/ga"
	"robsched/internal/obs"
	"robsched/internal/platform"
	"robsched/internal/rng"
	"robsched/internal/robust"
	"robsched/internal/schedule"
	"robsched/internal/sim"
	"robsched/internal/wio"
)

// Coordinator scatters work over a worker pool and gathers the results.
// All fields may be shared across concurrent calls; Obs and Trace are
// optional (nil disables telemetry). Per-worker counters are published as
// dist.worker<id>.* so a skewed or dying worker is visible in a snapshot.
//
// Timeout, when positive, arms the liveness machinery: every frame exchange
// with a worker must produce a frame (a response or a heartbeat — workers
// are asked to pulse at Timeout/4 while computing) within Timeout, and every
// whole job exchange must finish within a budget derived from its cost
// estimate, or the worker is declared dead, killed, and its work reassigned.
// Timeout 0 (the default) disables deadlines and heartbeats entirely: the
// fault-free fast path pays nothing for the machinery.
type Coordinator struct {
	Pool  *Pool
	Obs   *obs.Registry
	Trace *obs.Tracer

	// Timeout is the per-frame liveness deadline; see the type comment.
	Timeout time.Duration

	// PipelineDepth is the credit window of the sim dispatcher: how many
	// realization ranges are kept in flight per worker connection. 1
	// restores strict request/response dispatch (the worker idles for a
	// full round trip between ranges); 0 (the default) derives a depth
	// from the transport's RTT hint — see pipelineDepth.
	PipelineDepth int
	// RangeSize overrides the realization-range granularity (realizations
	// per dispatched range). 0 derives it from the workload and pool size —
	// see rangeWidth.
	RangeSize int

	// seq numbers every request that expects an attributable response, so a
	// transport that duplicates or replays frames can never pass a stale
	// response off as the current one.
	seq atomic.Uint64
}

// counter bumps both the aggregate and the per-worker form of a counter.
func (c *Coordinator) counter(name string, worker int) {
	c.Obs.Counter("dist." + name).Inc()
	c.Obs.Counter(fmt.Sprintf("dist.worker%d.%s", worker, name)).Inc()
}

// noteDeath records a dead worker, distinguishing deadline expiries (the
// heartbeat the coordinator was owed never came) from transport failures.
func (c *Coordinator) noteDeath(worker int, err error) {
	if errors.Is(err, ErrDeadline) {
		c.counter("heartbeat_misses", worker)
	}
	c.counter("worker_deaths", worker)
}

// heartbeatMillis is the pulse interval requested from workers: a quarter
// of the frame deadline, so a healthy-but-busy worker always lands several
// pulses per deadline window. 0 when liveness is off.
func (c *Coordinator) heartbeatMillis() int {
	if c.Timeout <= 0 {
		return 0
	}
	ms := int(c.Timeout / 4 / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	return ms
}

// jobBudget bounds a whole job exchange from a per-job cost estimate in
// work units (realizations×schedules for sim windows, generations×popsize
// for epochs): one frame deadline per 1000 units on top of the base, capped
// at 64 deadlines. Heartbeats bound the gap between frames; the budget
// bounds the total, so a worker stuck in a loop that still pulses is
// eventually declared dead too.
func (c *Coordinator) jobBudget(units float64) time.Duration {
	if c.Timeout <= 0 {
		return 0
	}
	mult := 1 + units/1000
	if mult > 64 {
		mult = 64
	}
	return time.Duration(float64(c.Timeout) * mult)
}

// transient reports whether an exchange failure means "this worker is
// unusable, reassign the work" (I/O errors, deadlines, protocol garbage) as
// opposed to a remote job-level error over a healthy connection.
func transient(err error) bool {
	var we *WorkerError
	if errors.As(err, &we) {
		return !we.Remote
	}
	return false
}

// shardRange is one contiguous realization window.
type shardRange struct{ base, width int }

// partition cuts r realizations into at most n contiguous near-equal
// windows in index order: the first r%n windows carry one extra
// realization. With r < n the trailing empty windows are dropped.
func partition(r, n int) []shardRange {
	if n > r {
		n = r
	}
	out := make([]shardRange, 0, n)
	base := 0
	for i := 0; i < n; i++ {
		width := r / n
		if i < r%n {
			width++
		}
		out = append(out, shardRange{base, width})
		base += width
	}
	return out
}

// partitionWidth cuts total realizations into contiguous windows of the
// given width (the last one short) in index order.
func partitionWidth(total, width int) []shardRange {
	if width < 1 {
		width = 1
	}
	out := make([]shardRange, 0, (total+width-1)/width)
	for base := 0; base < total; base += width {
		w := width
		if base+w > total {
			w = total - base
		}
		out = append(out, shardRange{base, w})
	}
	return out
}

// rangeWidth picks the realization-range granularity: several ranges per
// worker, so pipelines fill, a straggling range rebalances onto whichever
// worker frees up first, and a worker death forfeits only a small window —
// but never below a floor where per-range framing overhead would show.
func (c *Coordinator) rangeWidth(total, workers int) int {
	if c.RangeSize > 0 {
		return c.RangeSize
	}
	w := total / (workers * 8)
	if w < 32 {
		w = 32
	}
	return w
}

// pipelineDepth sizes the per-connection credit window from the
// transport's RTT hint — a small bandwidth-delay product: depth 2 on a
// zero-latency transport (the worker computes one range while the next is
// already queued behind it), plus one credit per 200µs of round trip so
// the link pipe stays full at wide-area latencies, capped where deeper
// queues only add memory. PipelineDepth overrides; 1 disables pipelining.
func (c *Coordinator) pipelineDepth(rtt time.Duration) int {
	d := c.PipelineDepth
	if d == 0 {
		d = 2 + int(rtt/(200*time.Microsecond))
	}
	if d < 1 {
		d = 1
	}
	if d > 32 {
		d = 32
	}
	return d
}

// RealizeAll is the scatter/gather form of sim.RealizeAll: the realization
// range is partitioned into contiguous windows (several per pool worker —
// see rangeWidth), the workload and schedules are bound to each worker
// connection once via KSimSetup, and the tiny per-window KSimRange requests
// are pipelined over every connection with a credit window sized from the
// transport's RTT (see pipelineDepth). Result vectors commit out of
// arrival order directly into their windows; the assembled makespans — and
// every metric computed from them — are bit-identical to the single-process
// sim.RealizeAll for any shard count, worker count, or arrival order,
// because the seed vector (and the root stream advance) is computed exactly
// as the single-process run computes it, each window is realized from its
// own (base, seeds), and window placement is by index, not by arrival.
//
// A worker that dies (or, with Timeout armed, stalls) mid-range forfeits
// only its in-flight windows: they are requeued and reassigned to whichever
// live worker frees up first; with no live workers left the leftover
// windows are realized in-process. Either way a window's seeds and base are
// unchanged, so the results are too — a window computed twice (the
// false-positive death of a slow-but-alive worker) overwrites itself with
// identical bytes.
func (c *Coordinator) RealizeAll(ss []*schedule.Schedule, opt sim.Options, root *rng.Source) ([][]float64, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if len(ss) == 0 {
		return nil, fmt.Errorf("dist: no schedules to realize")
	}
	if c.Trace != nil {
		defer c.Trace.Scope("dist").Span("realize_all",
			obs.F("realizations", float64(opt.Realizations)),
			obs.F("schedules", float64(len(ss))),
			obs.F("shards", float64(c.Pool.Size())),
		)()
	}
	seeds := sim.SeedVector(opt.Realizations, opt.Antithetic, root)
	wlDoc := wio.NewWorkloadJSON(ss[0].Workload())
	sDocs := make([]wio.ScheduleJSON, len(ss))
	for i, s := range ss {
		sDocs[i] = wio.NewScheduleJSON(s)
	}
	out := make([][]float64, len(ss))
	for j := range out {
		out[j] = make([]float64, opt.Realizations)
	}
	nw := c.Pool.Size()
	if nw < 1 {
		nw = 1 // no workers: inline fallback realizes every window
	}
	ranges := partitionWidth(opt.Realizations, c.rangeWidth(opt.Realizations, nw))
	d := &simDispatch{
		c:      c,
		out:    out,
		seeds:  seeds,
		ranges: ranges,
		setup: SimSetup{
			ID:              c.seq.Add(1),
			Workload:        wlDoc,
			Schedules:       sDocs,
			Antithetic:      opt.Antithetic,
			BatchSize:       opt.BatchSize,
			Workers:         opt.Workers,
			Model:           opt.Model,
			Corr:            opt.Corr,
			LoadCOV:         opt.LoadCOV,
			ParetoShape:     opt.ParetoShape,
			HeartbeatMillis: c.heartbeatMillis(),
		},
		committed: make([]bool, len(ranges)),
	}
	runners := nw
	if runners > len(ranges) {
		runners = len(ranges)
	}
	var wg sync.WaitGroup
	for i := 0; i < runners; i++ {
		// Deal each runner its first range up front: every checked-out
		// connection is guaranteed to be exercised at least once, so a dead
		// worker is always detected (and its range requeued) rather than
		// depending on goroutine scheduling to route work its way.
		ri, ok := d.take()
		if !ok {
			break
		}
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			d.run(first)
		}(ri)
	}
	wg.Wait()
	if d.fatalErr != nil {
		return nil, d.fatalErr
	}
	// Inline drain: whatever the pool could not finish (exhausted, closed,
	// or empty from the start) is realized in-process — identical vectors by
	// construction.
	wOpt := sim.Options{
		Antithetic: opt.Antithetic, BatchSize: opt.BatchSize, Workers: opt.Workers,
		Model: opt.Model, Corr: opt.Corr, LoadCOV: opt.LoadCOV, ParetoShape: opt.ParetoShape,
	}
	for ri, sh := range ranges {
		if d.committed[ri] {
			continue
		}
		c.Obs.Counter("dist.inline_ranges").Inc()
		mks, err := sim.RealizeSeeded(ss, wOpt, seeds[sh.base:sh.base+sh.width], sh.base)
		if err != nil {
			return nil, err
		}
		for j := range out {
			copy(out[j][sh.base:sh.base+sh.width], mks[j])
		}
	}
	return out, nil
}

// flight is one dispatched range riding the credit window: its range index
// and the seq its ack must echo.
type flight struct {
	ri  int
	seq uint64
}

// simDispatch is the shared state of one RealizeAll fan-out: the work list
// (ranges yet to be taken plus ranges requeued by dead workers), the commit
// ledger, and the first fatal (non-transient) error. Every method locks;
// the out windows themselves need no locking because a range is written
// only by the connection currently holding it — a range is requeued only
// after its holder's exchange failed, and rewrites are byte-identical.
type simDispatch struct {
	c      *Coordinator
	out    [][]float64
	seeds  []uint64
	ranges []shardRange
	setup  SimSetup

	mu        sync.Mutex
	next      int
	requeued  []int
	committed []bool
	fatalErr  error
}

// take hands out the next range to dispatch — requeued ranges first (they
// block completion), then fresh ones — or reports that no undispatched work
// remains.
func (d *simDispatch) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fatalErr != nil {
		return 0, false
	}
	if n := len(d.requeued); n > 0 {
		ri := d.requeued[n-1]
		d.requeued = d.requeued[:n-1]
		return ri, true
	}
	if d.next < len(d.ranges) {
		ri := d.next
		d.next++
		return ri, true
	}
	return 0, false
}

// giveBack returns an uncommitted in-flight range to the work list after
// its worker died.
func (d *simDispatch) giveBack(ri int) {
	d.mu.Lock()
	d.requeued = append(d.requeued, ri)
	d.mu.Unlock()
}

// commit marks a range's vectors as delivered; false means a duplicate
// delivery (already committed by an earlier holder) that overwrote the
// window with identical bytes.
func (d *simDispatch) commit(ri int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.committed[ri] {
		return false
	}
	d.committed[ri] = true
	return true
}

// fatal records the first job-level (non-transient) error; take stops
// issuing work once one is set.
func (d *simDispatch) fatal(err error) {
	d.mu.Lock()
	if d.fatalErr == nil {
		d.fatalErr = err
	}
	d.mu.Unlock()
}

func (d *simDispatch) hasWork() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fatalErr == nil && (len(d.requeued) > 0 || d.next < len(d.ranges))
}

// run is one dispatch runner: check a worker out, pipeline ranges over it
// until the work dries up or the connection dies, repeat. It arrives with
// its first range pre-taken (first) and re-takes between connections, so a
// runner never checks a worker out without work in hand. Pool exhaustion
// (or closure) ends the runner; leftover ranges fall to the inline drain.
func (d *simDispatch) run(first int) {
	ri, ok := first, true
	for ok {
		conn, err := d.c.Pool.get()
		if err != nil {
			d.giveBack(ri)
			return
		}
		d.runConn(conn, ri)
		ri, ok = d.take()
	}
}

// runConn drives one connection with a credit-based pipeline: a sender
// goroutine takes ranges and ships them (setup first, once), acquiring a
// credit from the bounded inflight channel before each send; this
// goroutine is the receiver, retiring flights in send order and releasing
// their credits. Writes coalesce in the connection's buffer and flush when
// the window fills or the work dries up, so a round of small control
// frames costs one syscall. A transport failure stops the sender, requeues
// every unretired flight, and discards the connection; a remote job-level
// error is fatal to the job but the remaining flights still drain so the
// connection comes back clean. The caller's pre-taken range (first) is the
// sender's first dispatch.
func (d *simDispatch) runConn(conn *Conn, first int) {
	depth := d.c.pipelineDepth(conn.rtt)
	inflight := make(chan flight, depth)
	stopSend := make(chan struct{})
	sendDone := make(chan struct{})
	var sendErr error
	go func() {
		defer close(sendDone)
		defer close(inflight)
		setupSent := false
		next := first
		for {
			ri := next
			if ri < 0 {
				var ok bool
				ri, ok = d.take()
				if !ok {
					break
				}
			}
			next = -1
			it := flight{ri: ri, seq: d.c.seq.Add(1)}
			// Acquire a credit before the bytes go out. A full window is
			// the flush point: the worker gets everything queued so far
			// while we wait for a credit (or for the receiver to stop us).
			select {
			case inflight <- it:
			default:
				if err := conn.flush(); err != nil {
					d.giveBack(ri)
					sendErr = err
					return
				}
				select {
				case inflight <- it:
				case <-stopSend:
					d.giveBack(ri)
					return
				}
			}
			conn.armWrite(d.c.Timeout, 0)
			if !setupSent {
				if err := conn.sendNoFlush(KSimSetup, d.setup); err != nil {
					sendErr = err
					return
				}
				setupSent = true
			}
			sh := d.ranges[it.ri]
			req := SimRange{
				Setup: d.setup.ID,
				Base:  sh.base,
				Seeds: d.seeds[sh.base : sh.base+sh.width],
				Seq:   it.seq,
			}
			if err := conn.sendNoFlush(KSimRange, req); err != nil {
				sendErr = err
				return
			}
		}
		if err := conn.flush(); err != nil {
			sendErr = err
		}
	}()
	var recvErr error
	for it := range inflight {
		if recvErr != nil {
			d.giveBack(it.ri)
			continue
		}
		if err := d.recvRange(conn, it.ri, it.seq); err != nil {
			if transient(err) {
				recvErr = err
				close(stopSend)
				d.giveBack(it.ri)
				continue
			}
			// The job itself is bad; the worker is fine. Keep draining the
			// remaining flights so no stale response frames linger on the
			// connection.
			d.fatal(err)
		}
	}
	<-sendDone
	switch {
	case recvErr != nil:
		d.c.noteDeath(conn.id, recvErr)
		d.c.Pool.discard(conn)
	case sendErr != nil:
		d.c.noteDeath(conn.id, sendErr)
		d.c.Pool.discard(conn)
	default:
		d.c.Pool.put(conn)
	}
}

// recvRange retires one flight: the seq-echoing KAck, one vector per
// schedule decoded straight into the range's window of each output vector,
// and KSimDone. Protocol violations — a mismatched seq, a vector for the
// wrong schedule or of the wrong width — are worker-fatal *WorkerErrors.
func (d *simDispatch) recvRange(conn *Conn, ri int, seq uint64) error {
	sh := d.ranges[ri]
	conn.armRead(d.c.Timeout, d.c.jobBudget(float64(sh.width*len(d.out))))
	kind, payload, err := conn.recv()
	if err != nil {
		return err
	}
	if kind != KAck {
		return conn.werr(kind, fmt.Errorf("dist: frame kind %d, want range ack", kind))
	}
	var ack Ack
	if err := parseJSON(payload, &ack); err != nil {
		return conn.werr(KAck, err)
	}
	if ack.Seq != seq {
		return conn.werr(KAck, fmt.Errorf("dist: range ack for seq %d, want %d", ack.Seq, seq))
	}
	for j := range d.out {
		kind, payload, err := conn.recv()
		if err != nil {
			return err
		}
		if kind != KSimVec {
			return conn.werr(kind, fmt.Errorf("dist: frame kind %d, want sim vector", kind))
		}
		if err := decodeVecInto(d.out[j][sh.base:sh.base+sh.width], j, payload); err != nil {
			return conn.werr(KSimVec, err)
		}
	}
	kind, _, err = conn.recv()
	if err != nil {
		return err
	}
	if kind != KSimDone {
		return conn.werr(kind, fmt.Errorf("dist: frame kind %d, want sim done", kind))
	}
	if d.commit(ri) {
		d.c.counter("sim_ranges", conn.id)
	}
	return nil
}

// EvaluateAll is the scatter/gather form of sim.EvaluateAll: metrics
// assembled from the sharded realization vectors, bit-identical to the
// single-process call for any shard count.
func (c *Coordinator) EvaluateAll(ss []*schedule.Schedule, opt sim.Options, root *rng.Source) ([]sim.Metrics, error) {
	mks, err := c.RealizeAll(ss, opt, root)
	if err != nil {
		return nil, err
	}
	out := make([]sim.Metrics, len(ss))
	for j, s := range ss {
		out[j] = sim.MetricsFromSamples(s.Makespan(), mks[j], opt.Deadline)
	}
	return out, nil
}

// islandOp is one barrier operation of an island solve, recorded in the op
// log so a recovered host can replay its way from the island seeds back to
// the current round. Exactly one field is set. Migrants hold the full ring's
// routing for that barrier — the genotypes as they were at the barrier, not
// references into mutable state — so a replay is a pure function of
// (seeds, oplog).
type islandOp struct {
	epoch    *EpochReq
	migrants []Migrant
}

// solveHost is one island-hosting slot of a solve: a remote worker
// connection, or — after graceful degradation — an in-process islandHost
// built on the coordinator's own engine.
type solveHost struct {
	conn    *Conn
	local   *islandHost
	islands []int
}

func (h *solveHost) owns(island int) bool {
	for _, i := range h.islands {
		if i == island {
			return true
		}
	}
	return false
}

// solveRun is the mutable state of one island-sharded Solve: the per-island
// seeds (the recovery baseline), the op log of every barrier so far, and
// the current best states folded from host responses.
type solveRun struct {
	c     *Coordinator
	eng   *robust.Engine
	wlDoc wio.WorkloadJSON
	sopt  SolverOptions
	k     int
	seeds []uint64
	oplog []islandOp
	bests []IslandState
	hosts []*solveHost
}

// Solve is the island-sharded form of robust.Solve: the GA islands are
// hosted by worker processes (round-robin when there are more islands than
// workers) and the coordinator drives the epoch barriers, routes the ring
// migrants in island order, applies the global stagnation rule and picks
// the final best — the exact control flow of the in-process ga.RunIslands,
// so the trajectory and the returned schedule are bit-identical for any
// worker count.
//
// A worker that dies mid-run is not fatal: its islands are re-initialised
// from their seeds on a fresh worker (respawned by the pool when armed) or a
// surviving one, every barrier op so far is replayed from the op log, and
// the trajectory continues bit-identically — an island's state is a pure
// function of its seed and the migrants it received. With the pool
// exhausted the islands fold into the coordinator process itself (graceful
// degradation) and the solve still completes, still bit-identically. A
// recovery replays the whole run so far, so it costs at most one more
// solve's worth of GA work for the dead host's islands; the fault-free path
// pays nothing for it.
//
// Telemetry (Options.Obs/Trace/Observer) and OnGeneration stay in the
// coordinator process and are not forwarded to workers; Solve rejects the
// hooks that would require cross-process streaming. Concurrent Solve calls
// sharing one pool are not supported (each checks out several workers for
// its whole run and could deadlock another).
func (c *Coordinator) Solve(w *platform.Workload, opt robust.Options, root *rng.Source) (*robust.Result, error) {
	eng, err := robust.NewEngine(w, opt)
	if err != nil {
		return nil, err
	}
	opt = eng.Opt
	if opt.Islands < 2 {
		return nil, fmt.Errorf("dist: island solve needs Options.Islands >= 2, got %d", opt.Islands)
	}
	if opt.OnGeneration != nil || opt.Observer != nil {
		return nil, fmt.Errorf("dist: per-generation hooks are not supported across processes")
	}
	if c.Trace != nil {
		defer c.Trace.Scope("dist").Span("solve_islands",
			obs.F("islands", float64(opt.Islands)),
			obs.F("workers", float64(c.Pool.Size())),
		)()
	}
	k := opt.Islands
	// Island seeds, derived in island order: rng.New(seeds[i]) in a worker
	// is exactly the root.Split() fan-out of the in-process run, and root
	// advances identically.
	seeds := make([]uint64, k)
	for i := range seeds {
		seeds[i] = root.SplitSeed()
	}
	s := &solveRun{
		c:     c,
		eng:   eng,
		wlDoc: wio.NewWorkloadJSON(w),
		sopt: SolverOptions{
			Mode:           int(opt.Mode),
			Eps:            opt.Eps,
			SlackMetric:    int(opt.SlackMetric),
			PopSize:        opt.PopSize,
			CrossoverRate:  opt.CrossoverRate,
			MutationRate:   opt.MutationRate,
			MaxGenerations: opt.MaxGenerations,
			Stagnation:     opt.Stagnation,
			NoHEFTSeed:     opt.NoHEFTSeed,
			NoMetricsCache: opt.NoMetricsCache,
		},
		k:     k,
		seeds: seeds,
		bests: make([]IslandState, k),
	}

	nw := c.Pool.Size()
	if nw > k {
		nw = k
	}
	if nw < 1 {
		nw = 1 // empty pool: one host, folded in-process immediately
	}
	// Round-robin hosting: host j owns islands {i : i mod nw == j}.
	for j := 0; j < nw; j++ {
		s.hosts = append(s.hosts, &solveHost{})
	}
	for i := 0; i < k; i++ {
		h := s.hosts[i%nw]
		h.islands = append(h.islands, i)
	}
	defer s.release()
	for _, h := range s.hosts {
		if err := s.attach(h); err != nil {
			return nil, err
		}
	}

	every := opt.MigrationEvery
	if every <= 0 {
		every = ga.DefaultMigrationEvery
	}
	totalGens := opt.MaxGenerations
	gen := 0
	stagnated := false
	for gen < totalGens {
		epoch := every
		if gen+epoch > totalGens {
			epoch = totalGens - gen
		}
		if err := s.runOp(islandOp{epoch: &EpochReq{StartGen: gen, Gens: epoch}}); err != nil {
			return nil, err
		}
		gen += epoch
		if gen < totalGens {
			// Ring migration, snapshot first: island i receives the
			// pre-migration best of island i-1, exactly like the in-process
			// barrier.
			migrants := make([]Migrant, 0, k)
			for i := 0; i < k; i++ {
				from := (i - 1 + k) % k
				migrants = append(migrants, Migrant{Island: i, Genotype: s.bests[from].Best})
			}
			if err := s.runOp(islandOp{migrants: migrants}); err != nil {
				return nil, err
			}
		}
		if opt.Stagnation > 0 {
			all := true
			for i := range s.bests {
				if s.bests[i].SinceImprove < opt.Stagnation {
					all = false
					break
				}
			}
			if all {
				stagnated = true
				break
			}
		}
	}

	// pickBest: strictly-greater comparison keeps the earliest island on
	// ties, matching the in-process rule.
	bi := 0
	for i := 1; i < k; i++ {
		if s.bests[i].BestFitness() > s.bests[bi].BestFitness() {
			bi = i
		}
	}
	win := s.bests[bi]
	return eng.Result(ga.Result[*robust.Chromosome]{
		Best:        robust.NewChromosome(win.Best.Order, win.Best.Proc),
		BestFitness: win.BestFitness(),
		Generations: gen,
		Stagnated:   stagnated,
	})
}

// initFor builds the (re)init message for a host: every owned island with
// its seed.
func (s *solveRun) initFor(h *solveHost) IslandInit {
	init := IslandInit{
		Workload:        s.wlDoc,
		Opt:             s.sopt,
		Seq:             s.c.seq.Add(1),
		HeartbeatMillis: s.c.heartbeatMillis(),
	}
	for _, i := range h.islands {
		init.Islands = append(init.Islands, IslandSeed{Island: i, Seed: s.seeds[i]})
	}
	return init
}

// attach brings a host online for the first time: a pool worker when one is
// available, the in-process fallback otherwise. Transport failures recover
// via recoverHost (which re-inits), so attach only fails on genuine errors.
func (s *solveRun) attach(h *solveHost) error {
	for {
		conn, err := s.c.Pool.tryGet()
		if err != nil {
			return s.foldLocal(h)
		}
		if err := s.initRemote(conn, h); err != nil {
			if !transient(err) {
				return err
			}
			s.c.noteDeath(conn.id, err)
			s.c.Pool.discard(conn)
			continue
		}
		h.conn = conn
		s.c.counter("island_inits", conn.id)
		return nil
	}
}

// initRemote runs the init exchange and replays the oplog on a candidate
// connection, folding the resulting states. On success the host's islands
// are fully caught up to the current round.
func (s *solveRun) initRemote(conn *Conn, h *solveHost) error {
	init := s.initFor(h)
	conn.arm(s.c.Timeout, s.c.jobBudget(float64(s.sopt.PopSize*len(h.islands))))
	if err := conn.send(KIslandInit, init); err != nil {
		return err
	}
	if err := s.foldStates(h, conn, init.Seq); err != nil {
		return err
	}
	for _, op := range s.oplog {
		if err := s.remoteOp(conn, h, op); err != nil {
			return err
		}
	}
	return nil
}

// remoteOp runs one barrier op on a remote host and folds its states.
func (s *solveRun) remoteOp(conn *Conn, h *solveHost, op islandOp) error {
	seq := s.c.seq.Add(1)
	if op.epoch != nil {
		req := *op.epoch
		req.Seq = seq
		conn.arm(s.c.Timeout, s.c.jobBudget(float64(req.Gens*s.sopt.PopSize*len(h.islands))))
		if err := conn.send(KEpoch, req); err != nil {
			return err
		}
	} else {
		req := MigrateReq{Seq: seq}
		for _, m := range op.migrants {
			if h.owns(m.Island) {
				req.Migrants = append(req.Migrants, m)
			}
		}
		conn.arm(s.c.Timeout, s.c.jobBudget(float64(s.sopt.PopSize*len(h.islands))))
		if err := conn.send(KMigrate, req); err != nil {
			return err
		}
	}
	return s.foldStates(h, conn, seq)
}

// localOp runs one barrier op on an in-process host and folds its states.
func (s *solveRun) localOp(h *solveHost, op islandOp) error {
	if op.epoch != nil {
		h.local.runEpoch(*op.epoch)
	} else {
		req := MigrateReq{}
		for _, m := range op.migrants {
			if h.owns(m.Island) {
				req.Migrants = append(req.Migrants, m)
			}
		}
		if err := h.local.runMigrate(req); err != nil {
			return err
		}
	}
	s.foldLocalStates(h)
	return nil
}

// foldStates receives one KIslandState response, verifies its sequence and
// that it lists every island the host owns exactly once, in ascending order,
// and folds the states into bests. Any other answer is a worker-fatal
// *WorkerError: folding an incomplete one would leave an island's stale best
// feeding migration, the stagnation rule and the final pick.
func (s *solveRun) foldStates(h *solveHost, conn *Conn, seq uint64) error {
	kind, payload, err := conn.recv()
	if err != nil {
		return err
	}
	if kind != KIslandState {
		return conn.werr(kind, fmt.Errorf("dist: frame kind %d, want island state", kind))
	}
	var states IslandStates
	if err := parseJSON(payload, &states); err != nil {
		return conn.werr(KIslandState, err)
	}
	if states.Seq != seq {
		return conn.werr(KIslandState, fmt.Errorf("dist: island state for seq %d, want %d", states.Seq, seq))
	}
	if len(states.States) != len(h.islands) {
		return conn.werr(KIslandState, fmt.Errorf("dist: worker %d reported %d island states, hosts %d islands", conn.id, len(states.States), len(h.islands)))
	}
	for i, st := range states.States {
		if st.Island != h.islands[i] {
			return conn.werr(KIslandState, fmt.Errorf("dist: worker %d reported island %d in place of island %d", conn.id, st.Island, h.islands[i]))
		}
		s.bests[st.Island] = st
	}
	return nil
}

func (s *solveRun) foldLocalStates(h *solveHost) {
	for _, st := range h.local.states().States {
		s.bests[st.Island] = st
	}
}

// runOp appends one barrier op to the oplog and executes it on every host
// in parallel. A host whose exchange fails in transport is recovered —
// re-seeded and replayed through the oplog, which includes this op — before
// the round completes, so callers observe only success or a genuine error.
func (s *solveRun) runOp(op islandOp) error {
	s.oplog = append(s.oplog, op)
	name := "epochs"
	if op.epoch == nil {
		name = "migrations"
	}
	errs := make([]error, len(s.hosts))
	var wg sync.WaitGroup
	for j, h := range s.hosts {
		wg.Add(1)
		go func(j int, h *solveHost) {
			defer wg.Done()
			if h.local != nil {
				errs[j] = s.localOp(h, op)
				return
			}
			if errs[j] = s.remoteOp(h.conn, h, op); errs[j] == nil {
				s.c.counter(name, h.conn.id)
			}
		}(j, h)
	}
	wg.Wait()
	for j, err := range errs {
		if err == nil {
			continue
		}
		if !transient(err) {
			return fmt.Errorf("dist: island %s failed: %w", name, err)
		}
		if err := s.recoverHost(s.hosts[j], err); err != nil {
			return err
		}
	}
	return nil
}

// recoverHost replaces a dead remote host: re-seed its islands on a fresh
// worker — respawned by the pool when armed — and replay every barrier op
// of the solve so far. With the pool exhausted the islands fold into the
// coordinator process instead. Either way the host ends bit-identically
// caught up with the no-fault trajectory.
func (s *solveRun) recoverHost(h *solveHost, cause error) error {
	if h.conn == nil {
		// The in-process host cannot fail in transport; a transient-shaped
		// error from it is a bug surfaced as a genuine failure.
		return fmt.Errorf("dist: in-process island host failed: %w", cause)
	}
	s.c.noteDeath(h.conn.id, cause)
	s.c.Pool.discard(h.conn)
	h.conn = nil
	if err := s.attach(h); err != nil {
		return err
	}
	s.c.Obs.Counter("dist.recoveries").Inc()
	return nil
}

// foldLocal degrades a host into the coordinator process: its islands are
// rebuilt on the coordinator's own engine from their seeds and replayed
// through the oplog. From here on the host computes in-process — slower,
// never wrong.
func (s *solveRun) foldLocal(h *solveHost) error {
	init := s.initFor(h)
	local, err := hostIslands(s.eng, init.Islands)
	if err != nil {
		return err
	}
	h.conn = nil
	h.local = local
	s.foldLocalStates(h)
	for _, op := range s.oplog {
		if err := s.localOp(h, op); err != nil {
			return err
		}
	}
	s.c.Obs.Counter("dist.degraded_solves").Inc()
	return nil
}

// release winds the hosts down: remote workers get KIslandFinish and return
// to the pool (or are discarded when they no longer answer); in-process
// hosts are simply dropped.
func (s *solveRun) release() {
	for _, h := range s.hosts {
		if h.conn == nil {
			h.local = nil
			continue
		}
		conn := h.conn
		h.conn = nil
		conn.arm(s.c.Timeout, 0)
		if err := conn.sendEmpty(KIslandFinish); err == nil {
			if kind, _, err := conn.recv(); err == nil && kind == KOK {
				s.c.Pool.put(conn)
				continue
			}
		}
		s.c.counter("worker_deaths", conn.id)
		s.c.Pool.discard(conn)
	}
}
