package dist

import (
	"errors"
	"fmt"
	"sync"
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
// Timeout, when positive, arms liveness: every frame sent to a worker must
// be taken within Timeout, and the worker's whole answer must arrive within
// the exchange's job budget (see jobBudget), or the worker is declared
// dead and killed: its realization ranges are reassigned, and an island
// solve finishes in process (see Solve). The transport ends enforce both
// deadlines themselves. Timeout 0 (the default) disables them: the
// fault-free fast path pays nothing for the machinery.
type Coordinator struct {
	Pool  *Pool
	Obs   *obs.Registry
	Trace *obs.Tracer

	// Timeout is the liveness unit; see the type comment.
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
}

// counter bumps both the aggregate and the per-worker form of a counter.
// With telemetry off it returns before building either name.
func (c *Coordinator) counter(name string, worker int) {
	if c.Obs == nil {
		return
	}
	c.Obs.Counter("dist." + name).Inc()
	c.Obs.Counter(fmt.Sprintf("dist.worker%d.%s", worker, name)).Inc()
}

// noteDeath records a dead worker, distinguishing deadline expiries (the
// answer the coordinator was owed never came) from transport failures.
func (c *Coordinator) noteDeath(worker int, err error) {
	if c.Obs == nil {
		return
	}
	if errors.Is(err, ErrDeadline) {
		c.counter("deadline_expiries", worker)
	}
	c.counter("worker_deaths", worker)
}

// jobBudget bounds the reads of one exchange from its cost estimate in work
// units (realizations×schedules for a sim range, generations×population×
// hosted islands for an epoch): Timeout × (1 + units/1000), capped at 64
// Timeouts. 0 when liveness is off.
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
	w, err := sim.SharedWorkload(ss)
	if err != nil {
		return nil, err
	}
	if c.Trace != nil {
		defer c.Trace.Scope("dist").Span("realize_all",
			obs.F("realizations", float64(opt.Realizations)),
			obs.F("schedules", float64(len(ss))),
			obs.F("shards", float64(c.Pool.Size())),
		)()
	}
	seeds := sim.SeedVector(opt.Realizations, opt.Antithetic, root)
	wlDoc := wio.NewWorkloadJSON(w)
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
			ID:          c.Pool.seq.Add(1),
			Workload:    wlDoc,
			Schedules:   sDocs,
			Antithetic:  opt.Antithetic,
			Workers:     opt.Workers,
			Model:       opt.Model,
			Corr:        opt.Corr,
			LoadCOV:     opt.LoadCOV,
			ParetoShape: opt.ParetoShape,
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
		Antithetic: opt.Antithetic, Workers: opt.Workers,
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
// and the seq its result must echo.
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
//
// Sending and receiving need two goroutines because a transport may be
// synchronous: on a net.Pipe (LocalEndpoint) a write blocks until the peer
// reads it, so one loop that sends and then reads deadlocks as soon as the
// worker writes its answer while the coordinator is still writing the next
// range.
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
			it := flight{ri: ri, seq: d.c.Pool.seq.Add(1)}
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
			conn.ws.arm(d.c.Timeout)
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
		if err := d.recvRange(conn, it); err != nil {
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

// recvRange retires one flight: one KSimResult of the expected size,
// echoing the flight's seq, decoded straight into the range's window of
// each output vector. Any other answer is a worker-fatal *WorkerError.
func (d *simDispatch) recvRange(conn *Conn, it flight) error {
	sh := d.ranges[it.ri]
	conn.rs.arm(d.c.jobBudget(float64(sh.width * len(d.out))))
	kind, payload, err := conn.recv()
	if err != nil {
		return err
	}
	if kind != KSimResult {
		return conn.werr(kind, fmt.Errorf("dist: frame kind %d, want range result", kind))
	}
	if err := decodeResult(d.out, sh.base, sh.width, it.seq, payload); err != nil {
		return conn.werr(KSimResult, err)
	}
	if d.commit(it.ri) {
		d.c.counter("sim_ranges", conn.id)
	}
	return nil
}

// EvaluateAll is the scatter/gather form of sim.EvaluateAll: metrics
// assembled in place from the sharded realization vectors, which it owns,
// bit-identical to the single-process call for any shard count.
func (c *Coordinator) EvaluateAll(ss []*schedule.Schedule, opt sim.Options, root *rng.Source) ([]sim.Metrics, error) {
	mks, err := c.RealizeAll(ss, opt, root)
	if err != nil {
		return nil, err
	}
	return sim.MetricsAll(ss, mks, opt.Deadline), nil
}

// solveHost is one island-hosting worker of a solve: its connection (nil
// once the worker has failed or been released) and the islands it owns, in
// ascending order.
type solveHost struct {
	conn    *Conn
	islands []int
}

// solveRun is the state of one island-sharded Solve: its hosts and the
// islands' current bests, folded from the hosts' answers.
type solveRun struct {
	c     *Coordinator
	sopt  SolverOptions
	bests []IslandState
	hosts []*solveHost
}

// errUnhosted reports that the pool had no idle worker for a host.
var errUnhosted = errors.New("dist: no idle worker to host islands")

// Solve is the island-sharded form of robust.Solve: the GA islands are
// hosted by worker processes (round-robin when there are more islands than
// live workers) and the coordinator drives the epoch barriers, routes the
// ring migrants in island order, applies the global stagnation rule and
// picks the final best — the exact control flow of the in-process
// ga.RunIslands, so the trajectory and the returned schedule are
// bit-identical for any worker count.
//
// Recovery has one rule. When the pool cannot host every island, or any
// host's exchange fails in transport, the failed hosts are discarded, the
// healthy ones go back to the pool, dist.degraded_solves counts the solve,
// and robust.Solve runs it in process from root as the caller passed it.
// robust.Solve is the reference the sharded trajectory reproduces, so the
// result is the same, and root ends where the fault-free path leaves it. A
// fault costs one in-process solve from generation 0; the fault-free path
// pays nothing for it. A job-level error that a healthy worker reports
// (KErr) is returned as a remote *WorkerError and never falls back.
//
// Concurrent Solve calls may share one pool. Hosting never waits for a busy
// worker, so a call that finds too few idle workers solves in process.
//
// Telemetry (Options.Obs/Trace/Observer) and OnGeneration stay in the
// coordinator process and are not forwarded to workers; Solve rejects the
// hooks that would require cross-process streaming. Options.Cache stays
// in the coordinator as well: its engine evaluates nothing and leaves the
// cache unclaimed for the in-process solve, the one run that reads it.
func (c *Coordinator) Solve(w *platform.Workload, opt robust.Options, root *rng.Source) (*robust.Result, error) {
	cache := opt.Cache
	opt.Cache = nil
	eng, err := robust.NewEngine(w, opt)
	if err != nil {
		return nil, err
	}
	opt = eng.Opt
	opt.Cache = cache
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
	entry := *root
	// Island seeds, derived in island order: rng.New(seeds[i]) in a worker
	// is exactly the root.Split() fan-out of the in-process run, and root
	// advances identically.
	seeds := make([]uint64, opt.Islands)
	for i := range seeds {
		seeds[i] = root.SplitSeed()
	}
	s := &solveRun{
		c: c,
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
		bests: make([]IslandState, opt.Islands),
	}
	res, err := s.run(eng, wio.NewWorkloadJSON(w), seeds)
	s.release()
	if errors.Is(err, errUnhosted) || transient(err) {
		c.Obs.Counter("dist.degraded_solves").Inc()
		return robust.Solve(w, opt, &entry)
	}
	return res, err
}

// run hosts the islands, seeds them on their workers and drives them
// through every barrier of the solve.
func (s *solveRun) run(eng *robust.Engine, wl wio.WorkloadJSON, seeds []uint64) (*robust.Result, error) {
	k := len(seeds)
	if err := s.host(k); err != nil {
		return nil, err
	}
	err := s.barrier(KIslandInit, "island_inits", 1, func(h *solveHost, seq uint64) any {
		init := IslandInit{Workload: wl, Opt: s.sopt, Seq: seq}
		for _, i := range h.islands {
			init.Islands = append(init.Islands, IslandSeed{Island: i, Seed: seeds[i]})
		}
		return init
	})
	if err != nil {
		return nil, err
	}
	every := eng.Opt.MigrationEvery
	if every <= 0 {
		every = ga.DefaultMigrationEvery
	}
	totalGens := eng.Opt.MaxGenerations
	gen := 0
	stagnated := false
	for gen < totalGens {
		epoch := min(every, totalGens-gen)
		err := s.barrier(KEpoch, "epochs", epoch, func(_ *solveHost, seq uint64) any {
			return EpochReq{StartGen: gen, Gens: epoch, Seq: seq}
		})
		if err != nil {
			return nil, err
		}
		gen += epoch
		if gen < totalGens {
			// Ring migration: island i receives the pre-migration best of
			// island i-1, exactly like the in-process barrier.
			err := s.barrier(KMigrate, "migrations", 1, func(h *solveHost, seq uint64) any {
				req := MigrateReq{Seq: seq}
				for _, i := range h.islands {
					req.Migrants = append(req.Migrants, Migrant{Island: i, Genotype: s.bests[(i-1+k)%k].Best})
				}
				return req
			})
			if err != nil {
				return nil, err
			}
		}
		if eng.Opt.Stagnation > 0 {
			all := true
			for i := range s.bests {
				if s.bests[i].SinceImprove < eng.Opt.Stagnation {
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
		Generations: gen,
		Stagnated:   stagnated,
	})
}

// host checks out one worker per host, at most one per island, and deals
// the islands round-robin: host j owns islands {i : i mod hosts == j}.
// Hosts are sized by the live workers, so a pool with a dead slot still
// hosts on the rest. Checkouts never wait for a busy worker; errUnhosted
// reports that a host found none idle.
func (s *solveRun) host(k int) error {
	nw := min(s.c.Pool.Live(), k)
	if nw < 1 {
		return errUnhosted
	}
	for j := 0; j < nw; j++ {
		conn, err := s.c.Pool.tryGet()
		if err != nil {
			return errUnhosted
		}
		s.hosts = append(s.hosts, &solveHost{conn: conn})
	}
	for i := 0; i < k; i++ {
		h := s.hosts[i%nw]
		h.islands = append(h.islands, i)
	}
	return nil
}

// barrier runs one exchange on every host. It first sends each host the
// request msg builds for it, stamped with a fresh Seq, so msg reads the
// bests as they stood before the barrier. It then reads every answer in
// host order; the workers compute concurrently. gens sizes each read's job
// budget, in generations of the host's islands; the budget is armed when
// that read starts, so a host is not charged for the time spent reading
// the hosts before it.
//
// The answer to every request sent is read even after another host has
// failed: a healthy worker must not go back to the pool with an answer
// unread. A host that fails in transport is discarded at once. The error
// returned is the first remote one (a job the workers reject), else the
// first transport failure.
func (s *solveRun) barrier(kind byte, name string, gens int, msg func(h *solveHost, seq uint64) any) error {
	seqs := make([]uint64, len(s.hosts))
	errs := make([]error, len(s.hosts))
	for j, h := range s.hosts {
		seqs[j] = s.c.Pool.seq.Add(1)
		h.conn.ws.arm(s.c.Timeout)
		errs[j] = h.conn.send(kind, msg(h, seqs[j]))
	}
	var failed error
	for j, h := range s.hosts {
		err := errs[j]
		if err == nil {
			h.conn.rs.arm(s.c.jobBudget(float64(gens * s.sopt.PopSize * len(h.islands))))
			err = s.foldStates(h, seqs[j])
		}
		if err == nil {
			s.c.counter(name, h.conn.id)
			continue
		}
		if transient(err) {
			s.c.noteDeath(h.conn.id, err)
			s.c.Pool.discard(h.conn)
			h.conn = nil
		}
		if failed == nil || transient(failed) && !transient(err) {
			failed = err
		}
	}
	return failed
}

// foldStates receives host h's KIslandState answer, verifies that it echoes
// seq and lists every island the host owns exactly once, in ascending
// order, and folds the states into bests. Any other answer is a
// worker-fatal *WorkerError: folding an incomplete one would leave an
// island's stale best feeding migration, the stagnation rule and the final
// pick.
func (s *solveRun) foldStates(h *solveHost, seq uint64) error {
	conn := h.conn
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

// release winds the hosts down: each remaining worker gets KIslandFinish
// and goes back to the pool, or is discarded when it does not answer KOK.
func (s *solveRun) release() {
	for _, h := range s.hosts {
		conn := h.conn
		if conn == nil {
			continue
		}
		h.conn = nil
		conn.arm(s.c.Timeout, s.c.jobBudget(0))
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
