package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"robsched/internal/obs"
	"robsched/internal/wio"
)

// Typed failure sentinels. Every transport-level error the coordinator sees
// is a *WorkerError wrapping one of these (or the underlying I/O error), so
// callers discriminate with errors.Is/As instead of string matching.
var (
	// ErrDeadline marks a liveness deadline expiry: the worker produced no
	// frame (not even a heartbeat) within the per-frame window, or the whole
	// exchange overran its job budget. The connection is killed to unblock
	// the pending pipe operation, so the worker is gone either way.
	ErrDeadline = errors.New("dist: liveness deadline exceeded")
	// ErrPoolExhausted is returned by checkouts once every worker has died
	// and the respawn budget (if any) is spent — the caller should degrade
	// to in-process computation rather than wait forever.
	ErrPoolExhausted = errors.New("dist: worker pool exhausted")
	// ErrPoolClosed is returned by checkouts after Close.
	ErrPoolClosed = errors.New("dist: pool is closed")
)

// Endpoint is the coordinator's side of one worker's transport. W carries
// frames to the worker, R carries its responses — a pipe pair for local
// workers, the two halves of one net.Conn for TCP workers. Kill, when
// non-nil, tears the worker down abruptly (used by the pool's fault
// injection, deadline enforcement and by Close for workers that no longer
// respond); Wait, when non-nil, reaps the worker after its transport
// closes. RTT, when positive, is the transport's measured (or injected)
// round-trip hint; the coordinator's flow control sizes its per-worker
// pipeline window from it.
type Endpoint struct {
	W    io.WriteCloser
	R    io.Reader
	Kill func()
	Wait func() error
	RTT  time.Duration
}

// readDeadliner and writeDeadliner match transport ends that enforce
// deadlines natively per direction (*os.File over OS pipes, net.Conn over
// TCP). When an end supports its direction, withDeadline arms the kernel
// poller instead of spawning a watchdog goroutine per operation — the
// hardened fault-free path then costs one timer update per frame instead
// of a goroutine, a channel and two scheduler handoffs. The directions are
// armed independently, so a sender goroutine and a receiver goroutine can
// run deadlines on one connection concurrently.
type readDeadliner interface {
	SetReadDeadline(t time.Time) error
}
type writeDeadliner interface {
	SetWriteDeadline(t time.Time) error
}

// connSide is the liveness state of one direction of a connection. timeout
// bounds the wall-clock of each frame operation; jobDeadline bounds the
// whole in-flight exchange (heartbeats re-arm the former, never the
// latter, so a worker stuck in a loop that still pulses is eventually
// declared dead). Both zero by default: the fault-free path takes the
// direct call with no goroutine or timer. set is the native per-direction
// deadline hook, nil when the transport lacks one (in-memory pipes) or a
// call ever failed.
type connSide struct {
	timeout     time.Duration
	jobDeadline time.Time
	set         func(time.Time) error
}

func (s *connSide) arm(frame, budget time.Duration) {
	s.timeout = frame
	if budget > 0 {
		s.jobDeadline = time.Now().Add(budget)
	} else {
		s.jobDeadline = time.Time{}
	}
}

// Conn is one live worker connection. A Conn is checked out of the Pool by
// exactly one goroutine at a time. Within that checkout, at most one
// goroutine may write (send/sendNoFlush/flush, guarded by ws) while one
// other reads (recv, guarded by rs) — the split the pipelined dispatcher
// relies on; no further concurrency is supported.
type Conn struct {
	id  int
	ep  Endpoint
	bw  *bufio.Writer
	fr  *wio.FrameReader
	rtt time.Duration

	// rs/ws are the read-side and write-side liveness states.
	rs, ws connSide

	p    *Pool // owning pool (telemetry + accounting)
	dead bool  // set under p.mu by discard; a dead conn is never re-idled
}

// arm configures liveness for the next exchange on both directions: frame
// is the per-frame deadline, budget the whole-exchange bound (either 0
// disables that check).
func (c *Conn) arm(frame, budget time.Duration) {
	c.rs.arm(frame, budget)
	c.ws.arm(frame, budget)
}

// armRead and armWrite configure one direction's liveness independently —
// the pipelined dispatcher budgets its sender and receiver separately.
func (c *Conn) armRead(frame, budget time.Duration)  { c.rs.arm(frame, budget) }
func (c *Conn) armWrite(frame, budget time.Duration) { c.ws.arm(frame, budget) }

// withDeadline runs one transport operation under side s's liveness
// bounds. Transports that enforce deadlines natively (subprocess workers:
// OS pipes are pollable; TCP sockets) take the cheap path — arm the kernel
// poller for that direction, run, disarm. In-memory pipes carry no
// SetDeadline, so expiry is enforced the only way that cannot leak: kill
// the endpoint (closing its pipes), which unblocks the pending read or
// write, then reap the operation goroutine. Either way an expired
// operation leaves the worker dead, never half-trusted.
func (c *Conn) withDeadline(s *connSide, op func() error) error {
	wait := s.timeout
	if !s.jobDeadline.IsZero() {
		rem := time.Until(s.jobDeadline)
		if rem <= 0 {
			if c.ep.Kill != nil {
				c.ep.Kill()
			}
			return ErrDeadline
		}
		if wait <= 0 || rem < wait {
			wait = rem
		}
	}
	if wait <= 0 {
		return op()
	}
	if s.set != nil {
		if s.set(time.Now().Add(wait)) == nil {
			err := op()
			_ = s.set(time.Time{})
			if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
				if c.ep.Kill != nil {
					c.ep.Kill()
				}
				return ErrDeadline
			}
			return err
		}
		// Native deadlines refused (non-pollable fd): fall back for good.
		s.set = nil
	}
	done := make(chan error, 1)
	go func() { done <- op() }()
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		if c.ep.Kill != nil {
			c.ep.Kill()
		}
		<-done // the kill unblocked the pipe op; reap it
		return ErrDeadline
	}
}

// werr attributes a transport failure to this worker, preserving the cause
// for errors.Is/As. An error that is already a *WorkerError (the KErr path)
// passes through untouched.
func (c *Conn) werr(frame byte, err error) error {
	if err == nil {
		return nil
	}
	var we *WorkerError
	if errors.As(err, &we) {
		return err
	}
	return &WorkerError{Worker: c.id, Frame: frame, Err: err}
}

// send writes one JSON-payload frame and flushes it to the worker.
func (c *Conn) send(kind byte, v any) error {
	return c.werr(kind, c.withDeadline(&c.ws, func() error {
		if err := sendJSON(c.bw, kind, v); err != nil {
			return err
		}
		return c.bw.Flush()
	}))
}

// sendNoFlush queues one JSON-payload frame into the write buffer without
// flushing — the write-coalescing path: a dispatch round batches several
// control frames and ends with one flush, one syscall, one packet.
func (c *Conn) sendNoFlush(kind byte, v any) error {
	return c.werr(kind, c.withDeadline(&c.ws, func() error {
		return sendJSON(c.bw, kind, v)
	}))
}

// flush pushes the queued frames to the transport.
func (c *Conn) flush() error {
	return c.werr(0, c.withDeadline(&c.ws, func() error {
		return c.bw.Flush()
	}))
}

// sendEmpty writes one empty frame and flushes it.
func (c *Conn) sendEmpty(kind byte) error {
	return c.werr(kind, c.withDeadline(&c.ws, func() error {
		if err := wio.WriteFrame(c.bw, kind, nil); err != nil {
			return err
		}
		return c.bw.Flush()
	}))
}

// recv reads the next non-heartbeat frame. The payload aliases the
// connection's frame reader buffer and is valid until the next recv.
// KHeartbeat frames are consumed silently, each one re-arming the
// per-frame deadline — a computing worker that pulses stays alive; a stuck
// one times out. A KErr frame is decoded into a *WorkerError with Remote
// set (the job failed, the worker is healthy) — except one coded "setup",
// which means a pipelined range outran its lost setup frame: that is a
// transport casualty (Remote false), so the dispatcher reassigns the range
// instead of failing the job. Transport failures come back as *WorkerError
// wrapping the I/O cause.
func (c *Conn) recv() (byte, []byte, error) {
	for {
		var kind byte
		var payload []byte
		err := c.withDeadline(&c.rs, func() error {
			var e error
			kind, payload, e = c.fr.Read()
			return e
		})
		if err != nil {
			return 0, nil, c.werr(kind, err)
		}
		if kind == KHeartbeat {
			if c.p != nil {
				c.p.Obs.Counter("dist.heartbeats").Inc()
			}
			continue
		}
		if kind == KErr {
			var em ErrMsg
			if err := parseJSON(payload, &em); err != nil {
				return 0, nil, c.werr(KErr, err)
			}
			return 0, nil, &WorkerError{Worker: c.id, Frame: KErr, Remote: em.Code != ErrCodeSetup, Err: errors.New(em.Error)}
		}
		return kind, payload, nil
	}
}

// WorkerError attributes a failure to one worker. Remote distinguishes the
// two classes the coordinator must treat differently: a remote error arrived
// as a KErr frame over a healthy connection (the job is invalid, the worker
// is fine — surface it to the caller), while a local one is a transport or
// protocol failure (the worker is unusable — discard it and reassign the
// work). Unwrap exposes the cause, so errors.Is(err, io.ErrUnexpectedEOF),
// errors.Is(err, ErrDeadline) and friends work across every dispatch path.
type WorkerError struct {
	Worker int   // pool index of the worker
	Frame  byte  // frame kind in flight when the failure happened (0 if unknown)
	Remote bool  // reported by the worker itself over a healthy connection
	Err    error // underlying cause
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("dist: worker %d (frame %d): %v", e.Worker, e.Frame, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// Pool hands out worker connections to coordinator goroutines. Checked-out
// connections are exclusive; concurrent coordinator calls (e.g. the
// experiment harness evaluating several graphs at once) share the pool and
// block until a worker frees up. A connection reported dead via discard
// leaves the pool permanently; when the last live worker is gone, waiting
// and future get calls fail with ErrPoolExhausted instead of blocking
// forever — unless Respawn is armed, in which case the pool launches
// replacement workers under a capped exponential backoff first.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	idle   []*Conn
	all    []*Conn
	live   int
	closed bool

	// Obs, when set, receives pool-level counters (dist.respawns,
	// dist.respawn_failures, dist.heartbeats). Nil is a no-op.
	Obs *obs.Registry

	spawn       func() (Endpoint, error)
	spawnLeft   int
	respawning  bool
	nextBackoff time.Duration
}

const (
	respawnBackoffBase = 50 * time.Millisecond
	respawnBackoffCap  = 2 * time.Second
	// closeGrace bounds the polite KShutdown handshake during Close; a
	// worker that stopped reading its pipe is killed instead of hanging
	// the shutdown forever.
	closeGrace = time.Second
)

// NewPool wraps caller-supplied endpoints (one per worker) into a pool.
// NewLocalPool and NewProcPool are the stock constructors; tests inject
// sabotaged endpoints through this one.
func NewPool(eps []Endpoint) *Pool {
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	for _, ep := range eps {
		p.addConnLocked(ep)
	}
	return p
}

// addConnLocked wraps an endpoint into a new live idle connection. The
// caller must hold mu (or be the constructor, before the pool is shared).
func (p *Pool) addConnLocked(ep Endpoint) *Conn {
	c := &Conn{
		id:  len(p.all),
		ep:  ep,
		bw:  bufio.NewWriterSize(ep.W, 1<<16),
		fr:  wio.NewFrameReader(bufio.NewReaderSize(ep.R, 1<<16)),
		rtt: ep.RTT,
		p:   p,
	}
	if wd, ok := ep.W.(writeDeadliner); ok {
		c.ws.set = wd.SetWriteDeadline
	}
	if rd, ok := ep.R.(readDeadliner); ok {
		c.rs.set = rd.SetReadDeadline
	}
	p.all = append(p.all, c)
	p.idle = append(p.idle, c)
	p.live++
	return c
}

// Respawn arms worker replacement: when no worker is available, checkouts
// launch up to budget replacements via spawn, sleeping with exponential
// backoff (50ms doubling, capped at 2s) between attempts. Off by default —
// fault-injection tests rely on dead-is-dead accounting. Call before the
// pool is shared across goroutines.
func (p *Pool) Respawn(spawn func() (Endpoint, error), budget int) {
	p.spawn = spawn
	p.spawnLeft = budget
}

// LocalEndpoint serves one protocol worker on in-memory pipes inside this
// process: the full wire codec and worker loop with no process boundary.
func LocalEndpoint() Endpoint {
	jobR, jobW := io.Pipe()
	resR, resW := io.Pipe()
	go func() {
		err := ServeWorker(jobR, resW)
		resW.CloseWithError(err)
		jobR.CloseWithError(err)
	}()
	return Endpoint{
		W:    jobW,
		R:    resR,
		Kill: func() { jobW.CloseWithError(io.ErrClosedPipe); resR.CloseWithError(io.ErrClosedPipe) },
	}
}

// NewLocalPool serves n protocol workers on in-memory pipes. It backs the
// property tests and the -shards path in environments where subprocess
// spawning is unavailable.
func NewLocalPool(n int) *Pool {
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i] = LocalEndpoint()
	}
	return NewPool(eps)
}

// ProcEndpoint returns a spawner for worker subprocesses running bin args...
// (typically the running executable with the `worker` subcommand), suitable
// both for building a pool and as a Respawn hook. Worker stderr passes
// through to this process's stderr, so a crashing worker stays visible.
func ProcEndpoint(bin string, args ...string) func() (Endpoint, error) {
	return func() (Endpoint, error) {
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return Endpoint{}, fmt.Errorf("dist: worker stdin: %w", err)
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return Endpoint{}, fmt.Errorf("dist: worker stdout: %w", err)
		}
		if err := cmd.Start(); err != nil {
			return Endpoint{}, fmt.Errorf("dist: spawning worker: %w", err)
		}
		return Endpoint{
			W:    stdin,
			R:    stdout,
			Kill: func() { _ = cmd.Process.Kill() },
			Wait: cmd.Wait,
		}, nil
	}
}

// NewSpawnPool builds a pool of n workers from a spawner, tearing down the
// partial pool when any spawn fails. The same spawner can then be handed to
// Respawn so replacements come up identically to the originals.
func NewSpawnPool(n int, spawn func() (Endpoint, error)) (*Pool, error) {
	eps := make([]Endpoint, 0, n)
	for i := 0; i < n; i++ {
		ep, err := spawn()
		if err != nil {
			for _, prev := range eps {
				if prev.Kill != nil {
					prev.Kill()
				}
				if prev.Wait != nil {
					_ = prev.Wait()
				}
			}
			return nil, fmt.Errorf("dist: worker %d: %w", i, err)
		}
		eps = append(eps, ep)
	}
	return NewPool(eps), nil
}

// NewProcPool spawns n worker subprocesses and connects to their
// stdin/stdout.
func NewProcPool(n int, bin string, args ...string) (*Pool, error) {
	return NewSpawnPool(n, ProcEndpoint(bin, args...))
}

// Size returns the pool's current worker count including respawned and dead
// workers (the scatter width), not the live count.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.all)
}

// Live returns the number of workers not yet reported dead.
func (p *Pool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// get checks out an idle worker, blocking while all live workers are busy.
// It fails with ErrPoolClosed once the pool is closed, and with
// ErrPoolExhausted once every worker has died and respawn (if armed) is out
// of budget — never blocking forever on a pool that cannot recover.
func (p *Pool) get() (*Conn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil, ErrPoolClosed
		}
		// FIFO checkout spreads jobs across workers instead of re-hammering
		// the most recently returned one.
		if len(p.idle) > 0 {
			c := p.idle[0]
			p.idle = append(p.idle[:0], p.idle[1:]...)
			return c, nil
		}
		if p.live == 0 {
			if !p.respawnLocked() {
				return nil, fmt.Errorf("%w: every worker is dead", ErrPoolExhausted)
			}
			continue
		}
		p.cond.Wait()
	}
}

// tryGet checks a worker out without waiting for busy workers to free up:
// an idle worker is returned immediately; otherwise a respawn is attempted
// (when armed), and failing that the call errors with ErrPoolExhausted.
// Recovery paths that already hold other connections use this — blocking in
// get would deadlock against themselves.
func (p *Pool) tryGet() (*Conn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil, ErrPoolClosed
		}
		if len(p.idle) > 0 {
			c := p.idle[0]
			p.idle = append(p.idle[:0], p.idle[1:]...)
			return c, nil
		}
		if !p.respawnLocked() {
			return nil, fmt.Errorf("%w: no idle worker and no respawn budget", ErrPoolExhausted)
		}
	}
}

// respawnLocked attempts to bring one replacement worker up. It returns
// false when respawn is off or out of budget (the caller should fail), and
// true when pool state may have changed and the caller should re-check.
// Called with mu held; the lock is dropped across the backoff sleep and the
// spawn itself.
func (p *Pool) respawnLocked() bool {
	for p.respawning {
		// Another goroutine is mid-respawn; wait for its outcome.
		p.cond.Wait()
		if p.closed || len(p.idle) > 0 || p.live > 0 {
			return true
		}
	}
	if p.spawn == nil || p.spawnLeft <= 0 {
		return false
	}
	p.respawning = true
	p.spawnLeft--
	delay := p.nextBackoff
	if p.nextBackoff == 0 {
		p.nextBackoff = respawnBackoffBase
	} else if p.nextBackoff < respawnBackoffCap {
		p.nextBackoff *= 2
	}
	p.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	ep, err := p.spawn()
	p.mu.Lock()
	p.respawning = false
	defer p.cond.Broadcast()
	if err != nil {
		p.Obs.Counter("dist.respawn_failures").Inc()
		return true // budget may remain; the caller's loop re-decides
	}
	if p.closed {
		if ep.Kill != nil {
			ep.Kill()
		}
		if ep.Wait != nil {
			_ = ep.Wait()
		}
		return true
	}
	p.addConnLocked(ep)
	p.Obs.Counter("dist.respawns").Inc()
	return true
}

// put returns a healthy worker to the pool. A connection already discarded
// (or a pool already closed) is left alone — put after discard is a no-op,
// never a double-free of the live count.
func (p *Pool) put(c *Conn) {
	p.mu.Lock()
	if c.dead || p.closed {
		p.mu.Unlock()
		return
	}
	c.rs.arm(0, 0)
	c.ws.arm(0, 0)
	p.idle = append(p.idle, c)
	p.mu.Unlock()
	p.cond.Signal()
}

// discard removes a dead or misbehaving worker permanently, closing its
// endpoint and waking waiters so they can fail over or error out. It is
// idempotent: concurrent or repeated discards of one connection decrement
// the live count exactly once.
func (p *Pool) discard(c *Conn) {
	p.mu.Lock()
	if c.dead {
		p.mu.Unlock()
		return
	}
	c.dead = true
	p.live--
	p.mu.Unlock()
	if c.ep.Kill != nil {
		c.ep.Kill()
	}
	_ = c.ep.W.Close()
	if c.ep.Wait != nil {
		_ = c.ep.Wait()
	}
	p.cond.Broadcast()
}

// KillWorker abruptly severs worker i's connection without any protocol
// shutdown — the fault-injection hook behind the worker-death tests (and
// usable against live runs: the next coordinator call on that worker fails
// and triggers reassignment). The worker is not removed from the pool here;
// the coordinator discards it when a call fails.
func (p *Pool) KillWorker(i int) {
	p.mu.Lock()
	if i < 0 || i >= len(p.all) {
		p.mu.Unlock()
		return
	}
	c := p.all[i]
	p.mu.Unlock()
	if c.ep.Kill != nil {
		c.ep.Kill()
	}
}

// Close shuts the pool down: every idle worker gets a KShutdown and its
// pipes closed; workers still checked out are torn down abruptly. Safe to
// call once all coordinator calls have returned.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	idle := make(map[*Conn]bool, len(p.idle))
	for _, c := range p.idle {
		idle[c] = true
	}
	p.idle = nil
	conns := make([]*Conn, len(p.all))
	copy(conns, p.all)
	dead := make(map[*Conn]bool)
	for _, c := range conns {
		if c.dead {
			dead[c] = true
		}
	}
	p.mu.Unlock()
	p.cond.Broadcast()
	for _, c := range conns {
		switch {
		case dead[c]:
			// Already torn down by discard.
		case idle[c]:
			// Bounded politeness: a worker that no longer drains its pipe
			// would block the shutdown frame forever; the deadline kills it
			// instead (withDeadline's expiry path).
			c.arm(closeGrace, 0)
			_ = c.sendEmpty(KShutdown)
			_ = c.ep.W.Close()
			if c.ep.Wait != nil {
				_ = c.ep.Wait()
			}
		default:
			if c.ep.Kill != nil {
				c.ep.Kill()
			}
			if c.ep.Wait != nil {
				_ = c.ep.Wait()
			}
		}
	}
	return nil
}
