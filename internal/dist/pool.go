package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"robsched/internal/obs"
	"robsched/internal/wio"
)

// Typed failure sentinels. Every transport-level error the coordinator sees
// is a *WorkerError wrapping one of these (or the underlying I/O error), so
// callers discriminate with errors.Is/As instead of string matching.
var (
	// ErrDeadline marks a liveness deadline expiry: the worker did not
	// finish its exchange within the job budget, or did not take a frame
	// within Coordinator.Timeout. The connection is killed to unblock the
	// pending transport operation, so the worker is gone either way.
	ErrDeadline = errors.New("dist: liveness deadline exceeded")
	// ErrNoDeadline marks an exchange armed with a deadline on a transport
	// end that cannot enforce one (no SetReadDeadline/SetWriteDeadline, or
	// the call failed). The exchange fails at once instead of waiting
	// unbounded.
	ErrNoDeadline = errors.New("dist: transport end cannot enforce a deadline")
	// ErrPoolExhausted is returned by checkouts that find no idle worker
	// and may not wait for a busy one: every worker has died, or the caller
	// asked not to wait. The caller should degrade to in-process
	// computation rather than wait forever.
	ErrPoolExhausted = errors.New("dist: worker pool exhausted")
	// ErrPoolClosed is returned by checkouts after Close.
	ErrPoolClosed = errors.New("dist: pool is closed")
)

// Endpoint is the coordinator's side of one worker's transport. W carries
// frames to the worker, R carries its responses — a pipe pair for local
// workers, the two halves of one net.Conn for TCP workers. Liveness needs
// W to implement SetWriteDeadline and R SetReadDeadline, as OS pipes,
// sockets and net.Pipe do; an end without them fails every exchange armed
// with a deadline (ErrNoDeadline). Kill, when non-nil, tears the worker
// down abruptly (used by the pool's fault injection, deadline enforcement
// and by Close for workers that no longer respond); Wait, when non-nil,
// reaps the worker after its transport closes. RTT, when positive, is the
// transport's measured (or injected) round-trip hint; the coordinator's
// flow control sizes its per-worker pipeline window from it.
type Endpoint struct {
	W    io.WriteCloser
	R    io.Reader
	Kill func()
	Wait func() error
	RTT  time.Duration
}

// connSide is the liveness state of one direction of a connection: the
// deadline its transport operations must meet, and the end's own hook that
// enforces it (SetReadDeadline or SetWriteDeadline; nil when the end has
// none). The directions are armed independently, so a sender goroutine and
// a receiver goroutine can run deadlines on one connection concurrently.
// The deadline is zero by default, and the fault-free path then makes the
// direct call.
type connSide struct {
	deadline time.Time
	set      func(time.Time) error
}

// arm gives the side d from now; d <= 0 disarms it.
func (s *connSide) arm(d time.Duration) {
	s.deadline = time.Time{}
	if d > 0 {
		s.deadline = time.Now().Add(d)
	}
}

// Conn is one live worker connection. A Conn is checked out of the Pool by
// exactly one goroutine at a time. Within that checkout, at most one
// goroutine may write (send/sendNoFlush/flush, under ws) while one other
// reads (recv, under rs) — the split the pipelined dispatcher relies on; no
// further concurrency is supported.
type Conn struct {
	id  int
	ep  Endpoint
	bw  *bufio.Writer
	fr  *wio.FrameReader
	rtt time.Duration

	// rs/ws are the read-side and write-side liveness states.
	rs, ws connSide

	dead bool // set under the pool's mu by discard; a dead conn is never re-idled
}

// arm configures liveness for the next exchange: its sends must each finish
// within send, and every read of its answer before read from now (either 0
// disarms that direction).
func (c *Conn) arm(send, read time.Duration) {
	c.ws.arm(send)
	c.rs.arm(read)
}

// withDeadline runs one transport operation under side s's deadline,
// enforced by the transport end itself. An expiry kills the endpoint and
// returns ErrDeadline, so an expired worker is left dead, never
// half-trusted. No goroutine is started, and with no deadline
// armed the operation is a direct call.
func (c *Conn) withDeadline(s *connSide, op func() error) error {
	if s.deadline.IsZero() {
		return op()
	}
	if s.set == nil || s.set(s.deadline) != nil {
		return ErrNoDeadline
	}
	err := op()
	_ = s.set(time.Time{})
	if errors.Is(err, os.ErrDeadlineExceeded) {
		if c.ep.Kill != nil {
			c.ep.Kill()
		}
		return ErrDeadline
	}
	return err
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

// recv reads the next frame. The payload aliases the connection's frame
// reader buffer and is valid until the next recv. A KErr frame is decoded
// into a *WorkerError with Remote set (the job failed, the worker is
// healthy) — except one coded "setup", which means a pipelined range
// outran its lost setup frame: that is a transport casualty (Remote
// false), so the dispatcher reassigns the range instead of failing the
// job. Transport failures come back as *WorkerError wrapping the I/O
// cause.
func (c *Conn) recv() (byte, []byte, error) {
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
	if kind == KErr {
		var em ErrMsg
		if err := parseJSON(payload, &em); err != nil {
			return 0, nil, c.werr(KErr, err)
		}
		return 0, nil, &WorkerError{Worker: c.id, Frame: KErr, Remote: em.Code != ErrCodeSetup, Err: errors.New(em.Error)}
	}
	return kind, payload, nil
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
// leaves the pool for good: the pool never replaces a worker. When the last
// live worker is gone, waiting and future get calls fail with
// ErrPoolExhausted instead of blocking forever.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	idle   []*Conn
	all    []*Conn // every worker, dead ones included; fixed by NewPool
	live   int
	closed bool

	// seq numbers every sim setup and every request that expects an
	// attributable answer, so a transport that duplicates or replays frames
	// can never pass a stale answer off as the current one. Stale frames
	// stay on the pool's connections, so the numbers are drawn per pool:
	// coordinators sharing one never reuse a number.
	seq atomic.Uint64
}

// closeGrace bounds the polite KShutdown handshake during Close; a worker
// that stopped reading its pipe is killed instead of hanging the shutdown
// forever.
const closeGrace = time.Second

// NewPool wraps caller-supplied endpoints (one per worker) into a pool.
// NewLocalPool and NewSpawnPool are the stock constructors; tests inject
// sabotaged endpoints through this one.
func NewPool(eps []Endpoint) *Pool {
	p := &Pool{live: len(eps)}
	p.cond = sync.NewCond(&p.mu)
	for i, ep := range eps {
		c := &Conn{
			id:  i,
			ep:  ep,
			bw:  bufio.NewWriterSize(ep.W, 1<<16),
			fr:  wio.NewFrameReader(bufio.NewReaderSize(ep.R, 1<<16)),
			rtt: ep.RTT,
		}
		if wd, ok := ep.W.(interface{ SetWriteDeadline(time.Time) error }); ok {
			c.ws.set = wd.SetWriteDeadline
		}
		if rd, ok := ep.R.(interface{ SetReadDeadline(time.Time) error }); ok {
			c.rs.set = rd.SetReadDeadline
		}
		p.all = append(p.all, c)
		p.idle = append(p.idle, c)
	}
	return p
}

// LocalEndpoint serves one protocol worker on an in-memory net.Pipe inside
// this process: the full wire codec and worker loop with no process
// boundary, and per-direction deadlines like a socket's.
func LocalEndpoint() Endpoint {
	coord, worker := net.Pipe()
	go func() {
		// However the worker ends, the coordinator sees its end close.
		_ = ServeWorker(worker, worker)
		_ = worker.Close()
	}()
	return Endpoint{W: coord, R: coord, Kill: func() { _ = coord.Close() }}
}

// NewLocalPool serves n protocol workers on in-memory pipes (LocalEndpoint).
// It backs the property tests.
func NewLocalPool(n int) *Pool {
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i] = LocalEndpoint()
	}
	return NewPool(eps)
}

// ProcEndpoint returns a spawner for worker subprocesses running bin args...
// (typically the running executable with the `worker` subcommand), for
// NewSpawnPool. Worker stderr passes through to this process's stderr, so a
// crashing worker stays visible.
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
// partial pool when any spawn fails.
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

// Flags are the scatter options both CLIs expose: -shards, -remote and
// -worker-timeout.
type Flags struct {
	Shards  int
	Remote  string
	Timeout time.Duration
}

// OpenCoordinator builds the coordinator the flags ask for: Shards local
// subprocesses running this executable's `worker` subcommand, or one TCP
// worker per Remote address. It returns nil when neither is set. A worker
// that dies stays gone; its work goes to the live workers, then runs in
// process. The caller closes the pool.
func OpenCoordinator(f Flags, reg *obs.Registry, tr *obs.Tracer) (*Coordinator, error) {
	var addrs []string
	for _, a := range strings.Split(f.Remote, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	switch {
	case f.Shards > 0 && f.Remote != "":
		return nil, errors.New("-shards and -remote are mutually exclusive: local subprocesses or remote TCP workers, not both")
	case f.Remote != "" && len(addrs) == 0:
		return nil, errors.New("-remote lists no worker addresses")
	case f.Shards <= 0 && f.Remote == "":
		return nil, nil
	}
	spawn, n := TCPSpawner(addrs, 0), len(addrs)
	if f.Shards > 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("locating worker binary: %w", err)
		}
		spawn, n = ProcEndpoint(exe, "worker"), f.Shards
	}
	pool, err := NewSpawnPool(n, spawn)
	if err != nil {
		return nil, err
	}
	return &Coordinator{Pool: pool, Obs: reg, Trace: tr, Timeout: f.Timeout}, nil
}

// Size returns the pool's worker count including dead workers (the scatter
// width), not the live count.
func (p *Pool) Size() int { return len(p.all) }

// Live returns the number of workers not yet reported dead.
func (p *Pool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// get checks out an idle worker, blocking while all live workers are busy.
func (p *Pool) get() (*Conn, error) { return p.checkout(true) }

// tryGet checks a worker out without waiting for busy workers to free up.
// Solve hosts its islands with it: a solve holds its other hosts while it
// checks out the next, so waiting in get could deadlock it against a
// concurrent solve.
func (p *Pool) tryGet() (*Conn, error) { return p.checkout(false) }

// checkout hands out the longest-idle worker (FIFO spreads jobs across
// workers instead of re-hammering the most recently returned one). With no
// worker idle it waits only when wait is set and a live worker is busy. It
// fails with ErrPoolClosed once the pool is closed, and with
// ErrPoolExhausted otherwise — never blocking forever on a pool that
// cannot hand out a worker.
func (p *Pool) checkout(wait bool) (*Conn, error) {
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
		if !wait || p.live == 0 {
			return nil, fmt.Errorf("%w: no idle worker", ErrPoolExhausted)
		}
		p.cond.Wait()
	}
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
	c.arm(0, 0)
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
	var live []*Conn // the dead ones were torn down by discard
	for _, c := range p.all {
		if !c.dead {
			live = append(live, c)
		}
	}
	p.mu.Unlock()
	p.cond.Broadcast()
	for _, c := range live {
		if idle[c] {
			// Bounded politeness: a worker that no longer drains its pipe
			// would block the shutdown frame forever; the deadline kills it
			// instead (withDeadline's expiry path).
			c.ws.arm(closeGrace)
			_ = c.sendEmpty(KShutdown)
			_ = c.ep.W.Close()
		} else if c.ep.Kill != nil {
			c.ep.Kill()
		}
		if c.ep.Wait != nil {
			_ = c.ep.Wait()
		}
	}
	return nil
}
