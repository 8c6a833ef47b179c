package dist

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The TCP transport. The frame protocol is transport-agnostic — an Endpoint
// is any (io.WriteCloser, io.Reader) pair — so serving it over sockets is
// the same worker loop behind new plumbing: a listener that runs one
// ServeWorker per accepted connection, a dialer that wraps the socket in an
// Endpoint, and a spawner that dials the addresses in turn. net.Conn
// implements SetReadDeadline and SetWriteDeadline, so the socket enforces
// the liveness deadlines itself, as subprocess pipes do.

// tcpDialTimeout bounds a single connection attempt when the caller does
// not specify one.
const tcpDialTimeout = 5 * time.Second

// WorkerServer serves the dist worker protocol on a TCP listener: one
// ServeWorker loop per accepted connection, each independent (a coordinator
// per connection).
type WorkerServer struct {
	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
}

// ListenWorker binds a worker server to addr (host:port; port 0 picks a
// free one, see Addr).
func ListenWorker(addr string) (*WorkerServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: worker listen %s: %w", addr, err)
	}
	return &WorkerServer{ln: ln, conns: make(map[net.Conn]bool)}, nil
}

// Addr returns the bound listen address (the resolved port when the caller
// asked for :0).
func (s *WorkerServer) Addr() string { return s.ln.Addr().String() }

// Serve accepts and serves connections until Shutdown (returning nil) or a
// listener failure. Each connection runs the full worker protocol; a
// connection-level error tears down that connection only.
func (s *WorkerServer) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("dist: worker accept: %w", err)
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true) // latency over batching; we coalesce ourselves
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		go func(conn net.Conn) {
			defer s.wg.Done()
			_ = ServeWorker(conn, conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			_ = conn.Close()
		}(conn)
	}
}

// Shutdown closes the listener and every serving connection, and waits for
// their serve loops to end. A coordinator mid-exchange reads a transport
// failure and moves the work elsewhere.
func (s *WorkerServer) Shutdown() {
	s.mu.Lock()
	s.closed = true
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	_ = s.ln.Close()
	s.wg.Wait()
}

// DialWorker connects to a worker at addr, returning an Endpoint whose RTT
// hint is the measured connection setup time (one TCP handshake ≈ one
// round trip) — the input to the coordinator's pipeline-depth heuristic.
// timeout <= 0 uses a 5s default.
func DialWorker(addr string, timeout time.Duration) (Endpoint, error) {
	if timeout <= 0 {
		timeout = tcpDialTimeout
	}
	start := time.Now()
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return Endpoint{}, fmt.Errorf("dist: dialing worker %s: %w", addr, err)
	}
	rtt := time.Since(start)
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return Endpoint{
		W:    conn,
		R:    conn,
		Kill: func() { _ = conn.Close() },
		RTT:  rtt,
	}, nil
}

// TCPSpawner returns a spawner that dials the given worker addresses in
// turn, one per call: NewSpawnPool calls it once per address.
func TCPSpawner(addrs []string, timeout time.Duration) func() (Endpoint, error) {
	var n atomic.Int64
	return func() (Endpoint, error) {
		if len(addrs) == 0 {
			return Endpoint{}, fmt.Errorf("dist: no worker addresses")
		}
		addr := addrs[int(n.Add(1)-1)%len(addrs)]
		return DialWorker(addr, timeout)
	}
}

// RunWorker is the process entry point behind the CLIs' `worker`
// subcommand: the protocol over stdin/stdout when listen is empty, or a
// TCP server on listen. It installs no signal handler, so SIGTERM or SIGINT
// ends the worker at once; its coordinator reads a transport failure and
// moves the unanswered ranges to a live worker or in process, as after
// Pool.KillWorker.
func RunWorker(listen string) error {
	if listen == "" {
		return ServeWorker(os.Stdin, os.Stdout)
	}
	srv, err := ListenWorker(listen)
	if err != nil {
		return err
	}
	// The bound address on stdout: with -listen the frame stream is on the
	// sockets, so stdout is free for scripts (and tests) to learn the port.
	fmt.Printf("listening on %s\n", srv.Addr())
	return srv.Serve()
}
