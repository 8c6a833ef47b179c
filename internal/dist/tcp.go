package dist

import (
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The TCP transport. The frame protocol is transport-agnostic — an Endpoint
// is any (io.WriteCloser, io.Reader) pair — so serving it over sockets is
// the same worker loop behind new plumbing: a listener that runs one
// serveWorker per accepted connection, a dialer that wraps the socket in an
// Endpoint, and a spawner that redials dead workers (the "reconnect" rung
// of the pool's respawn ladder). net.Conn implements SetReadDeadline and
// SetWriteDeadline, so the socket enforces the liveness deadlines itself,
// as subprocess pipes do.

// tcpDialTimeout bounds a single connection attempt when the caller does
// not specify one.
const tcpDialTimeout = 5 * time.Second

// WorkerServer serves the dist worker protocol on a TCP listener: one
// serveWorker loop per accepted connection, each independent (a coordinator
// per connection). Shutdown drains gracefully — in-flight operations finish
// and flush their responses before the connections close.
type WorkerServer struct {
	ln   net.Listener
	stop chan struct{}
	wg   sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]bool
}

// ListenWorker binds a worker server to addr (host:port; port 0 picks a
// free one, see Addr).
func ListenWorker(addr string) (*WorkerServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: worker listen %s: %w", addr, err)
	}
	return &WorkerServer{ln: ln, stop: make(chan struct{}), conns: make(map[net.Conn]bool)}, nil
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
		if err != nil {
			select {
			case <-s.stop:
				return nil
			default:
				return fmt.Errorf("dist: worker accept: %w", err)
			}
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true) // latency over batching; we coalesce ourselves
		}
		s.mu.Lock()
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func(conn net.Conn) {
			defer s.wg.Done()
			// The drain interrupt arms an immediate read deadline: the
			// pending between-requests read unblocks while the write side
			// stays usable for the in-flight response.
			_ = serveWorker(conn, conn, s.stop, func() { _ = conn.SetReadDeadline(time.Now()) })
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			_ = conn.Close()
		}(conn)
	}
}

// Shutdown stops accepting, asks every serving connection to finish its
// in-flight operation, and waits for them to drain.
func (s *WorkerServer) Shutdown() {
	close(s.stop)
	_ = s.ln.Close()
	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
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

// TCPSpawner returns a spawner that connects to the given worker addresses
// round-robin — both the pool constructor and the Respawn hook for TCP
// workers. As the respawn rung it is a lazy redial: a connection that dies
// (worker crash, network partition, redeploy) is replaced by dialing the
// next address in the rotation, so a restarted remote worker reattaches
// without coordinator restarts. Dial failures burn respawn budget and back
// off exactly like failed process spawns.
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

// NewTCPPool connects one pool worker per address. Arm Respawn with the
// same TCPSpawner to get reconnect-on-death.
func NewTCPPool(addrs []string, timeout time.Duration) (*Pool, error) {
	return NewSpawnPool(len(addrs), TCPSpawner(addrs, timeout))
}

// RunWorker is the process entry point behind the CLIs' `worker`
// subcommand: the protocol over stdin/stdout when listen is empty, or a
// TCP server on listen. Either way SIGTERM and SIGINT drain gracefully —
// the in-flight operation finishes and flushes its response, the listener
// closes, and the process exits 0 — so remote workers redeploy without
// failing the coordinator mid-range (its seq/ack machinery reassigns
// anything unanswered).
func RunWorker(listen string) error {
	drain := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	var once sync.Once
	go func() {
		for range sigc {
			once.Do(func() { close(drain) })
		}
	}()

	if listen == "" {
		return serveWorker(os.Stdin, os.Stdout, drain, func() {
			// Pollable stdin (a pipe from the coordinator) unblocks via
			// deadline; a non-pollable one falls back to closing it.
			if os.Stdin.SetReadDeadline(time.Now()) != nil {
				_ = os.Stdin.Close()
			}
		})
	}
	srv, err := ListenWorker(listen)
	if err != nil {
		return err
	}
	// The bound address on stdout: with -listen the frame stream is on the
	// sockets, so stdout is free for scripts (and tests) to learn the port.
	fmt.Printf("listening on %s\n", srv.Addr())
	go func() {
		<-drain
		srv.Shutdown()
	}()
	return srv.Serve()
}
