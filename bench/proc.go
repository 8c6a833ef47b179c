package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"robsched/internal/dist"
)

// The resource readings below are Linux-specific: getrusage for this
// process and /proc for the worker children, which stay alive across the
// measured loop and so are invisible to RUSAGE_CHILDREN until reaped.

// selfCPU returns the user+system CPU time this process has consumed.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// procCPU returns the CPU time of a live process: the sum over its threads
// of the scheduler's on-CPU time, in nanoseconds, where /proc/<pid>/stat
// would give clock ticks too coarse to time one request.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tids, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tids {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// peakRSS returns the peak resident set size (VmHWM) in bytes of the process
// named by /proc entry who ("self" or a pid).
func peakRSS(who string) (int64, error) {
	f, err := os.Open("/proc/" + who + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", who)
}

// cpuModel names the processor, for the result stamp.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// wireStats counts the coordinator side of the dist wire: bytes and write
// calls to the workers (after the pool's buffering, so one write is one
// flush) and bytes read back together with the time spent blocked reading.
type wireStats struct {
	bytesOut, bytesIn, writes atomic.Int64
	readWait                  atomic.Int64 // nanoseconds
}

// wireCounts is a snapshot of wireStats.
type wireCounts struct {
	bytesOut, bytesIn, writes int64
	readWait                  time.Duration
}

func (s *wireStats) snapshot() wireCounts {
	return wireCounts{s.bytesOut.Load(), s.bytesIn.Load(), s.writes.Load(), time.Duration(s.readWait.Load())}
}

func (a wireCounts) sub(b wireCounts) wireCounts {
	return wireCounts{a.bytesOut - b.bytesOut, a.bytesIn - b.bytesIn, a.writes - b.writes, a.readWait - b.readWait}
}

type countingWriter struct {
	w  io.WriteCloser
	st *wireStats
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.st.bytesOut.Add(int64(n))
	c.st.writes.Add(1)
	return n, err
}

func (c countingWriter) Close() error { return c.w.Close() }

type timedReader struct {
	r  io.Reader
	st *wireStats
}

func (t timedReader) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.r.Read(p)
	t.st.readWait.Add(int64(time.Since(t0)))
	t.st.bytesIn.Add(int64(n))
	return n, err
}

// workerSet spawns `bench worker` subprocesses for a dist pool — the
// stdin/stdout transport of dist.ProcEndpoint — keeping their pids so the
// run can read their CPU time and peak memory. With wire set, each
// endpoint's reader and writer are wrapped to count the wire traffic.
type workerSet struct {
	exe       string
	wire      *wireStats
	pids      []int
	spawnTime time.Duration
}

func (ws *workerSet) spawn() (dist.Endpoint, error) {
	cmd := exec.Command(ws.exe, "worker")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return dist.Endpoint{}, fmt.Errorf("worker stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return dist.Endpoint{}, fmt.Errorf("worker stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return dist.Endpoint{}, fmt.Errorf("spawning worker: %w", err)
	}
	ws.pids = append(ws.pids, cmd.Process.Pid)
	ep := dist.Endpoint{W: stdin, R: stdout, Kill: func() { _ = cmd.Process.Kill() }, Wait: cmd.Wait}
	if ws.wire != nil {
		ep.W = countingWriter{stdin, ws.wire}
		ep.R = timedReader{stdout, ws.wire}
	}
	return ep, nil
}

// cpu sums the CPU time of the live workers.
func (ws *workerSet) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, pid := range ws.pids {
		d, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// rss sums the peak resident set sizes of the live workers.
func (ws *workerSet) rss() (int64, error) {
	var sum int64
	for _, pid := range ws.pids {
		b, err := peakRSS(strconv.Itoa(pid))
		if err != nil {
			return 0, err
		}
		sum += b
	}
	return sum, nil
}
