package dist

import (
	"bytes"
	"io"
	"math"
	"net"
	"time"

	"robsched/internal/fault"
	"robsched/internal/rng"
	"robsched/internal/wio"
)

// ChaosPlan injects seeded, reproducible transport faults between the
// coordinator and a worker. It deliberately reuses the fault-scenario
// vocabulary the simulator applies to processors: each wrapped connection
// draws one fault.Scenario over a two-"processor" platform — processor 0 is
// the coordinator→worker link direction, processor 1 the worker→coordinator
// direction — so the same samplers (fault.Model, fault.Fixed) that break
// simulated machines also break the runtime's own transport. A permanent
// failure drops the connection; an outage swallows the frames that cross it
// (a stall, from the peer's point of view); a slowdown stretches transfer
// time. On top of the timeline, each frame independently risks bit
// corruption, truncation and duplication.
//
// Every injection is a deterministic function of (Seed, worker id), so a
// failing chaos run replays exactly. The wrapper frames the byte stream, so
// it injects at frame granularity — the unit at which the protocol can
// detect damage. Chaos without Coordinator.Timeout armed can stall a call
// forever by construction (an outage is a silent stall); always set a
// timeout when wrapping endpoints.
type ChaosPlan struct {
	// Seed fixes every random draw of the plan. Worker ids are mixed in so
	// each connection sees a distinct but reproducible timeline.
	Seed uint64
	// Link samples the per-connection fault timeline. nil means no
	// timeline faults (only the per-frame Corrupt/Truncate/Duplicate).
	Link fault.Sampler
	// Corrupt, Truncate and Duplicate are independent per-frame
	// probabilities: flip one random bit of the encoded frame; cut the
	// frame short and drop the connection (a torn write never leaves the
	// stream consistent); write the frame twice.
	Corrupt   float64
	Truncate  float64
	Duplicate float64
	// Delay defers every frame's delivery by a fixed wall-clock lag per
	// direction (half an injected round trip), and DelayJitter adds a
	// per-frame uniform draw on [0, DelayJitter). Unlike the link timeline,
	// which runs on scaled link-seconds, these are real time:
	// the knob for emulating cross-machine latency on a local transport,
	// e.g. to measure what pipelining buys at a given RTT. Delivery is
	// overlapped, not serialized: frames queue behind the link with their
	// own due times, so five pipelined frames cost one latency, not five.
	// Due times are clamped monotonic, so jitter never reorders frames.
	Delay       time.Duration
	DelayJitter time.Duration
}

// The link timeline runs on a simulated clock: a scenario spans
// chaosHorizon link-seconds, a frame's transfer takes its bytes over
// chaosRate, and one link-second of delay costs chaosTick of wall-clock
// time, keeping chaos tests fast while preserving ordering.
const (
	chaosTick    = time.Millisecond
	chaosHorizon = 60      // link-seconds
	chaosRate    = 1 << 20 // bytes per link-second: 1 MiB/s
)

// chaosLink is one direction of a wrapped connection.
type chaosLink struct {
	pl    ChaosPlan
	sc    *fault.Scenario
	p     int // scenario "processor": 0 coord→worker, 1 worker→coord
	r     *rng.Source
	t     float64 // link clock, seconds
	src   io.Reader
	dst   io.Writer
	close func() // tears down both ends of this direction

	// Latency queue, active only when Delay or DelayJitter is set: the
	// pump stamps each frame with a due time and moves on, and writerLoop
	// delivers in stamp order — so frames in flight overlap, which is what
	// the pipelining this knob exists to measure depends on.
	delayq  chan delayed
	lastDue time.Time
}

// delayed is one queued delivery: bytes due at a time, optionally followed
// by tearing the direction down (a last item ends the queue).
type delayed struct {
	raw  []byte
	due  time.Time
	last bool
}

// Wrap returns ep with the chaos plan's fault timeline spliced into both
// directions of its byte stream. The worker id seeds the per-connection
// randomness; wrapping the same endpoint with the same (Seed, worker)
// replays the same injections.
func (pl ChaosPlan) Wrap(ep Endpoint, worker int) Endpoint {
	base := rng.New(pl.Seed ^ (0x9e3779b97f4a7c15 * uint64(worker+1)))
	sc := fault.None()
	if pl.Link != nil {
		if s, err := pl.Link.Scenario(2, chaosHorizon, base); err == nil {
			sc = s
		}
	}

	// One net.Pipe per direction, so each closes on its own and the
	// caller's ends take deadlines. coordinator→worker: the caller writes
	// into outW; the pump relays frames from outR to the real endpoint.
	outW, outR := net.Pipe()
	// worker→coordinator: the pump relays frames from the real endpoint
	// into inW; the caller reads from inR.
	inR, inW := net.Pipe()

	out := &chaosLink{
		pl: pl, sc: &sc, p: 0, r: rng.New(base.SplitSeed()),
		src: outR, dst: ep.W,
		close: func() {
			_ = outR.Close()
			_ = ep.W.Close()
		},
	}
	in := &chaosLink{
		pl: pl, sc: &sc, p: 1, r: rng.New(base.SplitSeed()),
		src: ep.R, dst: inW,
		close: func() { _ = inW.Close() },
	}
	rtt := ep.RTT
	if pl.Delay > 0 || pl.DelayJitter > 0 {
		// A frame crosses each direction once: the injected round trip is
		// two one-way delays plus the mean jitter (half per direction).
		rtt += 2*pl.Delay + pl.DelayJitter
		out.delayq = make(chan delayed, 64)
		in.delayq = make(chan delayed, 64)
		go out.writerLoop()
		go in.writerLoop()
	}
	go out.pump()
	go in.pump()

	return Endpoint{
		W: outW,
		R: inR,
		Kill: func() {
			_ = outW.Close()
			_ = inR.Close()
			if ep.Kill != nil {
				ep.Kill()
			}
		},
		Wait: ep.Wait,
		RTT:  rtt,
	}
}

// pump relays frames from src to dst, applying the link's timeline and the
// per-frame injections. It exits — closing its direction — when the link
// permanently fails, a truncation tears the stream, or either side of the
// relay errors out.
func (l *chaosLink) pump() {
	fr := wio.NewFrameReader(l.src)
	for {
		kind, payload, err := fr.Read()
		if err != nil {
			l.fail()
			return
		}
		raw, err := encodeFrame(kind, payload)
		if err != nil {
			l.fail()
			return
		}
		if !l.deliver(raw) {
			return
		}
	}
}

// encodeFrame returns one frame's wire bytes, for relays that damage,
// delay or repeat the encoded form.
func encodeFrame(kind byte, payload []byte) ([]byte, error) {
	var b bytes.Buffer
	err := wio.WriteFrame(&b, kind, payload)
	return b.Bytes(), err
}

// fail ends this direction — directly, or (with the latency queue active)
// ordered behind every frame already in flight.
func (l *chaosLink) fail() {
	if l.delayq == nil {
		l.close()
		return
	}
	close(l.delayq)
}

// emit delivers raw at due — immediately when the latency queue is off —
// and, when last is set, tears the direction down right after (the last
// queue item; no further emits may follow). It reports false when the
// direction is gone.
func (l *chaosLink) emit(raw []byte, due time.Time, last bool) bool {
	if l.delayq != nil {
		l.delayq <- delayed{raw: raw, due: due, last: last}
		if last {
			close(l.delayq)
			return false
		}
		return true
	}
	if len(raw) > 0 {
		if _, err := l.dst.Write(raw); err != nil {
			l.close()
			return false
		}
	}
	if last {
		l.close()
		return false
	}
	return true
}

// writerLoop drains the latency queue in stamp order, sleeping each item to
// its due time. On a write failure it keeps draining (so the pump never
// blocks on a full queue) without writing. When the queue closes the
// direction closes.
func (l *chaosLink) writerLoop() {
	dead := false
	for d := range l.delayq {
		if dead {
			continue
		}
		l.sleepUntil(d.due)
		if len(d.raw) > 0 {
			if _, err := l.dst.Write(d.raw); err != nil {
				l.close()
				dead = true
				continue
			}
		}
		if d.last {
			l.close()
			dead = true
		}
	}
	if !dead {
		l.close()
	}
}

// due stamps the next frame's delivery time: now plus the fixed delay plus
// a uniform jitter draw, clamped monotonic so jitter never reorders the
// stream. The jitter draw happens only when DelayJitter is set, keeping
// the per-frame random stream of jitter-free plans unchanged.
func (l *chaosLink) due() time.Time {
	lag := l.pl.Delay
	if l.pl.DelayJitter > 0 {
		lag += time.Duration(l.r.Float64() * float64(l.pl.DelayJitter))
	}
	due := time.Now().Add(lag)
	if due.Before(l.lastDue) {
		due = l.lastDue
	}
	l.lastDue = due
	return due
}

// sleepUntil waits for an item's due time, capped like sleep so a
// pathological clock skew cannot freeze a test.
func (l *chaosLink) sleepUntil(due time.Time) {
	d := time.Until(due)
	if d <= 0 {
		return
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	time.Sleep(d)
}

// deliver pushes one encoded frame through the fault timeline and the
// injection dice. It reports false when the connection is gone.
func (l *chaosLink) deliver(raw []byte) bool {
	// Timeline: a dead link drops the connection; an outage swallows the
	// frame (pure stall — the peer sees nothing until its deadline fires);
	// otherwise the transfer takes scenario time, slowdowns included.
	if !l.sc.Alive(l.p, l.t) {
		l.fail()
		return false
	}
	start := l.sc.NextStart(l.p, l.t)
	if start > l.t {
		l.sleep(start - l.t)
		l.t = start
	}
	work := float64(len(raw)) / chaosRate
	finish, killed, killTime := l.sc.Run(l.p, l.t, work)
	if killed {
		// The frame was crossing the link when the outage (or failure)
		// hit: it is lost. The link survives a transient outage; a
		// permanent failure (NextStart +Inf) drops the connection.
		l.sleep(killTime - l.t)
		next := l.sc.NextStart(l.p, killTime)
		if math.IsInf(next, 1) {
			l.fail()
			return false
		}
		l.t = next
		return true
	}
	l.sleep(finish - l.t)
	l.t = finish

	// Injections, each an independent Bernoulli draw per frame. Draw all
	// three unconditionally so the random stream consumed per frame is
	// fixed and injections stay reproducible under composition.
	corrupt := l.r.Float64() < l.pl.Corrupt
	truncate := l.r.Float64() < l.pl.Truncate
	duplicate := l.r.Float64() < l.pl.Duplicate
	if corrupt {
		bit := l.r.Intn(len(raw) * 8)
		raw[bit/8] ^= 1 << (bit % 8)
	}
	if truncate {
		n := l.r.Intn(len(raw)) // always short of a full frame
		return l.emit(raw[:n], l.due(), true)
	}
	due := l.due() // one stamp per frame: a duplicate arrives back-to-back
	if !l.emit(raw, due, false) {
		return false
	}
	if duplicate {
		return l.emit(raw, due, false)
	}
	return true
}

// sleep converts link-seconds to wall-clock at chaosTick per second,
// capped so a pathological scenario cannot freeze a test for minutes —
// the cap only delays the inevitable deadline, never reorders frames.
func (l *chaosLink) sleep(dt float64) {
	if dt <= 0 {
		return
	}
	d := time.Duration(dt * float64(chaosTick))
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	time.Sleep(d)
}
