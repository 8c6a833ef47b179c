package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Record is one structured trace entry. Records marshal to a single JSON
// object per line (JSONL): timestamps are unix nanoseconds, spans carry
// their duration, and the optional Registry field embeds a full metric
// snapshot (the final record of an instrumented CLI run, making the trace
// file self-contained).
type Record struct {
	TS       int64              `json:"ts,omitempty"`
	Scope    string             `json:"scope,omitempty"`
	Kind     string             `json:"kind"` // "event", "span" or "snapshot"
	Name     string             `json:"name"`
	DurNS    int64              `json:"dur_ns,omitempty"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
	Registry *Snapshot          `json:"registry,omitempty"`
}

// Attr is one numeric attribute of a trace record.
type Attr struct {
	Key   string
	Value float64
}

// F builds an Attr; the name follows fmt's %f-style mnemonic for a float
// field.
func F(key string, value float64) Attr { return Attr{Key: key, Value: value} }

// Tracer emits trace records to an optional JSONL sink. Tracers returned
// by Scope share the sink and tag their records with the scope path. All
// methods are safe for concurrent use; every method on a nil Tracer is a
// no-op.
type Tracer struct {
	core  *tracerCore
	scope string
}

type tracerCore struct {
	mu  sync.Mutex
	enc *json.Encoder // nil when no sink
	err error         // first sink write error
	now func() int64
}

// NewTracer returns a tracer writing JSONL records to w (nil disables the
// sink).
func NewTracer(w io.Writer) *Tracer {
	core := &tracerCore{now: func() int64 { return time.Now().UnixNano() }}
	if w != nil {
		core.enc = json.NewEncoder(w)
	}
	return &Tracer{core: core}
}

// Scope returns a tracer whose records are tagged with the given scope,
// nested under the receiver's scope with a "/" separator. Nil-safe.
func (t *Tracer) Scope(name string) *Tracer {
	if t == nil {
		return nil
	}
	s := name
	if t.scope != "" {
		s = t.scope + "/" + name
	}
	return &Tracer{core: t.core, scope: s}
}

// Event records an instantaneous event. No-op on a nil receiver.
func (t *Tracer) Event(name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.emit(Record{Kind: "event", Name: name, Attrs: attrMap(attrs)})
}

// Span starts a timed span and returns the function that ends it; the
// record is emitted at end time with the measured duration. On a nil
// receiver the returned end function is a no-op.
func (t *Tracer) Span(name string, attrs ...Attr) func() {
	if t == nil {
		return func() {}
	}
	start := t.core.now()
	return func() {
		t.emit(Record{Kind: "span", Name: name, DurNS: t.core.now() - start, Attrs: attrMap(attrs)})
	}
}

// SnapshotRegistry emits a "snapshot" record embedding the registry's
// current metric values — conventionally the final record of a run, so the
// JSONL file carries its own registry snapshot. No-op on a nil receiver.
func (t *Tracer) SnapshotRegistry(name string, reg *Registry) {
	if t == nil {
		return
	}
	snap := reg.Snapshot()
	t.emit(Record{Kind: "snapshot", Name: name, Registry: &snap})
}

// Err returns the first error the JSONL sink reported, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (t *Tracer) emit(rec Record) {
	c := t.core
	rec.Scope = t.scope
	c.mu.Lock()
	defer c.mu.Unlock()
	rec.TS = c.now()
	if c.enc != nil {
		if err := c.enc.Encode(rec); err != nil && c.err == nil {
			c.err = err
		}
	}
}

func attrMap(attrs []Attr) map[string]float64 {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]float64, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}
