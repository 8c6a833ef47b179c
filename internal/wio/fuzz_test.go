package wio

import (
	"bytes"
	"strings"
	"testing"

	"robsched/internal/gen"
	"robsched/internal/rng"
)

// FuzzReadWorkload drives the JSON workload parser with arbitrary input:
// it must never panic and every accepted document must build a usable,
// internally consistent workload.
func FuzzReadWorkload(f *testing.F) {
	// Seed corpus: valid documents plus near-misses.
	p := gen.PaperParams()
	p.N, p.M = 8, 2
	if w, err := gen.Random(p, rng.New(1)); err == nil {
		var buf bytes.Buffer
		if err := WriteWorkload(&buf, w); err == nil {
			f.Add(buf.String())
		}
	}
	f.Add(`{"tasks": 2, "edges": [{"from":0,"to":1,"data":3}], "rates": [[0,1],[1,0]], "bcet": [[2,4],[3,1]]}`)
	f.Add(`{"tasks": 1, "rates": [[0]], "bcet": [[1]], "ul": [[2]]}`)
	f.Add(`{"tasks": -1}`)
	f.Add(`{"tasks": 2, "edges": [{"from":0,"to":1},{"from":1,"to":0}], "rates": [[0,1],[1,0]], "bcet": [[1,1],[1,1]]}`)
	f.Add(`{}`)
	f.Add(`[1,2,3]`)
	f.Add(`{"tasks": 1e9}`)
	f.Fuzz(func(t *testing.T, doc string) {
		w, err := ReadWorkload(strings.NewReader(doc))
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		// Accepted documents must round-trip into an equivalent workload.
		if w.N() < 1 || w.M() < 1 {
			t.Fatalf("accepted workload with shape %dx%d", w.N(), w.M())
		}
		var buf bytes.Buffer
		if err := WriteWorkload(&buf, w); err != nil {
			t.Fatalf("accepted workload does not serialize: %v", err)
		}
		w2, err := ReadWorkload(&buf)
		if err != nil {
			t.Fatalf("serialized workload does not parse: %v", err)
		}
		if w2.N() != w.N() || w2.M() != w.M() || w2.G.EdgeCount() != w.G.EdgeCount() {
			t.Fatal("round trip changed the workload shape")
		}
	})
}

// FuzzReadSchedule drives the schedule parser against a fixed workload.
func FuzzReadSchedule(f *testing.F) {
	f.Add(`{"proc": [0,0], "proc_order": [[0,1],[]]}`)
	f.Add(`{"proc": [0,1], "proc_order": [[0],[1]]}`)
	f.Add(`{"proc": [1,0], "proc_order": [[1],[0]]}`)
	f.Add(`{"proc": [0], "proc_order": [[0]]}`)
	f.Add(`garbage`)
	f.Fuzz(func(t *testing.T, doc string) {
		w, err := ReadWorkload(strings.NewReader(
			`{"tasks": 2, "edges": [{"from":0,"to":1,"data":1}], "rates": [[0,1],[1,0]], "bcet": [[1,1],[1,1]]}`))
		if err != nil {
			t.Fatal(err)
		}
		s, err := ReadSchedule(strings.NewReader(doc), w)
		if err != nil {
			return
		}
		// Accepted schedules are valid: makespan positive, all tasks
		// placed.
		if s.Makespan() <= 0 {
			t.Fatal("accepted schedule with non-positive makespan")
		}
	})
}

// FuzzReadFrame drives FrameReader with arbitrary bytes: the reader must
// never panic or allocate past MaxFramePayload, a decoded frame must
// re-encode to the bytes it was decoded from, and every frame produced by
// WriteFrame must decode to exactly what was written.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteFrame(&seed, 3, []byte("payload"))
	f.Add(seed.Bytes())
	f.Add([]byte{'r', 'b', 1, 0, 0, 0, 0, 0})
	f.Add([]byte{'r', 'b', 1, 7, 4, 0, 0, 0, 1, 2, 3, 4})
	f.Add([]byte{'r', 'b', 2, 0, 0, 0, 0, 0})          // wrong version
	f.Add([]byte{'r', 'b', 1, 0, 0xFF, 0xFF, 0xFF, 0}) // oversized
	f.Add([]byte("short"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		kind, payload, err := NewFrameReader(r).Read()
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		// Round trip: re-encoding the decoded frame must reproduce the
		// consumed prefix of the input byte for byte.
		var out bytes.Buffer
		if err := WriteFrame(&out, kind, payload); err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		consumed := len(data) - r.Len()
		if !bytes.Equal(out.Bytes(), data[:consumed]) {
			t.Fatalf("round trip changed the frame: %x -> %x", data[:consumed], out.Bytes())
		}
	})
}
