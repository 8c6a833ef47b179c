package wio

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		{0},
		[]byte("hello"),
		bytes.Repeat([]byte{0xAB}, 1<<16),
	}
	var buf bytes.Buffer
	for kind, p := range payloads {
		if err := WriteFrame(&buf, byte(kind), p); err != nil {
			t.Fatalf("write kind %d: %v", kind, err)
		}
	}
	fr := NewFrameReader(&buf)
	for kind, want := range payloads {
		k, got, err := fr.Read()
		if err != nil {
			t.Fatalf("read kind %d: %v", kind, err)
		}
		if int(k) != kind {
			t.Fatalf("kind %d read back as %d", kind, k)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("kind %d payload mismatch: %d bytes, want %d", kind, len(got), len(want))
		}
	}
	if _, _, err := fr.Read(); err != io.EOF {
		t.Fatalf("drained stream returned %v, want io.EOF", err)
	}
}

func TestFrameRejectsOversizedWrite(t *testing.T) {
	// Don't allocate 64 MiB: an io.Writer is never reached because the
	// length check fires first, so a huge zero-length-backed slice works.
	big := make([]byte, MaxFramePayload+1)
	var fe *FrameError
	if err := WriteFrame(io.Discard, 1, big); !errors.As(err, &fe) {
		t.Fatalf("oversized payload accepted: %v", err)
	}
}

func TestFrameReadErrors(t *testing.T) {
	read := func(b []byte) error {
		_, _, err := NewFrameReader(bytes.NewReader(b)).Read()
		return err
	}
	// A well-formed empty frame, to corrupt field by field.
	var good bytes.Buffer
	if err := WriteFrame(&good, 0, nil); err != nil {
		t.Fatal(err)
	}
	hdr := good.Bytes()
	mut := func(i int, b byte) []byte {
		out := append([]byte(nil), hdr...)
		out[i] = b
		return out
	}
	var payloadFrame bytes.Buffer
	if err := WriteFrame(&payloadFrame, 0, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), payloadFrame.Bytes()...)
	flipped[len(flipped)-1] ^= 0x01 // damage the payload, keep the length
	cases := []struct {
		name    string
		in      []byte
		isFrame bool // expect *FrameError (vs io error)
	}{
		{"bad magic", mut(0, 'x'), true},
		{"bad version", mut(2, 9), true},
		{"oversized length", []byte{'r', 'b', 2, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, true},
		{"bad checksum", mut(8, hdr[8]^0xFF), true},
		{"corrupt payload", flipped, true},
		{"truncated header", hdr[:3], false},
		{"truncated payload", payloadFrame.Bytes()[:len(payloadFrame.Bytes())-2], false},
	}
	for _, tc := range cases {
		err := read(tc.in)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var fe *FrameError
		if got := errors.As(err, &fe); got != tc.isFrame {
			t.Errorf("%s: error %v (FrameError=%v, want %v)", tc.name, err, got, tc.isFrame)
		}
	}
	// Truncations must be io.ErrUnexpectedEOF, not a silent io.EOF, so a
	// reader loop can tell "peer closed cleanly" from "died mid-frame".
	if err := read(hdr[:3]); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated header: %v, want io.ErrUnexpectedEOF", err)
	}
	if err := read(payloadFrame.Bytes()[:frameHeader]); err != io.ErrUnexpectedEOF {
		t.Errorf("header without its payload: %v, want io.ErrUnexpectedEOF", err)
	}
	if err := read(nil); err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
}

// TestFrameReaderRoundTrip: FrameReader grows its buffer across mixed
// payload sizes and still returns every frame as written.
func TestFrameReaderRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		[]byte("hello"),
		bytes.Repeat([]byte{0xCD}, 1<<12),
		[]byte("small again"),
		bytes.Repeat([]byte{0x11}, 1<<14),
	}
	var buf bytes.Buffer
	for kind, p := range payloads {
		if err := WriteFrame(&buf, byte(kind), p); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	for kind, want := range payloads {
		k, got, err := fr.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", kind, err)
		}
		if int(k) != kind || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: kind %d, %d bytes (want %d)", kind, k, len(got), len(want))
		}
	}
	if _, _, err := fr.Read(); err != io.EOF {
		t.Fatalf("drained stream returned %v, want io.EOF", err)
	}
}

// TestFrameReaderSteadyStateAllocs pins the hot-path property the dist
// vector stream depends on: once the buffer has grown to the stream's frame
// size, reading a frame allocates nothing.
func TestFrameReaderSteadyStateAllocs(t *testing.T) {
	var one bytes.Buffer
	if err := WriteFrame(&one, 2, bytes.Repeat([]byte{0x3F}, 4096)); err != nil {
		t.Fatal(err)
	}
	raw := one.Bytes()
	r := bytes.NewReader(raw)
	fr := NewFrameReader(r)
	if _, _, err := fr.Read(); err != nil { // warm the buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(raw)
		if _, _, err := fr.Read(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state Read allocates %.1f objects/frame, want 0", allocs)
	}
}

// BenchmarkReadFrame times FrameReader on a stream of equal 8 KB frames,
// the shape of the dist vector stream; its steady state allocates nothing.
// Run with -benchmem.
func BenchmarkReadFrame(b *testing.B) {
	var one bytes.Buffer
	if err := WriteFrame(&one, 2, bytes.Repeat([]byte{0x3F}, 8+8*1024)); err != nil {
		b.Fatal(err)
	}
	raw := one.Bytes()
	r := bytes.NewReader(raw)
	fr := NewFrameReader(r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(raw)
		if _, _, err := fr.Read(); err != nil {
			b.Fatal(err)
		}
	}
}
