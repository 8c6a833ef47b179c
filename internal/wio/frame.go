// Frame codec: the length-prefixed binary envelope the dist coordinator and
// its worker processes exchange over pipes. A frame is
//
//	magic    2 bytes  'r' 'b'
//	version  1 byte   frameVersion
//	kind     1 byte   opaque to this package; internal/dist defines the values
//	length   4 bytes  little-endian payload size
//	checksum 4 bytes  little-endian CRC-32 (IEEE) of kind byte then payload
//	payload  length bytes
//
// The header is fixed-size and the payload length is bounded, so a reader
// can never be tricked into an unbounded allocation by a corrupt stream —
// the property FuzzReadFrame locks down. The checksum turns in-flight bit
// damage anywhere in the frame into a typed *FrameError rather than a
// silently different payload: a flipped bit in a JSON control message can
// otherwise still parse, with a different value. Payload contents are the
// caller's business: dist uses JSON for control messages and raw
// little-endian float64 blocks for makespan vectors.
package wio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	frameMagic0  = 'r'
	frameMagic1  = 'b'
	frameVersion = 2
	frameHeader  = 12

	// MaxFramePayload caps a single frame's payload (64 MiB). A realization
	// vector of a million samples is 8 MB; control messages are far smaller.
	// Anything larger indicates a corrupt or hostile stream.
	MaxFramePayload = 64 << 20
)

// FrameError reports a malformed or corrupted frame. It distinguishes
// protocol corruption from plain I/O failures (which pass through
// unwrapped).
type FrameError struct{ Reason string }

func (e *FrameError) Error() string { return "wio: bad frame: " + e.Reason }

// frameSum covers the kind byte and the payload, so damage to either —
// including a flip that turns one valid frame kind into another — fails
// verification.
func frameSum(kind byte, payload []byte) uint32 {
	// One manual table step folds the kind byte in without building a
	// single-byte slice (which escapes): crc32.Update(0, tab, []byte{kind})
	// written out as the reflected-CRC recurrence.
	crc := ^uint32(0)
	crc = crc32.IEEETable[byte(crc)^kind] ^ (crc >> 8)
	return crc32.Update(^crc, crc32.IEEETable, payload)
}

// WriteFrame writes one frame. It returns an error if the payload exceeds
// MaxFramePayload or the writer fails; partial writes leave the stream
// unusable, so callers treat any error as fatal to the connection.
func WriteFrame(w io.Writer, kind byte, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return &FrameError{fmt.Sprintf("payload %d exceeds %d bytes", len(payload), MaxFramePayload)}
	}
	var hdr [frameHeader]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = frameMagic0, frameMagic1, frameVersion, kind
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:], frameSum(kind, payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// FrameReader reads frames from one stream, owning a payload buffer that is
// reused across calls and grown geometrically, so the steady state of a
// long vector stream reads every frame with zero allocations. The returned
// payload aliases the internal buffer and is valid only until the next
// Read: a caller that keeps two payloads alive reads them with two readers.
type FrameReader struct {
	r   io.Reader
	buf []byte
	hdr [frameHeader]byte
}

// NewFrameReader wraps r. Callers wanting buffered I/O should pass a
// *bufio.Reader; FrameReader only manages the payload buffer.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Read reads one frame. A clean EOF before any header byte surfaces as
// io.EOF — the peer closed between frames; a header with the wrong magic,
// version, an oversized length or a payload that fails its checksum returns
// a *FrameError, and a stream that ends mid-frame returns
// io.ErrUnexpectedEOF. The payload is valid until the next Read.
func (fr *FrameReader) Read() (kind byte, payload []byte, err error) {
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(fr.r, hdr[:1]); err != nil {
		return 0, nil, err // io.EOF here means "no more frames"
	}
	if _, err := io.ReadFull(fr.r, hdr[1:]); err != nil {
		return 0, nil, midFrame(err)
	}
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		return 0, nil, &FrameError{fmt.Sprintf("magic %#02x%02x", hdr[0], hdr[1])}
	}
	if hdr[2] != frameVersion {
		return 0, nil, &FrameError{fmt.Sprintf("version %d (want %d)", hdr[2], frameVersion)}
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > MaxFramePayload {
		return 0, nil, &FrameError{fmt.Sprintf("payload %d exceeds %d bytes", n, MaxFramePayload)}
	}
	if int(n) > cap(fr.buf) {
		newCap := 2 * cap(fr.buf)
		if newCap < int(n) {
			newCap = int(n)
		}
		if newCap < 512 {
			newCap = 512
		}
		if newCap > MaxFramePayload {
			newCap = MaxFramePayload
		}
		fr.buf = make([]byte, newCap)
	}
	kind, payload = hdr[3], fr.buf[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, nil, midFrame(err)
	}
	if got, want := frameSum(kind, payload), binary.LittleEndian.Uint32(hdr[8:]); got != want {
		return 0, nil, &FrameError{fmt.Sprintf("checksum %#08x (want %#08x)", got, want)}
	}
	return kind, payload, nil
}

// midFrame reports a stream that ended inside a frame as
// io.ErrUnexpectedEOF, never as the clean io.EOF of a peer that closed
// between frames.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
