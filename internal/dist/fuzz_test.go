package dist

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// FuzzControlMessage throws arbitrary bytes at every control-message decoder
// of the wire protocol — the exact surface a corrupted or hostile frame
// payload reaches after the frame checksum (which this fuzz deliberately
// bypasses). Decoding must fail cleanly or produce a value every handler can
// hold: no panics, no runaway allocation. Valid messages must re-encode.
func FuzzControlMessage(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seq":18446744073709551615}`))
	f.Add([]byte(`{"workload":{"n":3,"m":2},"base":0,"seeds":[1,2,3],"hb_ms":25,"seq":7}`))
	f.Add([]byte(`{"islands":[{"island":0,"seed":42},{"island":2,"seed":7}],"opt":{"mode":1,"pop_size":6}}`))
	f.Add([]byte(`{"migrants":[{"island":1,"genotype":{"order":[2,0,1],"proc":[1,0,1]}}],"seq":3}`))
	f.Add([]byte(`{"states":[{"island":0,"best_fitness_bits":4638387860618067575}]}`))
	f.Add([]byte(`{"start_gen":6,"gens":6,"seq":9}`))
	f.Add([]byte(`{"error":"dist: island 7 not hosted here","code":"setup"}`))
	f.Add([]byte(`{"id":3,"workload":{"n":3,"m":2},"schedules":[],"batch_size":8}`))
	f.Add([]byte(`{"setup":3,"base":64,"seeds":[9,8,7],"seq":12}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`"not an object"`))
	f.Add([]byte{0xFF, 0xFE, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		targets := []any{
			&SimSetup{}, &SimRange{}, &IslandInit{}, &EpochReq{},
			&MigrateReq{}, &IslandStates{}, &ErrMsg{},
		}
		for _, v := range targets {
			if err := parseJSON(data, v); err != nil {
				continue
			}
			// A payload the worker would accept must round-trip through the
			// encoder it answers with.
			if _, err := marshalJSON(v); err != nil {
				t.Fatalf("decoded %T does not re-encode: %v", v, err)
			}
		}
	})
}

// FuzzSimResult throws arbitrary KSimResult payloads at the coordinator's
// range-answer decoder, which reads bytes from remote workers: it must never
// panic, must accept only a payload of exactly 8+8·k·width bytes that
// carries the expected seq, and must write nothing outside
// [base, base+width) of the k output vectors — nothing at all when it
// rejects. An accepted payload must decode to the values it encodes.
func FuzzSimResult(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(2), uint64(7), uint64(7), []byte(strings.Repeat("robsched", 12)))
	f.Add(uint8(0), uint8(9), uint8(1), uint64(5), uint64(5), []byte{})
	f.Add(uint8(1), uint8(1), uint8(0), uint64(1), uint64(2), make([]byte, 8))
	f.Add(uint8(2), uint8(2), uint8(5), uint64(0), uint64(0), make([]byte, 24))
	f.Add(uint8(0), uint8(9), uint8(1), uint64(5), uint64(5), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, k, width, base uint8, seq, sent uint64, body []byte) {
		const pad = 3
		out := make([][]float64, int(k)%9)
		for j := range out {
			out[j] = make([]float64, int(base)+int(width)+pad)
			for i := range out[j] {
				out[j][i] = -1
			}
		}
		payload := binary.LittleEndian.AppendUint64(nil, sent)
		payload = append(payload, body...)
		err := decodeResult(out, int(base), int(width), seq, payload)
		wantLen := 8 + 8*len(out)*int(width)
		if (err == nil) != (len(payload) == wantLen && sent == seq) {
			t.Fatalf("k=%d width=%d seq=%d: %d-byte payload for seq %d: err %v",
				len(out), width, seq, len(payload), sent, err)
		}
		for j, v := range out {
			for i, x := range v {
				inside := i >= int(base) && i < int(base)+int(width)
				if !inside || err != nil {
					if math.Float64bits(x) != math.Float64bits(-1) {
						t.Fatalf("schedule %d realization %d written outside the window (base %d, width %d, err %v)",
							j, i, base, width, err)
					}
					continue
				}
				off := 8 + 8*(j*int(width)+i-int(base))
				if want := binary.LittleEndian.Uint64(payload[off:]); math.Float64bits(x) != want {
					t.Fatalf("schedule %d realization %d decoded %x, payload holds %x", j, i, math.Float64bits(x), want)
				}
			}
		}
	})
}
