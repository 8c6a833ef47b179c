package dist

import (
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
	f.Add([]byte(`{"islands":[{"island":0,"seed":42},{"island":2,"seed":7}],"opt":{"mode":1,"pop_size":6},"heartbeat_millis":25}`))
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
			&SimSetup{}, &SimRange{}, &Ack{}, &IslandInit{}, &EpochReq{},
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
