package cpu

import "testing"

// TestAVX2ImpliesAVX: the AVX2 routines also use AVX instructions and the
// ymm state the AVX check covers, so AVX2 is never reported without AVX.
func TestAVX2ImpliesAVX(t *testing.T) {
	t.Logf("AVX %v, AVX2 %v", AVX, AVX2)
	if AVX2 && !AVX {
		t.Fatal("AVX2 reported without AVX")
	}
}
