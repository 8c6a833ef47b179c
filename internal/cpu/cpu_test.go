package cpu

import "testing"

// TestAVX2ImpliesAVX: the AVX2 and FMA routines also use AVX instructions
// and the ymm state the AVX check covers, so neither is reported without
// AVX.
func TestAVX2ImpliesAVX(t *testing.T) {
	t.Logf("AVX %v, AVX2 %v, FMA %v", AVX, AVX2, FMA)
	if AVX2 && !AVX {
		t.Fatal("AVX2 reported without AVX")
	}
	if FMA && !AVX {
		t.Fatal("FMA reported without AVX")
	}
}
