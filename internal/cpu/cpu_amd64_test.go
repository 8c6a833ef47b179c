package cpu

import "testing"

// TestProbeGates: each of CPUID's AVX and OSXSAVE bits, XCR0's SSE and AVX
// state bits, the maximum leaf, CPUID.7's AVX2 bit and CPUID.1's FMA bit
// gates its flags, and XGETBV, which faults without OSXSAVE, runs only
// once OSXSAVE is seen.
func TestProbeGates(t *testing.T) {
	const (
		full = 1<<27 | 1<<28
		fma  = 1 << 12
	)
	for _, c := range []struct {
		name                 string
		maxLeaf, ecx1        uint32
		xcr0, ebx7           uint32
		avx, avx2, fma, xget bool
	}{
		{"AVX2", 7, full, 7, 1 << 5, true, true, false, true},
		{"AVX2 and FMA", 7, full | fma, 7, 1 << 5, true, true, true, true},
		{"FMA without AVX2", 7, full | fma, 6, 0, true, false, true, true},
		{"AVX without AVX2", 13, full, 6, 0, true, false, false, true},
		{"no leaf 7", 6, full | fma, 6, 1 << 5, true, false, true, true},
		{"no ymm state", 7, full | fma, 3, 1 << 5, false, false, false, true},
		{"no AVX", 7, 1<<27 | fma, 7, 1 << 5, false, false, false, false},
		{"no OSXSAVE", 7, 1<<28 | fma, 7, 1 << 5, false, false, false, false},
	} {
		xget := false
		avx, avx2, fma := probe(func(leaf, sub uint32) (eax, ebx, ecx, edx uint32) {
			if leaf > c.maxLeaf {
				t.Fatalf("%s: CPUID leaf %d read past the maximum %d", c.name, leaf, c.maxLeaf)
			}
			switch leaf {
			case 0:
				return c.maxLeaf, 0, 0, 0
			case 1:
				return 0, 0, c.ecx1, 0
			case 7:
				return 0, c.ebx7, 0, 0
			}
			return 0, 0, 0, 0
		}, func() uint32 {
			xget = true
			return c.xcr0
		})
		if avx != c.avx || avx2 != c.avx2 || fma != c.fma || xget != c.xget {
			t.Errorf("%s: AVX %v AVX2 %v FMA %v XGETBV run %v, want %v %v %v %v",
				c.name, avx, avx2, fma, xget, c.avx, c.avx2, c.fma, c.xget)
		}
	}
}
