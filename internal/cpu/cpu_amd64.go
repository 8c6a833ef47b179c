package cpu

// AVX reports whether the CPU executes AVX instructions and the OS saves
// the ymm registers; AVX2 additionally requires the AVX2 integer
// instructions on ymm registers, and FMA the fused multiply-add
// instructions on them.
var AVX, AVX2, FMA = probe(cpuid, xgetbv)

// probe reads the feature bits through the given CPUID and XGETBV, which
// the tests replace with fakes.
func probe(cpuid func(leaf, sub uint32) (eax, ebx, ecx, edx uint32), xgetbv func() uint32) (avx, avx2, fma bool) {
	const (
		hasFMA  = 1 << 12 // CPUID.1:ECX
		osxsave = 1 << 27 // CPUID.1:ECX
		hasAVX  = 1 << 28 // CPUID.1:ECX
		hasAVX2 = 1 << 5  // CPUID.(7,0):EBX
		ymm     = 6       // XCR0: the OS saves the SSE and AVX state
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|hasAVX) != osxsave|hasAVX {
		return false, false, false
	}
	// XGETBV faults unless OSXSAVE is set, so it runs only after that check.
	if xgetbv()&ymm != ymm {
		return false, false, false
	}
	fma = ecx1&hasFMA != 0
	if maxLeaf < 7 {
		return true, false, fma
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return true, ebx7&hasAVX2 != 0, fma
}

// cpuid executes CPUID with EAX=leaf and ECX=sub (cpu_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0 (cpu_amd64.s).
func xgetbv() uint32
