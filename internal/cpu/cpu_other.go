//go:build !amd64

package cpu

// AVX and AVX2 are false off amd64: every kernel runs its Go form.
const AVX, AVX2 = false, false
