//go:build !amd64

package cpu

// AVX, AVX2 and FMA are false off amd64: every kernel runs its Go form.
const AVX, AVX2, FMA = false, false, false
