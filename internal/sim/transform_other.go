//go:build !amd64

package sim

// hasAVX is false off amd64: the uniform transform always runs in Go.
const hasAVX = false

func uniform8AVX(ui []int32, lo, width, u, dst []float64, stride, d0, d1, e int) int {
	panic("sim: the AVX transform exists only on amd64")
}
