//go:build !amd64

package sim

// hasAVX and hasLognormal are false off amd64: the transforms always run
// in Go.
const hasAVX, hasLognormal = false, false

func uniform8AVX(ui []int32, lo, width, u, dst []float64, stride, d0, d1, e int) int {
	panic("sim: the AVX transform exists only on amd64")
}

func lognormal8AVX(ui []int32, lo, mu, sigma, u, dst []float64, stride, d0, d1, e int) int {
	panic("sim: the lognormal transform exists only on amd64")
}
