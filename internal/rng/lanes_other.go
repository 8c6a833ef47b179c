//go:build !amd64

package rng

// hasAVX2 is false off amd64: Lanes8.Float64s always runs its Go form.
const hasAVX2 = false

func fill8AVX2(s *[4][8]uint64, dst []float64) {
	panic("rng: the AVX2 fill exists only on amd64")
}
