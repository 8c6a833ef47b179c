package rng

import "math/bits"

// Lanes8 is eight xoshiro256++ streams advanced in lockstep: lane l after
// Seed(seeds) draws exactly the sequence New(seeds[l]) draws. The
// Monte-Carlo sampler realizes eight realizations per batched kernel sweep,
// so it draws their uniform blocks together, eight lanes per instruction on
// AVX2 hosts. The zero value is not valid; call Seed first.
type Lanes8 struct {
	// s[w][l] is state word w of lane l: word-major, so each state word of
	// the eight lanes fills two ymm registers.
	s [4][8]uint64
}

// Seed gives lane l the state New(seeds[l]) starts from. It reseeds in
// place and allocates nothing.
func (r *Lanes8) Seed(seeds *[8]uint64) {
	for l, seed := range seeds {
		s := seedState(seed)
		for w := range s {
			r.s[w][l] = s[w]
		}
	}
}

// Float64s fills dst lane-interleaved: dst[k*8+l] is the k-th Float64 of
// lane l, so every lane advances len(dst)/8 draws. It panics unless len(dst)
// is a multiple of eight.
func (r *Lanes8) Float64s(dst []float64) {
	if len(dst)%8 != 0 {
		panic("rng: Lanes8.Float64s needs a multiple of eight values")
	}
	if hasAVX2 {
		fill8AVX2(&r.s, dst)
		return
	}
	r.float64sGo(dst)
}

// float64sGo is the Go form of Float64s and the reference the AVX2 form is
// tested against: each lane in turn runs Source.Float64s' loop over its
// column of dst.
func (r *Lanes8) float64sGo(dst []float64) {
	for l := 0; l < 8; l++ {
		s0, s1, s2, s3 := r.s[0][l], r.s[1][l], r.s[2][l], r.s[3][l]
		for i := l; i < len(dst); i += 8 {
			x := bits.RotateLeft64(s0+s3, 23) + s0
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = bits.RotateLeft64(s3, 45)
			dst[i] = float64(x>>11) / (1 << 53)
		}
		r.s[0][l], r.s[1][l], r.s[2][l], r.s[3][l] = s0, s1, s2, s3
	}
}
