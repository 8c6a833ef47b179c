package rng

import "robsched/internal/cpu"

// hasAVX2 selects the assembly form of Lanes8.Float64s. It is set once at
// package init.
var hasAVX2 = cpu.AVX2

// fill8AVX2 is Lanes8.float64sGo in AVX2 assembly (lanes_amd64.s); len(dst)
// must be a multiple of eight, which Float64s checks.
//
//go:noescape
func fill8AVX2(s *[4][8]uint64, dst []float64)
