package sim

import "robsched/internal/cpu"

// hasAVX selects the assembly form of the uniform model's eight-lane
// transform. It is set once at package init.
var hasAVX = cpu.AVX

// uniform8AVX is uniformLanesGo for eight unmirrored lanes in AVX assembly
// (transform_amd64.s). It does no bounds checks: uniformLanes checks every
// length first.
//
//go:noescape
func uniform8AVX(ui []int32, lo, width, u, dst []float64, stride, d0, d1, e int) int
