package schedule

import "robsched/internal/cpu"

// hasAVX selects the assembly kernel in MakespanBatchInto and
// MakespanBatchIndexed. It is set once at package init.
var hasAVX = cpu.AVX

// batch8AVX is makespanBatch8 in AVX assembly (batch_amd64.s). It does no
// bounds checks: makespanBatch8AVX checks every slice length and every
// block idx names first.
//
//go:noescape
func batch8AVX(topo, predOff, predTo, dpred, idx []int32, predComm, dur, finish []float64, out *[batchLanes]float64)
