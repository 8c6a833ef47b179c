package schedule

// hasAVX reports whether the CPU executes AVX instructions and the OS saves
// the ymm registers. It is set once at package init and selects the
// assembly kernel in MakespanBatchInto.
var hasAVX = cpuAVX()

func cpuAVX() bool

// batch8AVX is makespanBatch8 in AVX assembly (batch_amd64.s). It does no
// bounds checks: makespanBatch8AVX checks every slice length first.
//
//go:noescape
func batch8AVX(topo, predOff, predTo, dpred []int32, predComm, dur, finish []float64, out *[batchLanes]float64)
