//go:build !amd64

package schedule

// hasAVX is false off amd64: the batched sweep always runs makespanBatch8.
const hasAVX = false

func batch8AVX(topo, predOff, predTo, dpred, idx []int32, predComm, dur, finish []float64, out *[batchLanes]float64) {
	panic("schedule: the AVX kernel exists only on amd64")
}
