package schedule

// MakespanBatchInto computes the realized makespans of eight duration
// realizations in a single structure-of-arrays forward longest-path sweep
// over the schedule's CSR disjunctive graph. The graph topology (topological
// order, arc targets, communication costs) is loaded once per batch and each
// arc updates all eight lanes, instead of re-walking the graph once per
// realization as MakespanInto does — the batching that makes the paper's
// 1000-realization evaluations cheap.
//
// dur and finishBuf are lane-major with stride eight: index [v*8+l] holds
// task v's value in lane l, so the per-arc inner loop walks contiguous
// memory. dur and finishBuf must have length >= N*8 and out (which receives
// the makespans) length >= 8. lanes must be 8, and the call panics
// otherwise; stBuf is not used. Both remain so existing callers compile.
//
// Every lane's floating-point operations are performed in exactly the order
// of the scalar forward pass, so out[l] is bit-identical to
// MakespanInto(dur-of-lane-l, ...). The sweep runs the AVX kernel where the
// CPU and OS support AVX and makespanBatch8 elsewhere; both give the same
// bits.
func (s *Schedule) MakespanBatchInto(lanes int, dur, stBuf, finishBuf, out []float64) {
	if lanes != batchLanes {
		panic("schedule: the batched kernel sweeps eight lanes")
	}
	s.makespanBatch(dur, nil, finishBuf, out)
}

// MakespanBatchIndexed is MakespanBatchInto reading task v's durations from
// block idx[v] of dur, dur[int(idx[v])*8+l] for lane l, instead of from
// block v: a caller that samples the (task, processor) pairs of several
// schedules once passes each schedule's index into the shared blocks
// instead of copying its durations out. idx must have length N and every
// entry must name a whole block of dur; the call panics otherwise.
func (s *Schedule) MakespanBatchIndexed(dur []float64, idx []int32, finishBuf, out []float64) {
	if len(idx) != len(s.proc) {
		panic("schedule: batched kernel index has the wrong length")
	}
	s.makespanBatch(dur, idx, finishBuf, out)
}

// makespanBatch is the sweep behind MakespanBatchInto (idx nil: task v
// reads block v) and MakespanBatchIndexed.
func (s *Schedule) makespanBatch(dur []float64, idx []int32, finish, out []float64) {
	if hasAVX {
		s.makespanBatch8AVX(len(s.proc), dur, idx, finish, out)
	} else {
		s.makespanBatch8(len(s.proc), dur, idx, finish, out)
	}
}

// batchLanes is the lane width of the batched sweep, and of every group
// sim samples and sweeps.
const batchLanes = 8

// makespanBatch8 is the batched sweep in Go: the form every host without
// AVX runs and the reference the assembly kernel is tested against.
// Converting the per-node slices to fixed-size array pointers lets the
// compiler drop the per-element bounds checks in the arc inner loop. Each
// lane's floating-point operations and their order are exactly those of
// the scalar forward pass, so results are bit-identical to MakespanInto.
func (s *Schedule) makespanBatch8(n int, dur []float64, idx []int32, finish, out []float64) {
	const L = batchLanes
	o := (*[L]float64)(out)
	*o = [L]float64{}
	predOff, predTo, predComm := s.arcs.predOff, s.arcs.predTo, s.predComm
	dpred := s.dpred
	for _, v32 := range s.topo {
		v := int(v32)
		// The eight lane start times are held in named locals so they stay
		// in floating-point registers across the arc loop instead of being
		// re-loaded from a stack array on every max update.
		var st0, st1, st2, st3, st4, st5, st6, st7 float64
		for k := predOff[v]; k < predOff[v+1]; k++ {
			fin := (*[L]float64)(finish[int(predTo[k])*L:])
			c := predComm[k]
			if t := fin[0] + c; t > st0 {
				st0 = t
			}
			if t := fin[1] + c; t > st1 {
				st1 = t
			}
			if t := fin[2] + c; t > st2 {
				st2 = t
			}
			if t := fin[3] + c; t > st3 {
				st3 = t
			}
			if t := fin[4] + c; t > st4 {
				st4 = t
			}
			if t := fin[5] + c; t > st5 {
				st5 = t
			}
			if t := fin[6] + c; t > st6 {
				st6 = t
			}
			if t := fin[7] + c; t > st7 {
				st7 = t
			}
		}
		// The disjunctive predecessor costs zero communication.
		if u := dpred[v]; u >= 0 {
			fin := (*[L]float64)(finish[int(u)*L:])
			if fin[0] > st0 {
				st0 = fin[0]
			}
			if fin[1] > st1 {
				st1 = fin[1]
			}
			if fin[2] > st2 {
				st2 = fin[2]
			}
			if fin[3] > st3 {
				st3 = fin[3]
			}
			if fin[4] > st4 {
				st4 = fin[4]
			}
			if fin[5] > st5 {
				st5 = fin[5]
			}
			if fin[6] > st6 {
				st6 = fin[6]
			}
			if fin[7] > st7 {
				st7 = fin[7]
			}
		}
		blk := v
		if idx != nil {
			blk = int(idx[v])
		}
		dv := (*[L]float64)(dur[blk*L:])
		fv := (*[L]float64)(finish[v*L:])
		fv[0] = st0 + dv[0]
		fv[1] = st1 + dv[1]
		fv[2] = st2 + dv[2]
		fv[3] = st3 + dv[3]
		fv[4] = st4 + dv[4]
		fv[5] = st5 + dv[5]
		fv[6] = st6 + dv[6]
		fv[7] = st7 + dv[7]
		for l := 0; l < L; l++ {
			if f := fv[l]; f > o[l] {
				o[l] = f
			}
		}
	}
}

// makespanBatch8AVX runs the assembly form of makespanBatch8. The assembly
// does no bounds checks, so every slice length it relies on, and every
// block idx names, is checked here. The index values it reads from the
// schedule (topo a permutation of the tasks, predOff nondecreasing, predTo
// and dpred in range) are guaranteed by every constructor and fuzzed by
// FuzzDecode.
func (s *Schedule) makespanBatch8AVX(n int, dur []float64, idx []int32, finish, out []float64) {
	const L = batchLanes
	predOff, predTo := s.arcs.predOff, s.arcs.predTo
	if len(s.topo) != n || len(predOff) != n+1 || int(predOff[n]) != len(predTo) ||
		len(s.predComm) != len(predTo) || len(s.dpred) != n || len(finish) < n*L ||
		idx == nil && len(dur) < n*L || idx != nil && len(idx) != n {
		panic("schedule: batched kernel inputs have inconsistent lengths")
	}
	blocks := len(dur) / L
	for _, b := range idx {
		if b < 0 || int(b) >= blocks {
			panic("schedule: batched kernel index names a block outside dur")
		}
	}
	batch8AVX(s.topo, predOff, predTo, s.dpred, idx, s.predComm, dur, finish, (*[L]float64)(out))
}
