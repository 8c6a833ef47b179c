package schedule

// MakespanBatchInto computes the realized makespans of `lanes` duration
// realizations in a single structure-of-arrays forward longest-path sweep
// over the schedule's CSR disjunctive graph. The graph topology (topological
// order, arc targets, communication costs) is loaded once per batch and each
// arc updates all lanes, instead of re-walking the graph once per
// realization as MakespanInto does — the batching that makes the paper's
// 1000-realization evaluations cheap.
//
// dur and finishBuf are lane-major with stride `lanes`: index [v*lanes+l]
// holds task v's value in lane l, so the per-arc inner loop walks contiguous
// memory. dur and finishBuf must have length >= N*lanes, stBuf (the current
// node's start-time scratch) length >= lanes, and out (which receives the
// makespans) length >= lanes.
//
// Every lane's floating-point operations are performed in exactly the order
// of the scalar forward pass, so out[l] is bit-identical to
// MakespanInto(dur-of-lane-l, ...) for any lane count. Eight lanes run the
// AVX kernel where the CPU and OS support AVX and makespanBatch8 elsewhere;
// both give the same bits.
func (s *Schedule) MakespanBatchInto(lanes int, dur, stBuf, finishBuf, out []float64) {
	s.makespanBatch(lanes, dur, nil, stBuf, finishBuf, out)
}

// MakespanBatchIndexed is MakespanBatchInto reading task v's durations from
// block idx[v] of dur, dur[int(idx[v])*lanes+l] for lane l, instead of from
// block v: a caller that samples the (task, processor) pairs of several
// schedules once passes each schedule's index into the shared blocks
// instead of copying its durations out. idx must have length N and every
// entry must name a whole block of dur; the call panics otherwise.
func (s *Schedule) MakespanBatchIndexed(lanes int, dur []float64, idx []int32, stBuf, finishBuf, out []float64) {
	if len(idx) != len(s.proc) {
		panic("schedule: batched kernel index has the wrong length")
	}
	s.makespanBatch(lanes, dur, idx, stBuf, finishBuf, out)
}

// makespanBatch is the sweep behind MakespanBatchInto (idx nil: task v
// reads block v) and MakespanBatchIndexed.
func (s *Schedule) makespanBatch(lanes int, dur []float64, idx []int32, stBuf, finishBuf, out []float64) {
	L := lanes
	n := len(s.proc)
	if idx == nil {
		dur = dur[: n*L : n*L]
	}
	finish := finishBuf[: n*L : n*L]
	if L == batchLanes {
		if hasAVX {
			s.makespanBatch8AVX(n, dur, idx, finish, out)
		} else {
			s.makespanBatch8(n, dur, idx, finish, out)
		}
		return
	}
	st := stBuf[:L:L]
	out = out[:L:L]
	for l := range out {
		out[l] = 0
	}
	predOff, predTo, predComm := s.arcs.predOff, s.arcs.predTo, s.predComm
	dpred := s.dpred
	for _, v32 := range s.topo {
		v := int(v32)
		for l := range st {
			st[l] = 0
		}
		for k := predOff[v]; k < predOff[v+1]; k++ {
			fin := finish[int(predTo[k])*L:]
			fin = fin[:L:L]
			c := predComm[k]
			for l, f := range fin {
				if t := f + c; t > st[l] {
					st[l] = t
				}
			}
		}
		// The disjunctive predecessor costs zero communication.
		if u := dpred[v]; u >= 0 {
			fin := finish[int(u)*L:]
			fin = fin[:L:L]
			for l, f := range fin {
				if f > st[l] {
					st[l] = f
				}
			}
		}
		blk := v
		if idx != nil {
			blk = int(idx[v])
		}
		dv := dur[blk*L : blk*L+L]
		fv := finish[v*L : v*L+L]
		for l, d := range dv {
			f := st[l] + d
			fv[l] = f
			if f > out[l] {
				out[l] = f
			}
		}
	}
}

// batchLanes is the lane width the specialized sweep below is compiled for;
// sim.DefaultBatchSize matches it so the common path takes the fast kernel.
const batchLanes = 8

// makespanBatch8 is MakespanBatchInto specialized to the default lane width.
// Converting the per-node slices to fixed-size array pointers lets the
// compiler drop the per-element bounds checks in the arc inner loop, which
// dominate the generic sweep's cost at small lane counts. The per-lane
// floating-point operations and their order are exactly those of the generic
// path, so results remain bit-identical.
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
