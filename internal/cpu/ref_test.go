package cpu

import (
	"critics/internal/cache"
	"critics/internal/isa"
	"critics/internal/trace"
)

// refRunStream is the cycle loop as it stood before the hot-loop work in
// RunStream (criticality training only when a hook reads the table, wake-up
// bounds through unissued producers, issue-queue compaction only in cycles
// that issued): the reference model RunStream must match bit for bit.
//
// It is that loop verbatim except for four mechanical edits: its name, its
// own unpooled buffer set, its issue-queue entry type, and a metrics flush
// with zero work counters (the loop it preserves counted none). Keep it
// unedited otherwise; it is the oracle, not a second implementation.
func (s *Sim) refRunStream(st Stream) Result {
	var res Result
	collect := s.cfg.CollectRecords
	ia0, im0 := s.hier.L1I.Accesses, s.hier.L1I.Misses
	da0, dm0 := s.hier.L1D.Accesses, s.hier.L1D.Misses
	l20, dr0 := s.hier.L2.Accesses, s.hier.DRAM.Accesses

	bufs := &refRunBuffers{}

	type fifo struct {
		buf  []int32
		head int
	}
	push := func(f *fifo, v int32) { f.buf = append(f.buf, v) }
	size := func(f *fifo) int { return len(f.buf) - f.head }
	front := func(f *fifo) int32 { return f.buf[f.head] }
	pop := func(f *fifo) {
		f.head++
		if f.head > 1024 && f.head*2 > len(f.buf) {
			f.buf = append(f.buf[:0], f.buf[f.head:]...)
			f.head = 0
		}
	}

	var (
		now int64

		fetchIdx          int
		fetchBlockedUntil int64
		redirectBranch    = noIdx

		fetchBuf = fifo{buf: bufs.fetchQ[:0]}
		renameQ  = fifo{buf: bufs.renameQ[:0]}

		rob     = fifo{buf: bufs.robQ[:0]}
		iq      = bufs.iq[:0]
		lsqUsed int

		committed int64
		instrs    int64
	)

	// Sliding window: dyn/fan/rec cover absolute indices [winBase, hi).
	// hi counts every instruction admitted from the stream so far.
	var (
		dyn     = bufs.dyn[:0]
		fan     = bufs.fan[:0]
		rec     = bufs.rec[:0]
		winBase int
		hi      int

		exhausted bool
		hasFan    bool
		seqBase   int64
		recOut    []Record // CollectRecords output, indexed absolutely
	)
	defer func() {
		bufs.dyn, bufs.fan, bufs.rec = dyn[:0], fan[:0], rec[:0]
		bufs.fetchQ, bufs.renameQ, bufs.robQ = fetchBuf.buf[:0], renameQ.buf[:0], rob.buf[:0]
		bufs.iq = iq[:0]
	}()

	dynAt := func(i int) *trace.Dyn { return &dyn[i-winBase] }
	recAt := func(i int) *Record { return &rec[i-winBase] }

	// oldestInFlight is the lowest absolute index the pipeline can still
	// touch through a queue: queues hold disjoint index ranges with rob the
	// oldest, and anything below all three has committed (CDP mode switches
	// commit at decode, straight out of the fetch buffer).
	oldestInFlight := func() int {
		switch {
		case size(&rob) > 0:
			return int(front(&rob))
		case size(&renameQ) > 0:
			return int(front(&renameQ))
		case size(&fetchBuf) > 0:
			return int(front(&fetchBuf))
		}
		return fetchIdx
	}

	// admit pulls the next chunk into the sliding window, compacting the
	// committed prefix away first when it dominates the window. Returns
	// false once the stream is exhausted.
	admit := func() bool {
		if exhausted {
			return false
		}
		c, f := st.Next()
		if len(c) == 0 {
			exhausted = true
			return false
		}
		if hi == 0 {
			hasFan = f != nil
			seqBase = c[0].Seq
		}
		if k := oldestInFlight() - winBase; k > 0 && k*2 >= len(dyn) {
			dyn = append(dyn[:0], dyn[k:]...)
			rec = append(rec[:0], rec[k:]...)
			if hasFan {
				fan = append(fan[:0], fan[k:]...)
			}
			winBase += k
		}
		dyn = append(dyn, c...)
		if hasFan {
			fan = append(fan, f...)
		}
		for range c {
			rec = append(rec, blankRecord)
		}
		if collect {
			recOut = append(recOut, make([]Record, len(c))...)
		}
		hi += len(c)
		return true
	}

	if !admit() {
		return res // empty stream, matching Run on an empty window
	}
	rec[0].Eligible = 0

	// Per-run metric aggregates, accumulated as instructions retire so the
	// registry flush at the end does not need the full record slice.
	metrics := s.cfg.Metrics
	var runBkd Breakdown
	var cdpCount int64
	// retire finalizes one instruction (ROB commit, or decode for CDP mode
	// switches): metric accumulation, the OnCommit observer, and the
	// collect-mode copy-out.
	retire := func(idx int, d *trace.Dyn, r *Record) {
		if metrics != nil {
			runBkd.Add(BreakdownOf(r))
			if d.IsCDP {
				cdpCount++
			}
		}
		if s.onCommit != nil {
			var fv int32
			if hasFan {
				fv = fan[idx-winBase]
			}
			s.onCommit(d, fv, r)
		}
		if collect {
			recOut[idx] = *r
		}
	}

	// prodsReady reports whether every producer of d has its result available
	// at now. When not ready it also returns the wake-up cycle the issue scan
	// may skip to: the latest producer completion when all producers are
	// scheduled (exact — Done times are assigned once, at issue), or now+1
	// when some producer has not issued yet (re-check next cycle, which is
	// when its readiness could earliest change).
	prodsReady := func(d *trace.Dyn) (bool, int64) {
		var wake int64
		for k := uint8(0); k < d.NProd; k++ {
			p := int(d.Prod[k] - seqBase)
			if p < winBase {
				// Before the stream, or slid out of the window => committed;
				// result long available.
				continue
			}
			pd := rec[p-winBase].Done
			if pd < 0 {
				return false, now + 1
			}
			if pd > wake {
				wake = pd
			}
		}
		return wake <= now, wake
	}

	for !exhausted || committed < int64(hi) {
		// ---- Commit ----
		for w := 0; w < s.cfg.CommitWidth && size(&rob) > 0; w++ {
			idx := int(front(&rob))
			d := dynAt(idx)
			r := recAt(idx)
			if r.Done < 0 || r.Done > now {
				break
			}
			r.Committed = now
			pop(&rob)
			committed++
			if !d.Overhead {
				instrs++
			}
			if d.IsLoad || d.IsStore {
				lsqUsed--
			}
			if hasFan {
				s.trainCritical(d, fan[idx-winBase], now)
			}
			retire(idx, d, r)
		}

		// ---- Redirect resolution ----
		if redirectBranch != noIdx {
			if dn := recAt(redirectBranch).Done; dn >= 0 {
				until := dn + s.cfg.MispredictPenalty
				if until > fetchBlockedUntil {
					fetchBlockedUntil = until
				}
				redirectBranch = noIdx
			}
		}

		// ---- Issue / execute ----
		intALU, mulDiv, fpu, mem := s.cfg.IntALUs, s.cfg.MulDivUs, s.cfg.FPUs, s.cfg.MemPorts
		budget := s.cfg.IssueWidth
		// Two passes under BackendPrio: critical-predicted first.
		passes := 1
		if s.cfg.BackendPrio {
			passes = 2
		}
		for pass := 0; pass < passes && budget > 0; pass++ {
			for qi := 0; qi < len(iq) && budget > 0; qi++ {
				e := &iq[qi]
				idx := e.idx
				if idx == noIdx {
					continue
				}
				if e.wake > now {
					continue // producers known not done before wake
				}
				d := dynAt(int(idx))
				if s.cfg.BackendPrio {
					crit := s.predCritical(d.Addr)
					if pass == 0 && !crit {
						continue
					}
					if pass == 1 && crit {
						continue
					}
				}
				r := recAt(int(idx))
				if r.Dispatched >= now {
					continue
				}
				if ready, wake := prodsReady(d); !ready {
					e.wake = wake
					continue
				}
				var pool *int
				switch d.Class {
				case isa.ClassMul, isa.ClassDiv:
					pool = &mulDiv
				case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv:
					pool = &fpu
				case isa.ClassLoad, isa.ClassStore:
					pool = &mem
				default:
					pool = &intALU
				}
				if *pool == 0 {
					continue
				}
				*pool--
				budget--
				r.Issued = now
				switch {
				case d.IsLoad:
					start := now + int64(d.Latency) // AGU + access initiation
					r.Done = s.hier.Data(d.Addr, d.MemAddr, s.clock+start) - s.clock
				case d.IsStore:
					r.Done = now + 1
					s.hier.Data(d.Addr, d.MemAddr, s.clock+now+1) // line install; store buffered
				default:
					r.Done = now + int64(d.Latency)
				}
				e.idx = noIdx
			}
		}
		// Compact the issue queue occasionally.
		if len(iq) > 0 {
			out := iq[:0]
			for _, v := range iq {
				if v.idx != noIdx {
					out = append(out, v)
				}
			}
			iq = out
		}

		// ---- Rename / dispatch ----
		for w := 0; w < s.cfg.RenameWidth && size(&renameQ) > 0; w++ {
			idx := front(&renameQ)
			d := dynAt(int(idx))
			if recAt(int(idx)).DecodeDone >= now {
				break
			}
			if size(&rob) >= s.cfg.ROBSize || len(iq) >= s.cfg.IQSize {
				break
			}
			if (d.IsLoad || d.IsStore) && lsqUsed >= s.cfg.LSQSize {
				break
			}
			pop(&renameQ)
			recAt(int(idx)).Dispatched = now
			push(&rob, idx)
			iq = append(iq, refIQEnt{idx: idx})
			if d.IsLoad || d.IsStore {
				lsqUsed++
			}
		}

		// ---- Decode ----
		// The rename queue is a small latch between decode and rename;
		// when rename stalls (ROB/IQ full) it fills and decode stops,
		// pushing the back-pressure into the fetch buffer where it is
		// attributed as F.StallForR+D.
		renameQCap := 2 * s.cfg.RenameWidth
		slots := s.cfg.DecodeWidth
		for slots > 0 && size(&fetchBuf) > 0 && size(&renameQ) < renameQCap {
			idx := int(front(&fetchBuf))
			d := dynAt(idx)
			r := recAt(idx)
			if r.Fetched >= now {
				break
			}
			pop(&fetchBuf)
			slots--
			r.DecodeDone = now
			if d.IsCDP {
				// The mode switch is consumed by the decoder; it
				// never enters the ROB. Charge the conservative
				// 1-cycle decoder bubble.
				r.Dispatched = now
				r.Issued = now
				r.Done = now
				r.Committed = now
				committed++
				retire(idx, d, r)
				if s.cfg.CDPExtraDecodeCycle {
					// The mode switch flushes the rest of this
					// decode group (a sub-cycle bubble); decoding
					// resumes next cycle in the new mode.
					break
				}
				continue
			}
			push(&renameQ, int32(idx))
		}

		// ---- Fetch ----
		if redirectBranch == noIdx && now >= fetchBlockedUntil {
			bytes := s.cfg.FetchBytes
			slots := s.cfg.FetchWidth
			var curLine int64 = -1
			// markEligible stamps the next-to-fetch instruction, admitting
			// its chunk if the window has not reached it yet (admission is
			// a data pull only; it cannot affect timing).
			markEligible := func() {
				if fetchIdx == hi && !admit() {
					return
				}
				if r := recAt(fetchIdx); r.Eligible < 0 {
					r.Eligible = now
				}
			}
			for slots > 0 && size(&fetchBuf) < s.cfg.FetchBufSize {
				if fetchIdx == hi && !admit() {
					break
				}
				d := dynAt(fetchIdx)
				if int(d.Size) > bytes {
					break
				}
				line := int64(d.Addr &^ (cache.LineBytes - 1))
				if line != curLine {
					ready := s.hier.Instr(uint32(line), s.clock+now) - s.clock
					if ready > now+s.hier.L1I.HitLat() {
						// Miss (or in-flight fill): fetch stalls.
						fetchBlockedUntil = ready
						break
					}
					curLine = line
				}
				recAt(fetchIdx).Fetched = now
				push(&fetchBuf, int32(fetchIdx))
				bytes -= int(d.Size)
				slots--

				// Optimization hooks at fetch.
				if s.cfg.CriticalLoadPrefetch && d.IsLoad && s.predCritical(d.Addr) {
					s.hier.PrefetchData(d.MemAddr, s.clock+now)
				}
				if s.hier.EFetch != nil && d.Op == isa.OpBL {
					if target := s.hier.EFetch.Predict(d.Addr); target != 0 {
						for l := 0; l < s.hier.EFetch.Depth(); l++ {
							s.hier.PrefetchInstr(target+uint32(l*cache.LineBytes), s.clock+now)
						}
					}
					s.hier.EFetch.Train(d.Addr, d.Target)
				}

				redirected := false
				switch {
				case d.IsCond:
					res.CondBr++
					if !s.bpu.PredictAndUpdate(d.Addr, d.Taken) {
						res.Mispredicts++
						redirectBranch = fetchIdx
						redirected = true
						recAt(fetchIdx).Redirected = true
					}
				case d.Op == isa.OpBL:
					// Calls push the return address; BTB predicts the
					// target (direct calls never mispredict).
					s.bpu.Call(d.Addr + uint32(d.Size))
				case d.Op == isa.OpBX && d.Taken:
					// Returns predict through the RAS; a depth overflow
					// or corruption redirects like a branch mispredict.
					if !s.bpu.Return(d.Target) {
						res.Mispredicts++
						redirectBranch = fetchIdx
						redirected = true
						recAt(fetchIdx).Redirected = true
					}
				}
				endGroup := d.IsBranch && d.Taken

				fetchIdx++
				markEligible()
				if redirected || endGroup {
					break
				}
			}
			// An instruction stalled on bandwidth/buffer becomes eligible
			// now if it was not already.
			markEligible()
			if s.cfg.Metrics != nil {
				s.cfg.Metrics.FetchBytesUsed.Observe(float64(s.cfg.FetchBytes - bytes))
			}
		}

		now++
	}

	s.clock += now
	res.Cycles = now
	res.AllDyns = int64(hi)
	res.Instrs = instrs
	res.ICacheAccesses = s.hier.L1I.Accesses - ia0
	res.ICacheMisses = s.hier.L1I.Misses - im0
	res.DCacheAccesses = s.hier.L1D.Accesses - da0
	res.DCacheMisses = s.hier.L1D.Misses - dm0
	res.L2Accesses = s.hier.L2.Accesses - l20
	res.DRAMAccesses = s.hier.DRAM.Accesses - dr0
	if metrics != nil {
		metrics.flushRun(&res, runBkd, cdpCount, runWork{})
	}
	if collect {
		res.Records = recOut
	}
	return res
}

// refRunBuffers is refRunStream's buffer set, allocated per call.
type refRunBuffers struct {
	dyn []trace.Dyn
	fan []int32
	rec []Record

	fetchQ  []int32
	renameQ []int32
	robQ    []int32
	iq      []refIQEnt
}

// refIQEnt is one issue-queue slot of refRunStream: the instruction's
// absolute stream index plus a memoized wake-up cycle. wake > now means the
// entry's producers are all scheduled and the latest finishes at wake, so
// the scan skips it without re-walking the producers; wake <= now means the
// entry must be (re)checked.
type refIQEnt struct {
	idx  int32
	wake int64
}

// RefRunStream runs the reference loop on s. It is exported to the external
// test package, whose tests build catalog programs through internal/exp
// (which imports this package).
func RefRunStream(s *Sim, st Stream) Result { return s.refRunStream(st) }
