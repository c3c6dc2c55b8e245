package cpu

import (
	"sync"

	"critics/internal/trace"
)

// BatchSim runs N independently-configured simulator lanes in lockstep over
// one shared instruction stream — the batched core design-space sweeps use
// when several machine/compiler variants measure the same generated trace.
// The expensive shared front of the pipeline (trace generation, online
// fanout extraction, chunk admission) is paid once per batch instead of once
// per variant; each lane keeps its own architectural state (cache hierarchy,
// branch predictor, criticality table, pipeline queues, stage records) in the
// per-lane simulator, so lane i's Result is bit-identical to what a lone
// Sim with the same Config would produce over the same stream.
//
// Lanes advance in lockstep at chunk granularity: the batch pulls each chunk
// from the source exactly once and every lane consumes it before the next is
// generated, so peak memory is O(lanes × window), independent of stream
// length — the constant-memory property of RunStream, times the lane count.
// On a multi-core host lanes simulate concurrently (the per-lane cycle loops
// are independent); on a single core the batch still saves the duplicated
// generation and fanout work. Either way results are deterministic: each
// lane's outcome depends only on its own configuration and the shared chunk
// sequence, never on scheduling.
//
// A BatchSim is stateful like Sim: hierarchy and predictor state persist
// across RunStream calls, so a warm-up window followed by a measured
// window sees warm lanes, exactly as back-to-back Sim.RunStream calls would.
type BatchSim struct {
	sims []*Sim

	// bufs are the two broadcast chunk buffers (see RunStream); retained
	// across calls so a warm batch admits chunks without reallocating.
	bufs [2]batchChunk
}

// batchChunk is one broadcast buffer: a chunk of the shared stream with its
// aligned fanouts (fan nil when the stream carries none).
type batchChunk struct {
	dyn []trace.Dyn
	fan []int32
}

// NewBatch creates one simulator lane per configuration. The lane order is
// the configuration order; it is observable only in the order of returned
// results (lane state never crosses lanes).
func NewBatch(cfgs []Config) *BatchSim {
	b := &BatchSim{sims: make([]*Sim, len(cfgs))}
	for i, cfg := range cfgs {
		b.sims[i] = New(cfg)
	}
	return b
}

// Lanes returns the lane count.
func (b *BatchSim) Lanes() int { return len(b.sims) }

// Lane returns lane i's simulator, e.g. to attach a per-lane OnCommit
// observer between a warm-up and a measured RunStream.
func (b *BatchSim) Lane(i int) *Sim { return b.sims[i] }

// laneStream adapts one lane's side of the broadcast to the Stream interface:
// Next blocks until the feeder publishes the next chunk (or end of stream).
// The blocking receive is what suspends a lane mid-cycle at its admit point —
// admission is a data pull only and cannot affect modeled timing, so feeding
// lanes chunk by chunk is invisible to results.
type laneStream struct {
	ch <-chan batchChunk
}

func (ls *laneStream) Next() ([]trace.Dyn, []int32) {
	c, ok := <-ls.ch
	if !ok {
		return nil, nil
	}
	return c.dyn, c.fan
}

// RunStream simulates one window on every lane, pulling the shared stream
// from st exactly once. Results are indexed by lane and each is bit-identical
// to sims[i].RunStream over the same stream.
//
// The broadcast is double-buffered: a chunk is copied out of the source once,
// handed to every lane over an unbuffered channel, and its buffer is reused
// only after every lane has requested the following chunk — which, per the
// Stream contract (RunStream copies what it still needs before calling Next
// again), proves all lanes are done reading it. That keeps the whole batch at
// two chunk buffers regardless of lane count.
func (b *BatchSim) RunStream(st Stream) []Result {
	if len(b.sims) == 1 {
		// Degenerate batch: no broadcast machinery, exactly the serial path.
		return []Result{b.sims[0].RunStream(st)}
	}
	results := make([]Result, len(b.sims))
	chans := make([]chan batchChunk, len(b.sims))
	var wg sync.WaitGroup
	for i := range b.sims {
		ch := make(chan batchChunk)
		chans[i] = ch
		wg.Add(1)
		go func(i int, ch <-chan batchChunk) {
			defer wg.Done()
			results[i] = b.sims[i].RunStream(&laneStream{ch: ch})
		}(i, ch)
	}
	for k := 0; ; k++ {
		c, f := st.Next()
		if len(c) == 0 {
			break
		}
		buf := &b.bufs[k&1]
		buf.dyn = append(buf.dyn[:0], c...)
		if f != nil {
			buf.fan = append(buf.fan[:0], f...)
		} else {
			buf.fan = nil
		}
		for _, ch := range chans {
			ch <- batchChunk{dyn: buf.dyn, fan: buf.fan}
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	return results
}
