package cpu

import (
	"reflect"
	"testing"

	"critics/internal/dfg"
	"critics/internal/trace"
)

// batchConfigs is a design-space-sweep-shaped lane set: machine knobs spread
// across the fetch, cache, predictor and backend axes the figure sweeps use.
func batchConfigs() []Config {
	wide := DefaultConfig()
	wide.FetchBytes *= 2
	wide.FetchWidth *= 2
	wide.DecodeWidth *= 2

	bigIC := DefaultConfig()
	bigIC.Hier.L1I.SizeBytes *= 4

	perfect := DefaultConfig()
	perfect.BPU.Perfect = true

	prio := DefaultConfig()
	prio.BackendPrio = true

	prefetch := DefaultConfig()
	prefetch.CriticalLoadPrefetch = true

	noBubble := DefaultConfig()
	noBubble.CDPExtraDecodeCycle = false

	smallROB := DefaultConfig()
	smallROB.ROBSize = 48
	smallROB.IQSize = 24

	return []Config{DefaultConfig(), wide, bigIC, perfect, prio, prefetch, noBubble, smallROB}
}

// serialResults runs each config through a lone Sim over its own fanout
// stream — the reference the batched lanes must match bit for bit.
func serialResults(dyns []trace.Dyn, cfgs []Config, chunk int) []Result {
	out := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		fs := dfg.NewFanoutStream(trace.NewSliceSource(dyns, chunk), 128)
		out[i] = New(cfg).RunStream(fs)
	}
	return out
}

// TestBatchSimMatchesSerial checks, for both collect modes and several chunk
// sizes, that every BatchSim lane produces exactly the Result a lone Sim
// with the same Config produces over the same stream.
func TestBatchSimMatchesSerial(t *testing.T) {
	dyns := appDyns(t, 20_000)
	for _, collect := range []bool{false, true} {
		cfgs := batchConfigs()
		for i := range cfgs {
			cfgs[i].CollectRecords = collect
		}
		for _, chunk := range []int{257, 4096} {
			want := serialResults(dyns, cfgs, chunk)
			b := NewBatch(cfgs)
			fs := dfg.NewFanoutStream(trace.NewSliceSource(dyns, chunk), 128)
			got := b.RunStream(fs)
			for i := range cfgs {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("collect=%v chunk=%d lane=%d: batched Result differs from serial",
						collect, chunk, i)
				}
			}
		}
	}
}

// TestBatchSimWarmThenMeasure checks that lane state (caches, predictor,
// criticality table, clock) persists across batch windows exactly as it does
// across Sim.RunStream calls: a warm-up pass followed by a measured pass must
// match the serial two-pass flow lane by lane.
func TestBatchSimWarmThenMeasure(t *testing.T) {
	all := appDyns(t, 24_000)
	warm, meas := all[:8_000], all[8_000:]
	cfgs := batchConfigs()

	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		s := New(cfg)
		s.RunStream(dfg.NewFanoutStream(trace.NewSliceSource(warm, 1024), 128))
		want[i] = s.RunStream(dfg.NewFanoutStream(trace.NewSliceSource(meas, 1024), 128))
	}

	b := NewBatch(cfgs)
	b.RunStream(dfg.NewFanoutStream(trace.NewSliceSource(warm, 1024), 128))
	got := b.RunStream(dfg.NewFanoutStream(trace.NewSliceSource(meas, 1024), 128))
	for i := range cfgs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("lane %d: warm+measure batch differs from serial two-pass flow", i)
		}
	}
}

// TestBatchLaneOrderIndependence is the lane-independence property: permuting
// the lane order within a batch never changes any per-variant Result — lane
// state must not leak across lanes.
func TestBatchLaneOrderIndependence(t *testing.T) {
	dyns := appDyns(t, 15_000)
	cfgs := batchConfigs()
	base := NewBatch(cfgs).RunStream(dfg.NewFanoutStream(trace.NewSliceSource(dyns, 4096), 128))

	perm := []int{3, 0, 7, 5, 1, 6, 2, 4}
	pcfgs := make([]Config, len(cfgs))
	for to, from := range perm {
		pcfgs[to] = cfgs[from]
	}
	got := NewBatch(pcfgs).RunStream(dfg.NewFanoutStream(trace.NewSliceSource(dyns, 4096), 128))
	for to, from := range perm {
		if !reflect.DeepEqual(got[to], base[from]) {
			t.Errorf("lane %d (was %d): Result changed under lane permutation", to, from)
		}
	}
}

// TestBatchSplitIndependence is the other half of the property: splitting one
// batch into two batches (any partition) never changes any per-variant
// Result.
func TestBatchSplitIndependence(t *testing.T) {
	dyns := appDyns(t, 15_000)
	cfgs := batchConfigs()
	base := NewBatch(cfgs).RunStream(dfg.NewFanoutStream(trace.NewSliceSource(dyns, 4096), 128))

	for _, cut := range []int{1, 3, len(cfgs) - 1} {
		a := NewBatch(cfgs[:cut]).RunStream(dfg.NewFanoutStream(trace.NewSliceSource(dyns, 4096), 128))
		b := NewBatch(cfgs[cut:]).RunStream(dfg.NewFanoutStream(trace.NewSliceSource(dyns, 4096), 128))
		split := append(append([]Result{}, a...), b...)
		for i := range cfgs {
			if !reflect.DeepEqual(split[i], base[i]) {
				t.Errorf("cut=%d lane=%d: Result changed when the batch was split", cut, i)
			}
		}
	}
}

// TestBatchSimEmptyStream: an empty stream yields one empty Result per lane,
// matching serial Sims on empty windows.
func TestBatchSimEmptyStream(t *testing.T) {
	cfgs := batchConfigs()[:3]
	got := NewBatch(cfgs).RunStream(dfg.NewFanoutStream(trace.NewSliceSource(nil, 4096), 128))
	if len(got) != len(cfgs) {
		t.Fatalf("got %d results, want %d", len(got), len(cfgs))
	}
	for i, r := range got {
		if r.Cycles != 0 || r.AllDyns != 0 {
			t.Errorf("lane %d: non-empty result %+v from empty stream", i, r)
		}
	}
}

// TestBatchSimOnCommitPerLane attaches a distinct commit observer per lane
// and checks each sees exactly its own lane's retirements (count == AllDyns).
func TestBatchSimOnCommitPerLane(t *testing.T) {
	dyns := appDyns(t, 10_000)
	cfgs := batchConfigs()[:4]
	b := NewBatch(cfgs)
	counts := make([]int64, len(cfgs))
	for i := 0; i < b.Lanes(); i++ {
		i := i
		b.Lane(i).OnCommit(func(d *trace.Dyn, fan int32, r *Record) { counts[i]++ })
	}
	res := b.RunStream(dfg.NewFanoutStream(trace.NewSliceSource(dyns, 4096), 128))
	for i := range cfgs {
		if counts[i] != res[i].AllDyns {
			t.Errorf("lane %d: observer saw %d retirements, want %d", i, counts[i], res[i].AllDyns)
		}
	}
}
