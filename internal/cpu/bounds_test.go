package cpu

import (
	"fmt"

	"critics/internal/trace"
)

// PhysicalBoundsErr checks res, the Result of simulating dyns under cfg,
// against lower bounds on cycles that no schedule of the modelled machine
// can beat, and returns an error naming the first one it violates:
//   - fetch slots: at most FetchWidth instructions enter per cycle;
//   - fetch bytes: the port delivers at most FetchBytes per cycle;
//   - commit slots: at most CommitWidth ROB entries retire per cycle (CDP
//     mode switches retire at decode and never enter the ROB);
//   - dataflow: the critical path through dyns' producers at base
//     latencies (one cycle for a store, Latency for anything else; a CDP
//     completes at decode without waiting for its producers). Producers
//     outside the stream count as ready at cycle 0.
//
// The latencies here are written out independently of the simulator's own
// issue-time bounds, so a wrong bound there cannot move this oracle with it.
func PhysicalBoundsErr(cfg Config, dyns []trace.Dyn, res Result) error {
	if res.AllDyns != int64(len(dyns)) {
		return fmt.Errorf("AllDyns %d, want %d", res.AllDyns, len(dyns))
	}
	if len(dyns) == 0 {
		return nil
	}
	first := dyns[0].Seq
	finish := make([]int64, len(dyns))
	var bytes, robCommits, path int64
	for i := range dyns {
		d := &dyns[i]
		bytes += int64(d.Size)
		if d.IsCDP {
			continue // finish 0: retires at decode, producers unread
		}
		robCommits++
		var ready int64
		for k := 0; k < int(d.NProd); k++ {
			if p := d.Prod[k] - first; p >= 0 {
				ready = max(ready, finish[p])
			}
		}
		lat := int64(d.Latency)
		if d.IsStore {
			lat = 1
		}
		finish[i] = ready + lat
		path = max(path, finish[i])
	}
	ceil := func(n, per int64) int64 { return (n + per - 1) / per }
	for _, b := range []struct {
		name  string
		bound int64
	}{
		{"fetch slots", ceil(int64(len(dyns)), int64(cfg.FetchWidth))},
		{"fetch bytes", ceil(bytes, int64(cfg.FetchBytes))},
		{"commit slots", ceil(robCommits, int64(cfg.CommitWidth))},
		{"dataflow critical path", path},
	} {
		if res.Cycles < b.bound {
			return fmt.Errorf("%d cycles, below the %s bound of %d", res.Cycles, b.name, b.bound)
		}
	}
	return nil
}
