package cpu

import (
	"reflect"
	"testing"

	"critics/internal/dfg"
	"critics/internal/trace"
	"critics/internal/workload"
)

// appDyns returns a realistic dynamic window (dependencies, branches, CDP
// mode switches) for the streaming equivalence tests.
func appDyns(t *testing.T, n int) []trace.Dyn {
	t.Helper()
	a, ok := workload.FindApp("acrobat")
	if !ok {
		t.Fatal("catalog app missing")
	}
	g := trace.NewGenerator(workload.Generate(a.Params), 11)
	g.Skip(2_000)
	return g.Generate(nil, n)
}

// TestRunStreamMatchesRun drives the same window through the materialized
// entry point (Run over a full slice with precomputed fanouts) and through
// RunStream over a chunked source with online fanouts, for both record
// collection modes, and requires bit-identical Results.
func TestRunStreamMatchesRun(t *testing.T) {
	dyns := appDyns(t, 30_000)
	fan := dfg.Fanouts(dyns, 128)
	for _, collect := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.CollectRecords = collect
		want := New(cfg).Run(dyns, fan)
		for _, chunk := range []int{1, 257, 4096} {
			fs := dfg.NewFanoutStream(trace.NewSliceSource(dyns, chunk), 128)
			got := New(cfg).RunStream(fs)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("collect=%v chunk=%d: streamed Result differs\ngot:  %+v\nwant: %+v",
					collect, chunk, got, want)
			}
		}
	}
}

// TestRunStreamNilFanouts checks that a fanout-less stream matches Run with
// nil fanouts (no criticality training, fanout 0 at every commit).
func TestRunStreamNilFanouts(t *testing.T) {
	dyns := appDyns(t, 10_000)
	cfg := DefaultConfig()
	want := New(cfg).Run(dyns, nil)
	got := New(cfg).RunStream(&sliceStream{dyns: dyns})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed Result differs\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestRunStreamContinuity checks that successive RunStream calls on one Sim
// continue the clock and warm state exactly like successive Run calls.
func TestRunStreamContinuity(t *testing.T) {
	dyns := appDyns(t, 24_000)
	fan := dfg.Fanouts(dyns, 128)
	a, b := dyns[:12_000], dyns[12_000:]
	fa, fb := fan[:12_000], fan[12_000:]

	sm := New(DefaultConfig())
	wa, wb := sm.Run(a, fa), sm.Run(b, fb)

	ss := New(DefaultConfig())
	ga := ss.RunStream(dfg.NewFanoutStream(trace.NewSliceSource(a, 999), 128))
	gb := ss.RunStream(dfg.NewFanoutStream(trace.NewSliceSource(b, 999), 128))
	if !reflect.DeepEqual(ga, wa) || !reflect.DeepEqual(gb, wb) {
		t.Fatal("streamed back-to-back windows differ from materialized runs")
	}
}

// TestOnCommit checks the commit observer fires exactly once per retired
// instruction with the stream's fanout values, in both entry points.
func TestOnCommit(t *testing.T) {
	dyns := appDyns(t, 8_000)
	fan := dfg.Fanouts(dyns, 128)
	for _, streamed := range []bool{false, true} {
		s := New(DefaultConfig())
		var n, cdp int64
		var sum int64
		s.OnCommit(func(d *trace.Dyn, fanout int32, r *Record) {
			n++
			sum += int64(fanout)
			if d.IsCDP {
				cdp++
			}
			if r.Committed < 0 && r.DecodeDone < 0 {
				t.Fatal("observer saw an unretired record")
			}
		})
		var res Result
		if streamed {
			res = s.RunStream(dfg.NewFanoutStream(trace.NewSliceSource(dyns, 1024), 128))
		} else {
			res = s.Run(dyns, fan)
		}
		if n != res.AllDyns {
			t.Fatalf("streamed=%v: observer fired %d times, want %d", streamed, n, res.AllDyns)
		}
		if cdp != res.AllDyns-res.Instrs {
			t.Fatalf("streamed=%v: observer saw %d CDPs, want %d", streamed, cdp, res.AllDyns-res.Instrs)
		}
		var want int64
		for _, f := range fan {
			want += int64(f)
		}
		if sum != want {
			t.Fatalf("streamed=%v: observed fanout sum %d, want %d", streamed, sum, want)
		}
	}
}
