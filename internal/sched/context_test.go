package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := atomic.Int32{}
		NewPool(workers).WithContext(ctx).Map(8, func(int) { ran.Add(1) })
		if got := ran.Load(); got != 0 {
			t.Errorf("workers=%d: pre-cancelled Map ran %d shards", workers, got)
		}
	}
}

// TestMapCancelSerial pins the serial schedule's cancellation point: shards
// run in index order and the first check after cancel stops dispatch, so
// cancelling inside shard k means exactly k+1 shards run.
func TestMapCancelSerial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran []int
	NewPool(1).WithContext(ctx).Map(10, func(i int) {
		ran = append(ran, i)
		if i == 3 {
			cancel()
		}
	})
	if len(ran) != 4 || ran[3] != 3 {
		t.Errorf("serial cancel at shard 3 ran %v, want [0 1 2 3]", ran)
	}
}

// TestMapCancelParallel: cancellation stops queued shards from dispatching;
// Map still returns (no leaked workers) and did not run the full range.
func TestMapCancelParallel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 1000
	var ran atomic.Int32
	NewPool(4).WithContext(ctx).Map(n, func(i int) {
		if ran.Add(1) == 8 {
			cancel()
		}
	})
	if got := ran.Load(); got == 0 || got == n {
		t.Errorf("parallel cancel ran %d shards, want 0 < ran < %d", got, n)
	}
}

// TestGetCheckedDiscards: an invalid build is not retained and not counted
// as a usable value; the next lookup rebuilds.
func TestGetCheckedDiscards(t *testing.T) {
	m := NewMemo[int](0)
	k := KeyOf("x", 1)
	builds := 0
	v, hit := m.GetChecked(k, func() int { builds++; return 41 }, nil, func() bool { return false })
	if hit || v != 0 {
		t.Errorf("invalid build returned (%d, hit=%v), want zero value miss", v, hit)
	}
	if m.Len() != 0 {
		t.Errorf("invalid build retained: Len=%d", m.Len())
	}
	v, _ = m.GetChecked(k, func() int { builds++; return 42 }, nil, func() bool { return true })
	if v != 42 || builds != 2 {
		t.Errorf("rebuild after discard: v=%d builds=%d, want 42 after 2 builds", v, builds)
	}
	if v, hit = m.GetChecked(k, func() int { builds++; return -1 }, nil, nil); !hit || v != 42 || builds != 2 {
		t.Errorf("valid rebuild not retained: v=%d hit=%v builds=%d", v, hit, builds)
	}
}

// TestGetCheckedWaiterRetries: single-flight waiters of a discarded build do
// not receive the bad value — they retry the lookup, and one of them becomes
// the next builder.
func TestGetCheckedWaiterRetries(t *testing.T) {
	m := NewMemo[int](0)
	k := KeyOf("y", 2)
	inBuild := make(chan struct{})
	releaseBuild := make(chan struct{})

	go func() {
		m.GetChecked(k, func() int {
			close(inBuild)
			<-releaseBuild
			return 13 // partial artifact: must never reach a waiter
		}, nil, func() bool { return false })
	}()
	<-inBuild

	const waiters = 4
	var wg sync.WaitGroup
	got := make([]int, waiters)
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Waiters block on the first (doomed) build, then retry with a
			// validity check that accepts.
			got[w], _ = m.GetChecked(k, func() int { return 99 }, nil, func() bool { return true })
		}(w)
	}
	close(releaseBuild)
	wg.Wait()
	for w, v := range got {
		if v != 99 {
			t.Errorf("waiter %d got %d, want 99 (discarded build leaked)", w, v)
		}
	}
}
