package shard

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"handshakejoin/internal/clock"
	"handshakejoin/internal/collect"
	"handshakejoin/internal/core"
	"handshakejoin/internal/workload"
)

// newPunctLane is newTestLane with punctuation on, counting what the
// collector delivers.
func newPunctLane(workers int, results *atomic.Int64, punct *atomic.Int64) *Lane[int, int] {
	ccfg := &core.Config[int, int]{Nodes: workers, Pred: func(r, s int) bool { return r == s }}
	build := func(k int) core.NodeLogic[int, int] { return core.NewNode(ccfg, k) }
	return NewLane[int, int](LaneConfig{
		Workers:     workers,
		Batch:       1,
		MaxInFlight: 8,
		Punctuate:   true,
		Clock:       clock.NewWall(),
	}, build, func(it collect.Item[int, int]) {
		if it.Punct {
			punct.Store(it.TS)
		} else {
			results.Add(1)
		}
	})
}

// await spins (no timer on the delivery path, and none here) until cond
// holds; a lost wake-up shows as the deadline.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; !cond(); i++ {
		if i%1024 == 0 && time.Now().After(deadline) {
			t.Fatalf("%s never arrived: the collector slept through its doorbell", what)
		}
		runtime.Gosched()
	}
}

// TestDoorbellDeliversEveryEvent is the lost-wake-up stress: single
// results and single high-water-mark advances, each produced after a
// random gap so that rings land before, inside and after the
// collector's park handshake, and each awaited before the next so the
// collector really goes back to sleep in between. Nothing on the path
// polls, so one missed ring is a hang.
func TestDoorbellDeliversEveryEvent(t *testing.T) {
	events := 20000
	if testing.Short() {
		events = 4000
	}
	var results, punct atomic.Int64
	l := newPunctLane(2, &results, &punct)
	defer l.Close()
	rnd := workload.NewRand(0xD00B)

	// One stored S tuple: every later R arrival of the same value
	// joins exactly once.
	l.PushS(rt(0, 1, 7))
	ts := int64(1)
	want := int64(0)
	for i := 0; i < events; i++ {
		for gap := rnd.Intn(64); gap > 0; gap-- {
			if gap%8 == 0 {
				runtime.Gosched()
			}
		}
		ts++
		if rnd.Intn(3) == 0 {
			// A heartbeat is a bare promise: no result, both marks move.
			l.Heartbeat(ts)
			at := ts
			await(t, "punctuation", func() bool { return punct.Load() == at })
			continue
		}
		l.PushR(rt(uint64(i), ts, 7))
		want++
		w := want
		await(t, "result", func() bool { return results.Load() == w })
	}
	if got := l.Collected(); got != uint64(want) {
		t.Fatalf("collected %d results, want %d", got, want)
	}
	if l.CollectorWakeups() == 0 {
		t.Fatal("the collector never slept: the test exercised no wake-up")
	}
}

// TestIdleLaneRunsNoPasses: a lane nobody feeds runs no collector pass
// at all — there is nothing left that polls — and Close still gets the
// parked collector out: it returns and no goroutine stays behind.
func TestIdleLaneRunsNoPasses(t *testing.T) {
	before := runtime.NumGoroutine()
	var results, punct atomic.Int64
	l := newPunctLane(3, &results, &punct)
	l.PushS(rt(0, 1, 7))
	l.PushR(rt(0, 2, 7))
	await(t, "result", func() bool { return results.Load() == 1 })
	l.Heartbeat(5)
	await(t, "punctuation", func() bool { return punct.Load() == 5 })
	// The pass that delivered the punctuation may still be on its way
	// back to the doorbell; a parked collector has stopped counting.
	await(t, "quiet collector", func() bool {
		p := l.CollectorPasses()
		time.Sleep(2 * time.Millisecond)
		return l.CollectorPasses() == p
	})

	p0, w0 := l.CollectorPasses(), l.CollectorWakeups()
	time.Sleep(50 * time.Millisecond)
	if p1, w1 := l.CollectorPasses(), l.CollectorWakeups(); p1 != p0 || w1 != w0 {
		t.Fatalf("idle lane ran %d collector passes and %d wake-ups in 50 ms, want none", p1-p0, w1-w0)
	}

	closed := make(chan struct{})
	go func() {
		l.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(20 * time.Second):
		t.Fatal("Close did not return: the parked collector never heard the queues close")
	}
	await(t, "goroutine exit", func() bool { return runtime.NumGoroutine() <= before })
}
