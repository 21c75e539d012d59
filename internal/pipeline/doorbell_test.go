package pipeline

import (
	"sync/atomic"
	"testing"
	"time"

	"handshakejoin/internal/clock"
	"handshakejoin/internal/collect"
	"handshakejoin/internal/core"
	"handshakejoin/internal/stream"
)

// burstNode emits burst results for every message it is handed and
// nothing else: no forwarding, no marks.
type burstNode struct{ burst int }

func (n burstNode) HandleLeft(_ core.Msg[int, int], em core.Emitter[int, int]) {
	for i := 0; i < n.burst; i++ {
		em.EmitResult(stream.Pair[int, int]{R: stream.Tuple[int]{Seq: uint64(i)}})
	}
}
func (n burstNode) HandleRight(m core.Msg[int, int], em core.Emitter[int, int]) { n.HandleLeft(m, em) }
func (burstNode) Stats() core.Stats                                             { return core.Stats{} }

// TestHandlerOverflowingResultQueueCompletes: one message whose handler
// emits far more results than its queue holds. The handler cannot reach
// its end-of-message ring until the collector has made room, so the
// full queue itself has to ring — with a sleeping collector and no
// timer, anything else is a deadlock.
func TestHandlerOverflowingResultQueueCompletes(t *testing.T) {
	const burst = 1000
	lv := NewLive(1, func(int) core.NodeLogic[int, int] { return burstNode{burst: burst} },
		clock.NewWall(), LiveConfig{ResultCap: 4})
	var got atomic.Int64
	c := collect.New(lv.ResultQueues(), nil, func(collect.Item[int, int]) { got.Add(1) }, collect.Config{})
	done := make(chan struct{})
	go func() {
		c.Run(lv.WaitOutput)
		close(done)
	}()
	// Let the collector run dry and park before the burst starts.
	for deadline := time.Now().Add(10 * time.Second); !lv.outParked.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("collector never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !lv.Inject(LeftEnd, core.Msg[int, int]{Kind: core.KindAck}) {
		t.Fatal("inject failed")
	}
	for deadline := time.Now().Add(20 * time.Second); got.Load() < burst; {
		if time.Now().After(deadline) {
			t.Fatalf("handler stuck after %d of %d results: nobody woke the collector", got.Load(), burst)
		}
		time.Sleep(100 * time.Microsecond)
	}
	lv.Quiesce()
	lv.Stop()
	<-done
	if got.Load() != burst {
		t.Fatalf("collected %d results, want %d", got.Load(), burst)
	}
}

// gateNode forwards arrivals like an LLHJ node — before its own work —
// and node 0's own work then waits on gate.
type gateNode struct {
	k, n int
	gate chan struct{}
}

func (g gateNode) HandleLeft(m core.Msg[int, int], em core.Emitter[int, int]) {
	if g.k < g.n-1 {
		em.EmitRight(m)
	}
	if g.k == 0 {
		<-g.gate
	}
}
func (gateNode) HandleRight(core.Msg[int, int], core.Emitter[int, int]) {}
func (gateNode) Stats() core.Stats                                      { return core.Stats{} }

// TestHWMWaitsForSlowestNode: a batch reaching the pipeline end says
// nothing about the nodes behind it, which forwarded it before scanning
// it and may still be emitting its results. The high-water mark — what
// a punctuation promises — must not pass a batch until every node has
// finished it.
func TestHWMWaitsForSlowestNode(t *testing.T) {
	gate := make(chan struct{})
	lv := NewLive(2, func(k int) core.NodeLogic[int, int] { return gateNode{k: k, n: 2, gate: gate} },
		clock.NewWall(), LiveConfig{})
	defer lv.Stop()
	lv.Inject(LeftEnd, core.Msg[int, int]{Kind: core.KindArrival, Side: stream.R,
		R: []stream.Tuple[int]{{Seq: 0, TS: 100}}})
	for deadline := time.Now().Add(10 * time.Second); lv.done[1].ts[0].Load() != 100; {
		if time.Now().After(deadline) {
			t.Fatal("end node never finished the batch")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if hwm := lv.HWMR(); hwm != 0 {
		t.Fatalf("HWM_R = %d while node 0 is still handling the batch, want 0", hwm)
	}
	close(gate)
	lv.Quiesce()
	if hwm := lv.HWMR(); hwm != 100 {
		t.Fatalf("HWM_R = %d after every node finished, want 100", hwm)
	}
}
