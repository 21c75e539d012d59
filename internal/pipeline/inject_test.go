package pipeline

import (
	"sync"
	"testing"
	"time"

	"handshakejoin/internal/clock"
	"handshakejoin/internal/core"
)

// relayNode forwards every message towards the far end like an arrival,
// records the ids it saw per direction, and does its own "work" after
// the forward: it waits for gate (closed once, then free) and now and
// then sleeps, so the pipeline retires messages far slower than the
// injectors offer them.
type relayNode struct {
	k, n int
	gate chan struct{}
	seen *[2][]uint64 // by direction; read by the test after Quiesce
}

func (r relayNode) HandleLeft(m core.Msg[int, int], em core.Emitter[int, int]) {
	r.seen[0] = append(r.seen[0], m.Seqs[0])
	if r.k < r.n-1 {
		em.EmitRight(m)
	}
	r.work(m.Seqs[0])
}

func (r relayNode) HandleRight(m core.Msg[int, int], em core.Emitter[int, int]) {
	r.seen[1] = append(r.seen[1], m.Seqs[0])
	if r.k > 0 {
		em.EmitLeft(m)
	}
	r.work(m.Seqs[0])
}

func (r relayNode) work(id uint64) {
	<-r.gate
	if id%16 == 0 {
		time.Sleep(50 * time.Microsecond)
	}
}

func (relayNode) Stats() core.Stats { return core.Stats{} }

// gatedRelay builds a two-node relay pipeline at DepthCap 2 whose
// handlers block until the returned gate is closed.
func gatedRelay() (lv *Live[int, int], seen *[2][2][]uint64, gate chan struct{}) {
	gate = make(chan struct{})
	seen = new([2][2][]uint64)
	lv = NewLive(2, func(k int) core.NodeLogic[int, int] {
		return relayNode{k: k, n: 2, gate: gate, seen: &seen[k]}
	}, clock.NewWall(), LiveConfig{DepthCap: 2})
	return lv, seen, gate
}

// awaitParked waits until n injectors sleep on the entry doorbell.
func awaitParked(t *testing.T, lv *Live[int, int], n int32) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); lv.roomWaiters.Load() != n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d injectors parked, want %d", lv.roomWaiters.Load(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestInjectDoorbellDeliversEveryMessage: two injectors hammer the two
// ends of a pipeline that holds two messages and retires them slowly.
// Both are made to park (the handlers are gated until they have), and
// from then on every wake-up they need has to come from handled: one
// that is lost leaves an injector asleep on a pipeline with room, and
// the test times out. Every message must arrive, at both nodes, in the
// order its end injected it.
func TestInjectDoorbellDeliversEveryMessage(t *testing.T) {
	const perEnd = 200
	lv, seen, gate := gatedRelay()
	var wg sync.WaitGroup
	for _, end := range []End{LeftEnd, RightEnd} {
		wg.Add(1)
		go func(end End) {
			defer wg.Done()
			for i := uint64(0); i < perEnd; i++ {
				if !lv.Inject(end, core.Msg[int, int]{Kind: core.KindAck, Seqs: []uint64{i}}) {
					t.Errorf("end %d: inject %d refused on a running pipeline", end, i)
					return
				}
			}
		}(end)
	}
	awaitParked(t, lv, 2)
	close(gate)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("injectors stuck with %d parked at depth %d: a wake-up was lost", lv.roomWaiters.Load(), lv.QueueDepth())
	}
	lv.Quiesce()
	defer lv.Stop()
	if w := lv.roomWaiters.Load(); w != 0 {
		t.Fatalf("%d injectors still registered as parked", w)
	}
	if p := lv.InjectParks(); p < 2 {
		t.Fatalf("InjectParks = %d, want at least the two forced parks", p)
	}
	for k := range seen {
		for dir := range seen[k] {
			if len(seen[k][dir]) != perEnd {
				t.Fatalf("node %d direction %d saw %d messages, want %d", k, dir, len(seen[k][dir]), perEnd)
			}
			for i, id := range seen[k][dir] {
				if id != uint64(i) {
					t.Fatalf("node %d direction %d: message %d arrived in position %d", k, dir, id, i)
				}
			}
		}
	}
}

// TestStopReleasesParkedInjectors: Stop is the other ringer of the entry
// doorbell. Both injectors sleep on a pipeline that will never make
// room (its handlers are blocked); Stop must send both home with false.
func TestStopReleasesParkedInjectors(t *testing.T) {
	lv, _, gate := gatedRelay()
	refused := make(chan End, 2)
	for _, end := range []End{LeftEnd, RightEnd} {
		go func(end End) {
			for i := uint64(0); lv.Inject(end, core.Msg[int, int]{Kind: core.KindAck, Seqs: []uint64{i}}); i++ {
			}
			refused <- end
		}(end)
	}
	awaitParked(t, lv, 2)
	stopped := make(chan struct{})
	go func() { lv.Stop(); close(stopped) }() // returns once the handlers are let go
	for i := 0; i < 2; i++ {
		select {
		case <-refused:
		case <-time.After(20 * time.Second):
			t.Fatalf("Stop left %d injectors parked", lv.roomWaiters.Load())
		}
	}
	close(gate)
	<-stopped
}
