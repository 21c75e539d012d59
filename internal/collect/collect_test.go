package collect

import (
	"testing"

	"handshakejoin/internal/core"
	"handshakejoin/internal/fifo"
	"handshakejoin/internal/stream"
)

func mkQueues(n int) []*fifo.Chan[core.Result[int, int]] {
	qs := make([]*fifo.Chan[core.Result[int, int]], n)
	for i := range qs {
		qs[i] = fifo.NewChan[core.Result[int, int]](64)
	}
	return qs
}

func put(q *fifo.Chan[core.Result[int, int]], rSeq uint64, ts int64) {
	q.TryPut(core.Result[int, int]{
		Pair: stream.Pair[int, int]{R: stream.Tuple[int]{Seq: rSeq, TS: ts}},
	})
}

func TestCollectorVacuumsAllQueues(t *testing.T) {
	qs := mkQueues(3)
	put(qs[0], 1, 10)
	put(qs[2], 2, 20)
	put(qs[2], 3, 30)

	var items []Item[int, int]
	c := New(qs, nil, func(it Item[int, int]) { items = append(items, it) }, Config{})
	c.RunOnce()
	if len(items) != 3 {
		t.Fatalf("collected %d, want 3", len(items))
	}
	if c.Collected() != 3 {
		t.Fatalf("Collected = %d", c.Collected())
	}
	if c.Punctuations() != 0 {
		t.Fatal("punctuation emitted while disabled")
	}
}

func TestCollectorPunctuationOrderAndMonotonicity(t *testing.T) {
	qs := mkQueues(2)
	hwmR, hwmS := int64(0), int64(0)
	hwm := func() (int64, int64) { return hwmR, hwmS }

	var items []Item[int, int]
	c := New(qs, hwm, func(it Item[int, int]) { items = append(items, it) }, Config{Punctuate: true})

	hwmR, hwmS = 100, 80
	put(qs[0], 1, 90)
	c.RunOnce()
	// One result, then a punctuation at min(100, 80) = 80.
	if len(items) != 2 || items[0].Punct || !items[1].Punct || items[1].TS != 80 {
		t.Fatalf("items = %+v", items)
	}

	// Unchanged HWM: no duplicate punctuation.
	c.RunOnce()
	if len(items) != 2 {
		t.Fatalf("duplicate punctuation emitted: %+v", items)
	}

	hwmS = 150
	c.RunOnce()
	if len(items) != 3 || !items[2].Punct || items[2].TS != 100 {
		t.Fatalf("punctuation did not advance to 100: %+v", items)
	}
	if c.Punctuations() != 2 {
		t.Fatalf("Punctuations = %d", c.Punctuations())
	}
}

func TestCollectorRunTerminatesWhenQueuesClose(t *testing.T) {
	qs := mkQueues(2)
	put(qs[0], 1, 10)
	qs[0].Close()
	qs[1].Close()
	var items []Item[int, int]
	c := New(qs, nil, func(it Item[int, int]) { items = append(items, it) }, Config{})
	done := make(chan struct{})
	go func() {
		c.Run(nil)
		close(done)
	}()
	<-done
	if len(items) != 1 {
		t.Fatalf("collected %d before termination, want 1", len(items))
	}
}

// TestCollectorPunctuationInvariant feeds results whose timestamps obey
// the high-water-mark contract and asserts the output invariant: no
// result after a punctuation ⌈tp⌉ has ts < tp.
func TestCollectorPunctuationInvariant(t *testing.T) {
	qs := mkQueues(2)
	var hwmR, hwmS int64
	c := New(qs, func() (int64, int64) { return hwmR, hwmS }, nil, Config{Punctuate: true})

	var lastPunct int64 = -1
	violated := false
	c.out = func(it Item[int, int]) {
		if it.Punct {
			lastPunct = it.TS
			return
		}
		if ts := it.Result.Pair.TS(); ts < lastPunct {
			violated = true
		}
	}

	for step := 0; step < 200; step++ {
		// Streams advance; results carry ts >= current min HWM.
		hwmR += int64(step % 7)
		hwmS += int64(step % 5)
		min := hwmR
		if hwmS < min {
			min = hwmS
		}
		put(qs[step%2], uint64(step), min+int64(step%13))
		c.RunOnce()
	}
	if violated {
		t.Fatal("punctuation invariant violated")
	}
}

// TestCollectorPendingTracksWhatAPassWouldDo pins the re-check an
// event-driven collector makes before it sleeps: true exactly when a
// pass has a result to vacuum, a punctuation to emit, or the closed
// queues to report.
func TestCollectorPendingTracksWhatAPassWouldDo(t *testing.T) {
	qs := mkQueues(2)
	hwmR, hwmS := int64(-1), int64(-1)
	c := New(qs, func() (int64, int64) { return hwmR, hwmS }, func(Item[int, int]) {}, Config{Punctuate: true})
	if c.Pending() {
		t.Fatal("pending on empty queues with no stream progress")
	}
	put(qs[1], 1, 10)
	if !c.Pending() {
		t.Fatal("queued result not pending")
	}
	c.RunOnce()
	if c.Pending() {
		t.Fatal("still pending after the pass took the result")
	}
	hwmR = 50 // one mark alone promises nothing
	if c.Pending() {
		t.Fatal("pending although min(hwm) has not moved")
	}
	hwmS = 40
	if !c.Pending() {
		t.Fatal("advanced high-water marks not pending")
	}
	c.RunOnce()
	if c.Pending() || c.Punctuations() != 1 {
		t.Fatalf("after punctuating: pending %v, punctuations %d", c.Pending(), c.Punctuations())
	}
	qs[0].Close()
	if c.Pending() {
		t.Fatal("one closed queue of two is not the end of the stream")
	}
	qs[1].Close()
	if !c.Pending() {
		t.Fatal("every queue closed must wake the collector for its final pass")
	}
	if c.Passes() != 2 {
		t.Fatalf("Passes = %d, want 2", c.Passes())
	}

	// Without punctuation the marks are nobody's business.
	plain := New(mkQueues(1), func() (int64, int64) { return 99, 99 }, func(Item[int, int]) {}, Config{})
	if plain.Pending() {
		t.Fatal("non-punctuating collector pending on high-water marks")
	}
}

// TestCollectorRunWaitsBetweenPasses: Run hands its wait func Pending
// and runs a pass each time wait returns, until the queues close.
func TestCollectorRunWaitsBetweenPasses(t *testing.T) {
	qs := mkQueues(1)
	var got int
	c := New(qs, nil, func(Item[int, int]) { got++ }, Config{})
	waits := 0
	c.Run(func(pending func() bool) {
		waits++
		if pending() {
			t.Errorf("wait %d: pending right after a pass", waits)
		}
		switch waits {
		case 1:
			put(qs[0], 1, 10)
		case 2:
			put(qs[0], 2, 20)
			qs[0].Close()
		}
		if !pending() {
			t.Errorf("wait %d: not pending after the producer published", waits)
		}
	})
	if got != 2 || waits != 2 || c.Passes() != 3 {
		t.Fatalf("collected %d results over %d waits and %d passes, want 2, 2, 3", got, waits, c.Passes())
	}
}
