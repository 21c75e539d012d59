// Package collect implements result-stream assembly (§5) and
// punctuation generation (§6.1) for live pipelines.
//
// Every pipeline worker writes matches to its own result queue
// (Q1..Qn, Figure 15); a collector goroutine vacuums all queues into a
// single output stream whenever the workers leave it something to do
// (it sleeps on the pipeline's output doorbell in between, not on a
// timer). For low-latency handshake join
// the collector additionally reads the high-water marks maintained at
// the pipeline ends and emits punctuations ⌈tp⌉ with
// tp = min(tmax,R, tmax,S): a guarantee that no later result carries a
// smaller timestamp (§6.1.3). The read-HWM-then-vacuum-then-punctuate
// order is what makes the guarantee sound.
package collect

import (
	"sync"
	"sync/atomic"

	"handshakejoin/internal/core"
	"handshakejoin/internal/fifo"
)

// Item is one element of the assembled output stream: either a join
// result or a punctuation.
type Item[L, R any] struct {
	// Punct marks a punctuation carrying timestamp TS; otherwise the
	// item is Result.
	Punct bool
	// TS is the punctuation timestamp tp (valid when Punct).
	TS int64
	// Result is the join result (valid when !Punct).
	Result core.Result[L, R]
}

// Config tunes a Collector.
type Config struct {
	// Punctuate enables punctuation generation (LLHJ §6.1). Without
	// it the collector only merges the result queues, as the original
	// handshake join implementation does.
	Punctuate bool
}

// Collector vacuums per-node result queues into a single stream.
type Collector[L, R any] struct {
	queues []*fifo.Chan[core.Result[L, R]]
	hwm    func() (r, s int64)
	out    func(Item[L, R])
	cfg    Config

	// runMu serializes whole collection passes: the background Run loop
	// and any synchronous RunOnce caller (a checkpoint draining the
	// result queues at its cut) take it for the duration of a pass, so
	// a pass observes the queues and emits downstream atomically with
	// respect to other passes.
	runMu sync.Mutex

	// Written by the pass holding runMu, read by stats samplers and by
	// Pending from other goroutines.
	collected atomic.Uint64
	puncts    atomic.Uint64
	passes    atomic.Uint64
	lastPunct atomic.Int64
}

// New returns a Collector draining queues into out. hwm supplies the
// pipeline high-water marks (tmax,R, tmax,S); it may be nil when
// punctuation is disabled. The out callback is invoked from the
// collector's goroutine (single-threaded).
func New[L, R any](queues []*fifo.Chan[core.Result[L, R]], hwm func() (r, s int64), out func(Item[L, R]), cfg Config) *Collector[L, R] {
	c := &Collector[L, R]{queues: queues, hwm: hwm, out: out, cfg: cfg}
	c.lastPunct.Store(-1)
	return c
}

func (c *Collector[L, R]) punctuating() bool { return c.cfg.Punctuate && c.hwm != nil }

// RunOnce performs one collection pass — read high-water marks, vacuum
// all result queues, then punctuate — and reports whether every queue is
// exhausted-and-closed. Exposed for deterministic tests and for
// checkpoints, which call it synchronously to drain every queued
// result through the normal output path before snapshotting the
// downstream sorter; passes are serialized against the background Run
// loop, so a synchronous pass never interleaves with one of its own.
func (c *Collector[L, R]) RunOnce() (done bool) {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	c.passes.Add(1)
	var tp int64
	if c.punctuating() {
		r, s := c.hwm()
		tp = min(r, s)
	}
	closed := 0
	for _, q := range c.queues {
		// Take what is queued now, not what keeps arriving: everything
		// the marks read above vouch for is already in the queue, and a
		// pass that chased busy producers until they paused would hold
		// its punctuation — and everything downstream waiting on it —
		// back that long. The rest is the next pass's, which Pending
		// starts at once. An empty queue still gets its one TryGet, and
		// a closed one is drained to the end: that is where it reports
		// closed, and nothing keeps arriving there.
		n := uint64(0)
		for limit := uint64(max(q.Len(), 1)); n < limit || q.Closed(); n++ {
			r, ok, qClosed := q.TryGet()
			if !ok {
				if qClosed {
					closed++
				}
				break
			}
			c.out(Item[L, R]{Result: r})
		}
		if n > 0 {
			c.collected.Add(n)
		}
	}
	if c.punctuating() && tp > c.lastPunct.Load() {
		c.lastPunct.Store(tp)
		c.puncts.Add(1)
		c.out(Item[L, R]{Punct: true, TS: tp})
	}
	return closed == len(c.queues)
}

// Pending reports whether a pass would find anything to do: a queued
// result, high-water marks beyond the last punctuation, or every queue
// closed (the pass that ends Run). It is the re-check a collector
// makes between raising its parked flag and going to sleep; the
// producers' side of that handshake is "publish, then look at the
// flag". The atomics are read before the queue lengths so that the
// length reads — plain loads inside the channel — cannot be hoisted
// above the flag store that precedes the call.
func (c *Collector[L, R]) Pending() bool {
	if c.punctuating() {
		if r, s := c.hwm(); min(r, s) > c.lastPunct.Load() {
			return true
		}
	}
	closed := 0
	for _, q := range c.queues {
		if q.Closed() {
			closed++
		}
		if q.Len() > 0 {
			return true
		}
	}
	return closed == len(c.queues)
}

// Run loops RunOnce until every queue is closed and drained. It is
// meant to run on its own goroutine. Between passes it calls wait with
// Pending; wait must return once Pending holds (pipeline.Live's
// WaitOutput sleeps on the output doorbell until then). A nil wait
// spins.
func (c *Collector[L, R]) Run(wait func(pending func() bool)) {
	pending := c.Pending // bound once: a method value allocates
	for !c.RunOnce() {
		if wait != nil {
			wait(pending)
		}
	}
}

// Collected returns the number of results assembled so far.
func (c *Collector[L, R]) Collected() uint64 { return c.collected.Load() }

// Punctuations returns the number of punctuations emitted so far.
func (c *Collector[L, R]) Punctuations() uint64 { return c.puncts.Load() }

// Passes returns the number of collection passes run so far, the
// synchronous ones included.
func (c *Collector[L, R]) Passes() uint64 { return c.passes.Load() }
