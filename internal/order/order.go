// Package order implements the downstream sorting operator of §6.2 and
// §7.5: it consumes the punctuated result stream and produces a stream
// in strict result-timestamp order.
//
// Results are buffered until a punctuation ⌈tp⌉ arrives; every buffered
// result with timestamp < tp can then be released in sorted order,
// because the punctuation guarantees no later result will carry a
// smaller timestamp. The maximum buffer occupancy is tracked — this is
// exactly the quantity Figure 21 reports (thousands of tuples with
// punctuations, versus the ~30 million an unpunctuated handshake join
// output would require for the paper's benchmark configuration).
package order

import (
	"sync/atomic"

	"handshakejoin/internal/collect"
	"handshakejoin/internal/core"
)

// Sorter reorders a punctuated result stream into timestamp order.
//
// Held results sit in a binary min-heap on the output order
// (timestamp, then R and S sequence numbers), so a punctuation costs
// one comparison when it releases nothing and O(log held) per result it
// does release — never a pass over everything held — and allocates
// nothing once the heap's backing has grown to the working set. That
// matters because punctuations arrive with every high-water-mark
// advance (thousands a second), not on a timer.
type Sorter[L, R any] struct {
	out func(core.Result[L, R])

	heap []core.Result[L, R]
	// maxBuffer is written only by the Push/Flush caller (plain load +
	// atomic store) so MaxBuffer is race-safe from snapshot readers.
	maxBuffer atomic.Int64
	released  uint64
	lastPunct int64
	lastTS    int64
	monotonic bool
}

// NewSorter returns a Sorter that emits ordered results to out.
func NewSorter[L, R any](out func(core.Result[L, R])) *Sorter[L, R] {
	return &Sorter[L, R]{out: out, lastPunct: -1, lastTS: -1, monotonic: true}
}

// before is the output order: timestamp, ties broken by input sequence
// numbers for determinism. It is total over distinct pairs.
func before[L, R any](a, b *core.Result[L, R]) bool {
	ta, tb := a.Pair.TS(), b.Pair.TS()
	if ta != tb {
		return ta < tb
	}
	if a.Pair.R.Seq != b.Pair.R.Seq {
		return a.Pair.R.Seq < b.Pair.R.Seq
	}
	return a.Pair.S.Seq < b.Pair.S.Seq
}

// Push consumes one item of the punctuated stream.
func (s *Sorter[L, R]) Push(it collect.Item[L, R]) {
	if it.Punct {
		s.release(it.TS)
		return
	}
	s.heap = append(s.heap, it.Result)
	s.up(len(s.heap) - 1)
	if n := int64(len(s.heap)); n > s.maxBuffer.Load() {
		s.maxBuffer.Store(n)
	}
}

// up restores the heap after an append at i. Results arrive nearly in
// order, so the usual case is the first comparison and no move.
func (s *Sorter[L, R]) up(i int) {
	h := s.heap
	if i == 0 || !before(&h[i], &h[(i-1)/2]) {
		return
	}
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !before(&x, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// pop removes and returns the heap's minimum.
func (s *Sorter[L, R]) pop() core.Result[L, R] {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	x := h[n]
	h[n] = core.Result[L, R]{} // drop payload references
	h = h[:n]
	s.heap = h
	if n == 0 {
		return top
	}
	// Sift the hole at the root down, then drop x into it.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && before(&h[c+1], &h[c]) {
			c++
		}
		if !before(&h[c], &x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
	return top
}

// release emits all buffered results with timestamp < tp in sorted
// order.
func (s *Sorter[L, R]) release(tp int64) {
	if tp <= s.lastPunct {
		return
	}
	s.lastPunct = tp
	for len(s.heap) > 0 && s.heap[0].Pair.TS() < tp {
		r := s.pop()
		if ts := r.Pair.TS(); ts < s.lastTS {
			s.monotonic = false
		} else {
			s.lastTS = ts
		}
		s.released++
		s.out(r)
	}
}

// Flush releases everything still buffered (end of stream), in sorted
// order.
func (s *Sorter[L, R]) Flush() {
	s.release(int64(1)<<62 - 1)
}

// MaxBuffer returns the high-water mark of buffered results — the
// series Figure 21 plots. Safe to call concurrently with Push.
func (s *Sorter[L, R]) MaxBuffer() int { return int(s.maxBuffer.Load()) }

// Released returns the number of results emitted.
func (s *Sorter[L, R]) Released() uint64 { return s.released }

// Monotonic reports whether every released result so far was in
// non-decreasing timestamp order — the correctness criterion for the
// punctuation mechanism.
func (s *Sorter[L, R]) Monotonic() bool { return s.monotonic }

// Buffered returns the number of results currently held.
func (s *Sorter[L, R]) Buffered() int { return len(s.heap) }

// State is the serializable sorter state: the held results (in no
// particular order — Restore re-establishes the sorter's own) and the
// release cursors. A checkpoint snapshots it after the collectors have
// drained every result queue, so the held set is exactly the results
// with timestamp >= the last punctuation.
type State[L, R any] struct {
	Buf       []core.Result[L, R]
	Released  uint64
	LastPunct int64
	LastTS    int64
	Monotonic bool
}

// Snapshot copies the sorter's state. The caller must serialize it
// against Push/Flush (the engines hold their sort mutex).
func (s *Sorter[L, R]) Snapshot() State[L, R] {
	return State[L, R]{
		Buf:       append([]core.Result[L, R](nil), s.heap...),
		Released:  s.released,
		LastPunct: s.lastPunct,
		LastTS:    s.lastTS,
		Monotonic: s.monotonic,
	}
}

// Restore replaces the sorter's state with a snapshot. Same
// serialization contract as Snapshot.
func (s *Sorter[L, R]) Restore(st State[L, R]) {
	clear(s.heap)
	s.heap = s.heap[:0]
	for _, r := range st.Buf {
		s.heap = append(s.heap, r)
		s.up(len(s.heap) - 1)
	}
	s.released = st.Released
	s.lastPunct = st.LastPunct
	s.lastTS = st.LastTS
	s.monotonic = st.Monotonic
	if n := int64(len(s.heap)); n > s.maxBuffer.Load() {
		s.maxBuffer.Store(n)
	}
}
