package shard

import (
	"sync"

	"handshakejoin/internal/collect"
	"handshakejoin/internal/order"
)

// Merge folds the punctuated output streams of N lanes into a single
// stream with a global punctuation guarantee. Results pass through
// immediately (the merge adds no buffering latency); punctuations are
// folded through an order.PunctFloor, so a merged punctuation ⌈tp⌉ is
// only emitted once every lane has promised tp — making the merged
// stream safe to feed into the same order.Sorter the single-pipeline
// engine uses for deterministic, timestamp-ordered output.
//
// FromShard may be called concurrently from the lanes' collector
// goroutines; a mutex serializes delivery, so the downstream out
// callback observes a single, consistent stream.
type Merge[L, R any] struct {
	mu       sync.Mutex
	out      func(collect.Item[L, R])
	floor    *order.PunctFloor
	results  uint64
	puncts   uint64
	perShard []uint64
}

// NewMerge returns a Merge over n lanes delivering to out.
func NewMerge[L, R any](n int, out func(collect.Item[L, R])) *Merge[L, R] {
	return &Merge[L, R]{
		out:      out,
		floor:    order.NewPunctFloor(n),
		perShard: make([]uint64, n),
	}
}

// FromShard consumes one item of lane i's output stream, in that
// lane's stream order.
func (m *Merge[L, R]) FromShard(i int, it collect.Item[L, R]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !it.Punct {
		m.results++
		m.perShard[i]++
		m.out(it)
		return
	}
	if floor, advanced := m.floor.Advance(i, it.TS); advanced {
		m.puncts++
		m.out(collect.Item[L, R]{Punct: true, TS: floor})
	}
}

// Results returns the number of results merged so far.
func (m *Merge[L, R]) Results() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.results
}

// Punctuations returns the number of merged punctuations emitted.
func (m *Merge[L, R]) Punctuations() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.puncts
}

// Floor returns the current merged punctuation floor: the timestamp
// below which the merged output stream is complete. Before every lane
// has promised a punctuation it is math.MinInt64.
func (m *Merge[L, R]) Floor() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.floor.Floor()
}

// FloorHolder returns the lane pinning the merged floor: the one whose
// latest punctuation is the smallest, i.e. the shard ordered output is
// currently waiting for (the lowest index among equals).
func (m *Merge[L, R]) FloorHolder() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.floor.Holder()
}

// ShardResults returns a copy of the per-shard result counts — the
// load-balance view of the partitioner.
func (m *Merge[L, R]) ShardResults() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]uint64(nil), m.perShard...)
}
