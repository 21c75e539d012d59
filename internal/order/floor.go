package order

import "math"

// PunctFloor merges the punctuation streams of several independent
// pipelines into one global guarantee. Each source pipeline promises
// that, within its own output stream, no result after a punctuation
// ⌈tp⌉ carries a timestamp below tp. Consuming every source in its own
// stream order, the strongest claim that holds across all of them is
// the minimum of the per-source high-water marks — once every source
// has punctuated at least once, any result consumed after that point
// from source i has timestamp >= hwm[i] >= floor.
//
// PunctFloor is the punctuation-merge hook used by the sharded engine
// layer; it is not safe for concurrent use (callers serialize).
type PunctFloor struct {
	hwm   []int64
	floor int64
}

// NewPunctFloor tracks n sources, all starting at the minimum
// timestamp (no guarantee until every source punctuates).
func NewPunctFloor(n int) *PunctFloor {
	f := &PunctFloor{hwm: make([]int64, n), floor: math.MinInt64}
	for i := range f.hwm {
		f.hwm[i] = math.MinInt64
	}
	return f
}

// Advance records punctuation tp from source i and returns the global
// floor plus whether it advanced (in which case the caller may emit a
// merged punctuation carrying the floor).
func (f *PunctFloor) Advance(i int, tp int64) (floor int64, advanced bool) {
	if tp > f.hwm[i] {
		f.hwm[i] = tp
		min := f.hwm[0]
		for _, h := range f.hwm[1:] {
			if h < min {
				min = h
			}
		}
		if min > f.floor {
			f.floor = min
			return f.floor, true
		}
	}
	return f.floor, false
}

// Floor returns the current global floor (math.MinInt64 until every
// source has punctuated).
func (f *PunctFloor) Floor() int64 { return f.floor }

// Holder returns the source pinning the floor: the one whose latest
// punctuation is the smallest (the lowest index among equals) — the
// source the merged stream is waiting for. It scans the sources: the
// question comes from a metrics scrape, not from the punctuation path.
func (f *PunctFloor) Holder() int {
	holder := 0
	for k, h := range f.hwm {
		if h < f.hwm[holder] {
			holder = k
		}
	}
	return holder
}
