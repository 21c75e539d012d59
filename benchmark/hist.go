package main

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// hist is a fixed-bucket log-linear histogram of non-negative int64
// nanosecond values. Recording is one atomic add into a preallocated
// array: it is called from the engine's collector goroutine inside
// OnOutput, where an allocation (a growing slice, say) stalls result
// delivery and manufactures latency tails the engine does not have.
//
// Values below 2^histSubBits land in exact unit buckets; above that
// every octave is split into 2^histSubBits sub-buckets, a relative
// resolution of 1/128 (<0.8 %). The buckets cover the whole int64
// range, so no value is ever clamped.
type hist struct {
	counts [histBuckets]atomic.Uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 - histSubBits // v>>exp is in [histSub, 2*histSub)
	return (exp+1)<<histSubBits + int(uint64(v)>>uint(exp)) - histSub
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	exp := i>>histSubBits - 1
	m := i&(histSub-1) + histSub
	return math.Ldexp(float64(m), exp), math.Ldexp(float64(m+1), exp)
}

func (h *hist) record(v int64) { h.counts[histIndex(v)].Add(1) }

func (h *hist) count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// quantile returns the q-quantile (0 < q <= 1), interpolated linearly
// by rank inside the bucket that holds it, and the number of samples
// strictly beyond that bucket. It returns 0, 0 on an empty histogram.
func (h *hist) quantile(q float64) (v float64, beyond uint64) {
	total := h.count()
	if total == 0 {
		return 0, 0
	}
	rank := q * float64(total) // samples at or below the quantile
	var seen uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(seen+c) >= rank {
			lo, hi := histBounds(i)
			frac := (rank - float64(seen)) / float64(c)
			return lo + frac*(hi-lo), total - seen - c
		}
		seen += c
	}
	lo, _ := histBounds(histBuckets - 1)
	return lo, 0
}

// countAbove returns how many samples fall in buckets entirely above v.
func (h *hist) countAbove(v int64) uint64 {
	var n uint64
	for i := histIndex(v) + 1; i < histBuckets; i++ {
		n += h.counts[i].Load()
	}
	return n
}
