package main

import "sort"

// The engine's result set is exact only relative to its own flush
// schedule: heartbeats move flush points on wall-clock time, so two
// identical sharded runs differ in a handful of boundary pairs. The
// correctness check is therefore a sandwich against a sequential
// reference join (validated against internal/kang in check_test.go):
// every pair the reference finds with both windows shrunk by the slack
// must be emitted, every emitted pair must satisfy the predicate and
// lie inside windows grown by the slack, and no pair repeats.
//
// Tuple i of either stream is pushed in the same caller batch (or
// back-to-back) with tuple i of the other, and carries TS = i*P, so
// for Count and Duration windows alike "s_j is in the window when r_i
// arrives" is a bound on the sequence distance |i-j|: the reference
// join is a band join on sequence numbers.

type pairID struct{ r, s uint64 }

type checker struct {
	pred   func(r, s tup) bool
	keyed  bool
	window int
	slack  int
	// at returns the payload pushed as tuple seq of the given side
	// (0 = R, 1 = S).
	at func(side int, seq uint64) tup
}

type verdict struct {
	expected uint64 // pairs the shrunk-window reference requires
	missing  uint64 // required pairs not emitted
	extra    uint64 // emitted pairs failing the predicate or outside the grown windows
	dup      uint64 // repeated (R.Seq, S.Seq)
}

func (v verdict) failed() uint64 { return v.missing + v.extra + v.dup }

func (v *verdict) add(o verdict) {
	v.expected += o.expected
	v.missing += o.missing
	v.extra += o.extra
	v.dup += o.dup
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// required enumerates the pairs the engine must have emitted: the later
// tuple's sequence number lies in [lo, hi), the predicate holds and the
// sequence distance is inside the shrunk window.
func (c *checker) required(lo, hi uint64, visit func(pairID)) {
	if c.window <= c.slack {
		return
	}
	reach := uint64(c.window - c.slack) // distance < reach is required
	first := uint64(0)
	if lo > reach {
		first = lo - reach
	}
	later := func(i, j uint64) bool {
		m := max(i, j)
		return m >= lo && m < hi
	}
	if !c.keyed {
		for i := first; i < hi; i++ {
			r := c.at(0, i)
			jlo := uint64(0)
			if i+1 > reach {
				jlo = i + 1 - reach
			}
			for j := jlo; j < min(i+reach, hi); j++ {
				if later(i, j) && c.pred(r, c.at(1, j)) {
					visit(pairID{i, j})
				}
			}
		}
		return
	}
	byKey := make(map[uint64][]uint64)
	for j := first; j < hi; j++ {
		k := c.at(1, j).Key
		byKey[k] = append(byKey[k], j)
	}
	for i := first; i < hi; i++ {
		r := c.at(0, i)
		js := byKey[r.Key]
		jlo := uint64(0)
		if i+1 > reach {
			jlo = i + 1 - reach
		}
		for _, j := range js[sort.Search(len(js), func(x int) bool { return js[x] >= jlo }):] {
			if j >= i+reach {
				break
			}
			if later(i, j) && c.pred(r, c.at(1, j)) {
				visit(pairID{i, j})
			}
		}
	}
}

// check runs the sandwich over the emitted pairs; required pairs are
// those whose later tuple lies in [lo, hi).
func (c *checker) check(emitted []pairID, lo, hi uint64) verdict {
	var v verdict
	seen := make(map[pairID]struct{}, len(emitted))
	grown := uint64(c.window + c.slack)
	for _, p := range emitted {
		if _, ok := seen[p]; ok {
			v.dup++
			continue
		}
		seen[p] = struct{}{}
		if absDiff(p.r, p.s) > grown || !c.pred(c.at(0, p.r), c.at(1, p.s)) {
			v.extra++
		}
	}
	c.required(lo, hi, func(p pairID) {
		v.expected++
		if _, ok := seen[p]; !ok {
			v.missing++
		}
	})
	return v
}
