package store

import (
	"slices"

	"handshakejoin/internal/stream"
)

// scanTile is how many probes one pass over a window serves. Beyond a
// few dozen probes the pass is bound by the predicate calls, not by the
// entry loads it amortizes, while the probe tile (scanTile payloads) has
// to stay next to the compute for the inner loop to pay.
const scanTile = 64

// Hit is one match of a block scan: Probe indexes the block's probe
// slice, Slot names the matching entry (resolve it with Window.At).
type Hit struct {
	Probe, Slot int32
}

// BlockScratch is the hit storage block scans reuse from one call to the
// next. Its owner (one pipeline node) passes the same value to every
// scan; the slices grow to the largest hit count one tile ever produced
// — a function of the block and the predicate's selectivity, never of
// the window size — and stay there.
type BlockScratch struct {
	raw  []Hit // the current tile's hits in scan order (slot-major)
	hits []Hit // the block's hits, probe-major
}

// ScanBlock evaluates pred(probes[p], entry) for every live entry of w
// and every probe of the block, and returns the matches probe-major and,
// within a probe, in arrival (slot) order — the sequence len(probes)
// successive ScanAll passes would produce, from one pass per scanTile
// probes: the entry is the outer loop and the probes the inner one, so
// an entry is loaded once per tile instead of once per probe. inspected
// is the number of live entries one probe visits, what ScanAll returns.
//
// The returned hits alias sc and are valid until sc's next scan; their
// slots are valid until w's next mutation.
func ScanBlock[P, T any](w *Window[T], probes []P, pred func(P, T) bool, sc *BlockScratch) (hits []Hit, inspected int) {
	sc.hits = sc.hits[:0]
	for base := 0; base < len(probes); base += scanTile {
		tile := probes[base:min(base+scanTile, len(probes))]
		dst := sc.tileDst(len(tile))
		inspected = 0
		for i := w.head; i < len(w.entries); i++ {
			e := &w.entries[i]
			if e.dead {
				continue
			}
			inspected++
			for j := range tile {
				if pred(tile[j], e.tuple.Payload) {
					dst = append(dst, Hit{Probe: int32(base + j), Slot: int32(i)})
				}
			}
		}
		sc.gather(dst, base, len(tile))
	}
	return sc.hits, inspected
}

// ScanBlockSettled is ScanBlock for the other side of the join: the
// predicate takes the entry first, pred(entry, probes[p]), and entries
// whose expedition flag is still set are inspected but not compared
// (§4.2.3: a scan on behalf of an S arrival must skip them). The two
// orientations are written out rather than derived from one another
// through an argument-swapping closure, which would put back the
// indirect call per comparison that the block scan exists to remove.
func ScanBlockSettled[T, P any](w *Window[T], probes []P, pred func(T, P) bool, sc *BlockScratch) (hits []Hit, inspected int) {
	sc.hits = sc.hits[:0]
	for base := 0; base < len(probes); base += scanTile {
		tile := probes[base:min(base+scanTile, len(probes))]
		dst := sc.tileDst(len(tile))
		inspected = 0
		for i := w.head; i < len(w.entries); i++ {
			e := &w.entries[i]
			if e.dead {
				continue
			}
			inspected++
			if e.expedited {
				continue
			}
			for j := range tile {
				if pred(e.tuple.Payload, tile[j]) {
					dst = append(dst, Hit{Probe: int32(base + j), Slot: int32(i)})
				}
			}
		}
		sc.gather(dst, base, len(tile))
	}
	return sc.hits, inspected
}

// tileDst returns the slice a tile of n probes appends its hits to. A
// one-probe tile's scan order already is the output order, so it writes
// straight behind the block's earlier tiles.
func (sc *BlockScratch) tileDst(n int) []Hit {
	if n == 1 {
		return sc.hits
	}
	return sc.raw[:0]
}

// gather moves one tile's hits (probes base..base+n) behind the block's
// earlier tiles in probe-major order. The scan produced them slot-major;
// a stable counting sort on the probe index keeps each probe's hits in
// slot order.
func (sc *BlockScratch) gather(dst []Hit, base, n int) {
	if n == 1 {
		sc.hits = dst
		return
	}
	sc.raw = dst
	var next [scanTile + 1]int32 // next[p+1] counts, then next[p] is probe p's write offset
	for _, h := range dst {
		next[int(h.Probe)-base+1]++
	}
	for p := 1; p < n; p++ {
		next[p] += next[p-1]
	}
	at := len(sc.hits)
	sc.hits = slices.Grow(sc.hits, len(dst))[:at+len(dst)]
	out := sc.hits[at:]
	for _, h := range dst {
		p := int(h.Probe) - base
		out[next[p]] = h
		next[p]++
	}
}

// At returns the tuple stored in slot, as named by a Hit of a block
// scan over this window since its last mutation.
func (w *Window[T]) At(slot int32) stream.Tuple[T] { return w.entries[slot].tuple }
