// Package store implements the node-local tuple stores of (low-latency)
// handshake join: per-core sliding-window fragments with expedition
// flags, plus optional secondary indexes (hash for equi-joins, B-tree
// for range/band predicates) as envisioned in §4.1 and evaluated in
// §7.6 of the paper.
//
// A Window keeps tuples in arrival order. Each entry carries the
// expedition flag of §4.2.3: a stored R tuple stays "expedited" until its
// expedition-end message reaches the home node; scans on behalf of S
// arrivals must skip expedited entries to avoid stored/stored double
// matches. Expiry may remove entries anywhere (normally near the front,
// since expiries arrive in arrival order); removal uses tombstones with
// amortized compaction so that secondary indexes stay valid.
//
// # Scanning: blocks of probes, not one probe at a time
//
// A linear scan on behalf of arrivals is a block scan (blockscan.go):
// ScanBlock and ScanBlockSettled take the payloads of a whole run of
// arriving tuples and the join predicate itself, walk the entries once
// per tile of up to 64 probes — entry in the outer loop, probes in the
// inner — and return the matches as (probe, slot) hits ordered exactly
// as one scan per probe would have found them. An entry is loaded once
// per tile instead of once per probe, and the predicate is the only
// indirect call per comparison; the entry layout is what it was. There
// are two functions because the predicate's argument order differs by
// join side, and only S-side arrivals must skip expedited entries (the
// per-entry callback scan that did that job, ScanSettled, is gone).
//
// # Storage layout: the ring-slot directory
//
// Entries live in a dense append-only slice (`entries`) compacted in
// place; the seq → slot directory is not a hash map but a circular array
// (`ring`) indexed by (seq-base)/stride. The layout relies on the
// sequencing contract of this repository: seqs are assigned densely per
// stream side, a lane observes an increasing subsequence of them, and
// within a pipeline every node k stores only seqs with seq%Nodes == k
// (homes are a pure function of seq). A window configured with
// WithStride(Nodes) therefore spends one ring slot per seq it could ever
// own, and lookup/remove/settle are single array reads — zero map
// traffic on the per-tuple hot path.
//
// Ring positions for seqs the window never stored (routed to another
// lane, or holes punched by slice extraction) simply stay empty; the
// base advances lazily past leading empties, and migration may insert
// seqs below the current base (a moved key-group is older than the
// destination's content), which re-anchors the ring backwards. Both
// directions preserve the one invariant callers depend on: a seq is a
// stable handle. Open slice cursors (PeekMatching/ExtractSeqs hold seqs
// across settles and compactions) survive base advance and in-place
// compaction because both only re-point slots, never re-key them.
//
// The ring's footprint is bounded by maxRingSlots. A window that idles
// with live entries while the global seq space races ahead (count
// windows only expire on arrivals) would otherwise need an arbitrarily
// long ring when the burst finally lands; instead the stale span spills
// into a small overflow map and the ring re-anchors at the burst. The
// overflow is strictly a cold path: it holds entries only until their
// (already overdue) expiries drain them.
package store

import (
	"sync/atomic"

	"handshakejoin/internal/stream"
)

// maxRingSlots caps the seq span (in stride units) the ring directory
// covers: 1<<20 slots is 4 MiB of int32 directory per window at the
// high-water mark. Spans beyond the cap spill to the overflow map.
const maxRingSlots = 1 << 20

type entry[T any] struct {
	tuple     stream.Tuple[T]
	expedited bool
	dead      bool
}

// hLink is an intrusive per-key hash-chain node: the seqs of the
// previous and next live entries sharing this entry's join key (NoSeq at
// the chain ends). Kept in a slice parallel to entries — allocated only
// when a hash index is attached — so index maintenance is two ring
// lookups and no heap traffic.
type hLink struct {
	prev, next uint64
}

// Window is a node-local window fragment for one stream on one core.
// It is not safe for concurrent use; each pipeline node owns its windows.
type Window[T any] struct {
	entries []entry[T]
	links   []hLink // parallel to entries; non-nil iff hash != nil
	head    int     // first live slot candidate
	live    int
	settled int // live entries with expedition flag cleared

	// Ring-slot directory: ring[(start+(seq-base)/stride) & mask] holds
	// slot+1 for live seqs, 0 for absent ones. All positions outside the
	// span [start, start+span) are zero — growth into the free arc and
	// Go's zeroed allocation keep gap positions empty without explicit
	// clearing, so a sparse lane (stride 1 over a striped seq space)
	// never pays for the seqs it does not own.
	ring   []int32
	start  int    // ring position of base
	span   int    // ring slots covered: (maxSeq-base)/stride + 1; 0 ⇒ empty
	base   uint64 // seq mapped to ring[start]; valid iff span > 0
	stride uint64 // seq distance between adjacent ring slots

	// over holds the rare live seqs the ring cannot reach: entries
	// stranded behind a > maxRingSlots seq jump, or migration injections
	// anchored far below base. Values are slot+1, like ring. Nil until
	// first needed; never touched on the per-tuple fast path.
	over map[uint64]int32

	hash  *HashIndex
	btree *BTreeIndex
	key   stream.KeyFunc[T]

	rare  RareStats
	trace func(kind string, a, b int64)
}

// RareStats counts the window's rare-path events. Without them a
// pathological spill storm (huge seq jumps, far-below-base injections)
// degrades silently; with them it shows up in any live snapshot. The
// fields are atomics written only by the window's owning worker (reads
// may come from any goroutine), so updates are a plain load plus an
// atomic store — nothing the race detector or the hot path notices.
type RareStats struct {
	Spills      atomic.Uint64 // whole-ring spills into the overflow map
	Reanchors   atomic.Uint64 // below-base directory re-anchors
	Compactions atomic.Uint64 // entry-slab compactions
	Parks       atomic.Uint64 // entries parked in the overflow map
	Overflow    atomic.Int64  // current overflow-map entries (gauge)
}

func rareInc(c *atomic.Uint64, n uint64) { c.Store(c.Load() + n) }

// Rare returns the window's rare-path counters for race-safe reading.
func (w *Window[T]) Rare() *RareStats { return &w.rare }

// syncOverflow republishes the overflow-map size gauge; call after any
// mutation of w.over (all cold paths).
func (w *Window[T]) syncOverflow() {
	w.rare.Overflow.Store(int64(len(w.over)))
}

func (w *Window[T]) traceEvent(kind string, a, b int64) {
	if w.trace != nil {
		w.trace(kind, a, b)
	}
}

// Option configures a Window.
type Option[T any] func(*Window[T])

// WithHashIndex attaches a hash index over key(payload); Probe becomes
// available.
func WithHashIndex[T any](key stream.KeyFunc[T]) Option[T] {
	return func(w *Window[T]) {
		w.key = key
		w.hash = NewHashIndex()
	}
}

// WithBTreeIndex attaches an ordered index over key(payload); RangeProbe
// becomes available. It may be combined with WithHashIndex.
func WithBTreeIndex[T any](key stream.KeyFunc[T]) Option[T] {
	return func(w *Window[T]) {
		w.key = key
		w.btree = NewBTreeIndex(32)
	}
}

// WithKeyFunc declares the join-key extractor without attaching any
// index. The window starts in scan mode with zero index maintenance;
// EnableHash/EnableBTree may attach (and backfill) indexes later when
// an adaptive probe strategy demands them.
func WithKeyFunc[T any](key stream.KeyFunc[T]) Option[T] {
	return func(w *Window[T]) {
		w.key = key
	}
}

// WithStride declares that every seq stored in this window is congruent
// modulo n (the LLHJ home-node residue: node k of an n-node pipeline
// only ever stores seqs with seq%n == k). The ring directory then spends
// one slot per owned seq instead of one per global seq. Inserting a seq
// that violates the declared residue panics: it means tuples are being
// routed to the wrong home.
func WithStride[T any](n int) Option[T] {
	return func(w *Window[T]) {
		if n < 1 {
			n = 1
		}
		w.stride = uint64(n)
	}
}

// WithTrace registers a callback for the window's rare-path events:
// "ring_spill" (entries spilled, span at spill), "ring_reanchor"
// (slots swept back, new span) and "window_compact" (slots reclaimed,
// live entries). The callback runs on the owning worker, cold paths
// only.
func WithTrace[T any](fn func(kind string, a, b int64)) Option[T] {
	return func(w *Window[T]) {
		w.trace = fn
	}
}

// NewWindow returns an empty window.
func NewWindow[T any](opts ...Option[T]) *Window[T] {
	w := &Window[T]{stride: 1}
	for _, o := range opts {
		o(w)
	}
	return w
}

// Len returns the number of live entries.
func (w *Window[T]) Len() int { return w.live }

// SettledLen returns the number of live entries whose expedition flag has
// been cleared.
func (w *Window[T]) SettledLen() int { return w.settled }

// pos maps a span offset to a ring position.
func (w *Window[T]) pos(i int) int { return (w.start + i) & (len(w.ring) - 1) }

// lookup resolves seq to its entry slot, or -1 when absent.
func (w *Window[T]) lookup(seq uint64) int {
	if w.span > 0 && seq >= w.base {
		d := seq - w.base
		if w.stride > 1 {
			if d%w.stride != 0 {
				return -1
			}
			d /= w.stride
		}
		if d < uint64(w.span) {
			if s := w.ring[w.pos(int(d))]; s != 0 {
				return int(s) - 1
			}
			// In-span but empty: a below-base re-anchor may have swept
			// the span back over seqs an earlier spillAll parked in the
			// overflow — fall through and consult it, like clearSeq.
		}
	}
	if len(w.over) > 0 {
		if s, ok := w.over[seq]; ok {
			return int(s) - 1
		}
	}
	return -1
}

// setSlot records seq → slot in whichever directory tier holds seq. A
// seq lives in exactly one tier: writing an in-span ring position also
// evicts any overflow copy, so a spilled entry whose seq the span later
// re-covered migrates back into the ring on the next compaction.
func (w *Window[T]) setSlot(seq uint64, slot int32) {
	if w.span > 0 && seq >= w.base {
		d := seq - w.base
		if w.stride > 1 {
			d /= w.stride
		}
		if d < uint64(w.span) {
			w.ring[w.pos(int(d))] = slot + 1
			if len(w.over) > 0 {
				delete(w.over, seq)
				w.syncOverflow()
			}
			return
		}
	}
	w.over[seq] = slot + 1
}

// clearSeq removes seq from the directory.
func (w *Window[T]) clearSeq(seq uint64) {
	if w.span > 0 && seq >= w.base {
		d := seq - w.base
		if w.stride > 1 {
			d /= w.stride
		}
		if d < uint64(w.span) && w.ring[w.pos(int(d))] != 0 {
			w.ring[w.pos(int(d))] = 0
			return
		}
	}
	if w.over != nil {
		delete(w.over, seq)
		w.syncOverflow()
	}
}

// checkStride panics when d (a seq distance from base) violates the
// declared residue, returning d in stride units otherwise.
func (w *Window[T]) checkStride(d uint64) uint64 {
	if w.stride > 1 {
		if d%w.stride != 0 {
			panic("store: seq violates window stride")
		}
		d /= w.stride
	}
	return d
}

// checkOverDup panics when seq is already parked in the overflow tier:
// the ring-write paths of place only inspect the ring position, which is
// empty for a spilled seq the span has since re-covered.
func (w *Window[T]) checkOverDup(seq uint64) {
	if len(w.over) > 0 {
		if _, dup := w.over[seq]; dup {
			panic("store: duplicate seq inserted")
		}
	}
}

// place extends the directory to cover seq and stores slot+1 there,
// panicking on a duplicate. The common case (next owned seq, one past
// the current maximum) is a bounds check and one array write.
func (w *Window[T]) place(seq uint64, slot int32) {
	if w.span == 0 {
		if len(w.ring) == 0 {
			w.ring = make([]int32, 16)
		}
		w.checkOverDup(seq)
		w.start, w.span, w.base = 0, 1, seq
		w.ring[w.pos(0)] = slot + 1
		return
	}
	if seq >= w.base {
		d := w.checkStride(seq - w.base)
		if d < uint64(w.span) {
			p := w.pos(int(d))
			if w.ring[p] != 0 {
				panic("store: duplicate seq inserted")
			}
			w.checkOverDup(seq)
			w.ring[p] = slot + 1
			return
		}
		if d >= maxRingSlots {
			// The burst after a long idle: the ring cannot stretch from
			// the stale span to here. Strand the old span in the
			// overflow map and re-anchor at the burst.
			w.spillAll()
			w.start, w.span, w.base = 0, 1, seq
			w.ring[w.pos(0)] = slot + 1
			return
		}
		if d >= uint64(len(w.ring)) {
			w.growRing(int(d) + 1)
		}
		w.checkOverDup(seq)
		w.span = int(d) + 1
		w.ring[w.pos(int(d))] = slot + 1
		return
	}
	// Below base: slice injection of an older key-group.
	d := w.checkStride(w.base - seq)
	if int(d)+w.span > maxRingSlots {
		// Too far below to re-anchor; park the outlier in the overflow.
		if w.over == nil {
			w.over = make(map[uint64]int32)
		}
		if _, dup := w.over[seq]; dup {
			panic("store: duplicate seq inserted")
		}
		w.over[seq] = slot + 1
		rareInc(&w.rare.Parks, 1)
		w.syncOverflow()
		return
	}
	if int(d)+w.span > len(w.ring) {
		w.growRing(int(d) + w.span)
	}
	w.start = (w.start - int(d)) & (len(w.ring) - 1)
	w.span += int(d)
	w.base = seq
	if w.ring[w.start] != 0 {
		panic("store: duplicate seq inserted")
	}
	w.checkOverDup(seq)
	w.ring[w.start] = slot + 1
	rareInc(&w.rare.Reanchors, 1)
	w.traceEvent("ring_reanchor", int64(d), int64(w.span))
	return
}

// spillAll moves every occupied ring slot into the overflow map and
// empties the ring. O(span) ≤ maxRingSlots, and only ever paid on a
// seq jump that dwarfs the walk.
func (w *Window[T]) spillAll() {
	if w.over == nil {
		w.over = make(map[uint64]int32)
	}
	moved := 0
	for i := 0; i < w.span; i++ {
		p := w.pos(i)
		if w.ring[p] != 0 {
			w.over[w.base+uint64(i)*w.stride] = w.ring[p]
			w.ring[p] = 0
			moved++
		}
	}
	spanAt := w.span
	w.span = 0
	rareInc(&w.rare.Spills, 1)
	rareInc(&w.rare.Parks, uint64(moved))
	w.syncOverflow()
	w.traceEvent("ring_spill", int64(moved), int64(spanAt))
}

// growRing linearizes the span into a zeroed power-of-two array of at
// least need slots.
func (w *Window[T]) growRing(need int) {
	newCap := len(w.ring)
	if newCap == 0 {
		newCap = 16
	}
	for newCap < need {
		newCap *= 2
	}
	fresh := make([]int32, newCap)
	for i := 0; i < w.span; i++ {
		fresh[i] = w.ring[w.pos(i)]
	}
	w.ring = fresh
	w.start = 0
}

// chainSlot resolves a seq referenced by a hash-chain link. Chains only
// ever name live entries, so a miss means the directory and the index
// have desynced; panic with a diagnosis rather than letting the caller
// index entries[-1].
func (w *Window[T]) chainSlot(seq uint64) int {
	slot := w.lookup(seq)
	if slot < 0 {
		panic("store: hash chain references a seq missing from the directory")
	}
	return slot
}

// advanceBase slides base past leading empty ring positions so the span
// tracks the live seq range. All skipped positions are already zero, so
// a later wrap-around reuses them without cleanup.
func (w *Window[T]) advanceBase() {
	if w.live == 0 {
		// Fully drained: re-anchor at the next insert. This makes a
		// long-idle window cheap to revive after a seq burst — no walk
		// across the dead range.
		w.start, w.span = 0, 0
		return
	}
	mask := len(w.ring) - 1
	for w.span > 0 && w.ring[w.start] == 0 {
		w.start = (w.start + 1) & mask
		w.span--
		w.base += w.stride
	}
}

// Insert stores t with the expedition flag set.
func (w *Window[T]) Insert(t stream.Tuple[T]) {
	w.insert(t, true)
}

// InsertSettled stores t with the expedition flag already cleared (used
// for the S side, which carries no flags, and by baseline operators).
func (w *Window[T]) InsertSettled(t stream.Tuple[T]) {
	w.insert(t, false)
	w.settled++
}

func (w *Window[T]) insert(t stream.Tuple[T], expedited bool) {
	if len(w.entries) == cap(w.entries) && w.head*4 >= len(w.entries) {
		// The backing is full but at least a quarter is leading
		// tombstones (the sliding-window steady state): slide the live
		// region to the front and recycle the array instead of letting
		// append re-allocate rightward forever. Amortized O(1) — a
		// compaction reclaims ≥ len/4 slots.
		w.compactInPlace()
	}
	slot := len(w.entries)
	w.entries = append(w.entries, entry[T]{tuple: t, expedited: expedited})
	w.place(t.Seq, int32(slot))
	w.live++
	if w.hash != nil || w.btree != nil {
		k := w.key(t.Payload)
		if w.hash != nil {
			w.links = append(w.links, hLink{prev: NoSeq, next: NoSeq})
			prevTail := w.hash.InsertTail(k, t.Seq)
			w.links[slot].prev = prevTail
			if prevTail != NoSeq {
				w.links[w.chainSlot(prevTail)].next = t.Seq
			}
		}
		if w.btree != nil {
			w.btree.Insert(k, t.Seq)
		}
	}
	w.maybeCompact()
}

// ClearExpedition clears the flag of the entry with the given sequence
// number; it reports whether the entry was present (and flagged).
func (w *Window[T]) ClearExpedition(seq uint64) bool {
	slot := w.lookup(seq)
	if slot < 0 {
		return false
	}
	e := &w.entries[slot]
	if !e.expedited {
		return true // present but already settled: still "found"
	}
	e.expedited = false
	w.settled++
	return true
}

// Remove deletes the entry with the given sequence number, returning the
// tuple and whether it was present.
func (w *Window[T]) Remove(seq uint64) (stream.Tuple[T], bool) {
	slot := w.lookup(seq)
	if slot < 0 {
		var zero stream.Tuple[T]
		return zero, false
	}
	e := &w.entries[slot]
	t := e.tuple
	e.dead = true
	w.clearSeq(seq)
	w.live--
	if !e.expedited {
		w.settled--
	}
	if w.hash != nil || w.btree != nil {
		k := w.key(t.Payload)
		if w.hash != nil {
			lnk := w.links[slot]
			if lnk.prev != NoSeq {
				w.links[w.chainSlot(lnk.prev)].next = lnk.next
			}
			if lnk.next != NoSeq {
				w.links[w.chainSlot(lnk.next)].prev = lnk.prev
			}
			w.hash.Remove(k, lnk.prev, lnk.next)
		}
		if w.btree != nil {
			w.btree.Remove(k, seq)
		}
	}
	w.advanceBase()
	w.maybeCompact()
	return t, true
}

// OldestSeq returns the sequence number of the oldest live entry, in
// arrival order; ok is false when the window is empty. Amortized O(1):
// the head pointer skips leading tombstones.
func (w *Window[T]) OldestSeq() (seq uint64, ok bool) {
	for w.head < len(w.entries) && w.entries[w.head].dead {
		w.head++
	}
	if w.head >= len(w.entries) {
		return 0, false
	}
	return w.entries[w.head].tuple.Seq, true
}

// Get returns the live tuple with the given sequence number.
func (w *Window[T]) Get(seq uint64) (stream.Tuple[T], bool) {
	slot := w.lookup(seq)
	if slot < 0 {
		var zero stream.Tuple[T]
		return zero, false
	}
	return w.entries[slot].tuple, true
}

// ScanAll calls fn for every live entry in arrival order. Comparisons
// performed by fn are the caller's business; ScanAll itself reports the
// number of entries visited so cost models can account for scan work.
// It is the cold-path scan — state-migration cursors, baselines, the
// layer ladder; arrival probes use ScanBlock / ScanBlockSettled, which
// do not pay a callback and a tuple copy per entry.
func (w *Window[T]) ScanAll(fn func(stream.Tuple[T])) int {
	n := 0
	for i := w.head; i < len(w.entries); i++ {
		e := &w.entries[i]
		if e.dead {
			continue
		}
		fn(e.tuple)
		n++
	}
	return n
}

// Probe calls fn for every live entry whose key equals k, optionally
// restricted to settled entries, in arrival order. It returns the number
// of index entries inspected. Requires an attached hash index
// (WithHashIndex at construction, or EnableHash later).
func (w *Window[T]) Probe(k uint64, settledOnly bool, fn func(stream.Tuple[T])) int {
	if w.hash == nil {
		panic("store: Probe without WithHashIndex")
	}
	n := 0
	for seq := w.hash.Head(k); seq != NoSeq; {
		n++
		slot := w.chainSlot(seq)
		e := &w.entries[slot]
		seq = w.links[slot].next
		if settledOnly && e.expedited {
			continue
		}
		fn(e.tuple)
	}
	return n
}

// RangeProbe calls fn for every live entry with lo ≤ key ≤ hi, optionally
// restricted to settled entries. It returns the number of index entries
// inspected. Requires an attached ordered index (WithBTreeIndex at
// construction, or EnableBTree later).
func (w *Window[T]) RangeProbe(lo, hi uint64, settledOnly bool, fn func(stream.Tuple[T])) int {
	if w.btree == nil {
		panic("store: RangeProbe without WithBTreeIndex")
	}
	n := 0
	w.btree.Range(lo, hi, func(_ uint64, seq uint64) {
		n++
		slot := w.lookup(seq)
		if slot < 0 {
			return
		}
		e := &w.entries[slot]
		if e.dead || (settledOnly && e.expedited) {
			return
		}
		fn(e.tuple)
	})
	return n
}

// HasHash reports whether a hash index is currently attached.
func (w *Window[T]) HasHash() bool { return w.hash != nil }

// HasBTree reports whether a B-tree index is currently attached.
func (w *Window[T]) HasBTree() bool { return w.btree != nil }

// EnableHash attaches a hash index, backfilling it from the live
// entries in arrival order so chains read exactly as if the index had
// been present since the first insert. No-op when already attached;
// requires a key function (WithKeyFunc or an index option). O(live).
func (w *Window[T]) EnableHash() {
	if w.hash != nil {
		return
	}
	if w.key == nil {
		panic("store: EnableHash without a key function")
	}
	w.hash = NewHashIndex()
	w.links = make([]hLink, len(w.entries))
	for i := range w.links {
		w.links[i] = hLink{prev: NoSeq, next: NoSeq}
	}
	for i := w.head; i < len(w.entries); i++ {
		e := &w.entries[i]
		if e.dead {
			continue
		}
		k := w.key(e.tuple.Payload)
		prevTail := w.hash.InsertTail(k, e.tuple.Seq)
		w.links[i].prev = prevTail
		if prevTail != NoSeq {
			w.links[w.chainSlot(prevTail)].next = e.tuple.Seq
		}
	}
}

// DisableHash drops the hash index and its chain links; Probe becomes
// unavailable until EnableHash. No-op when not attached.
func (w *Window[T]) DisableHash() {
	w.hash = nil
	w.links = nil
}

// EnableBTree attaches an ordered index, backfilling it from the live
// entries. No-op when already attached; requires a key function.
// O(live · log live).
func (w *Window[T]) EnableBTree() {
	if w.btree != nil {
		return
	}
	if w.key == nil {
		panic("store: EnableBTree without a key function")
	}
	w.btree = NewBTreeIndex(32)
	for i := w.head; i < len(w.entries); i++ {
		e := &w.entries[i]
		if e.dead {
			continue
		}
		w.btree.Insert(w.key(e.tuple.Payload), e.tuple.Seq)
	}
}

// DisableBTree drops the ordered index; RangeProbe becomes unavailable
// until EnableBTree. No-op when not attached.
func (w *Window[T]) DisableBTree() {
	w.btree = nil
}

// maybeCompact rebuilds the entry slice when more than half the slots
// are tombstones, keeping memory and scan cost proportional to live
// entries. Compaction is in place: live entries slide to the front of
// the same backing array, so a steady-state window recycles one
// allocation forever instead of growing rightward and re-allocating on
// every compaction cycle (memory stays bounded by the window's
// high-water mark).
func (w *Window[T]) maybeCompact() {
	// Advance head over leading tombstones first (the common case:
	// expiries remove oldest entries).
	for w.head < len(w.entries) && w.entries[w.head].dead {
		w.head++
	}
	if len(w.entries)-w.head <= 2*w.live || len(w.entries) < 64 {
		return
	}
	w.compactInPlace()
}

// compactInPlace slides the live entries to the front of the existing
// backing array and re-points their directory slots. Seqs — the handles
// held by open slice cursors and hash chains — are untouched; only the
// seq → slot mapping changes.
func (w *Window[T]) compactInPlace() {
	before := len(w.entries)
	n := 0
	for i := w.head; i < len(w.entries); i++ {
		if !w.entries[i].dead {
			if n != i {
				w.entries[n] = w.entries[i]
				if w.links != nil {
					w.links[n] = w.links[i]
				}
			}
			n++
		}
	}
	// Zero the vacated tail so dead payloads do not pin memory through
	// the retained backing array.
	tail := w.entries[n:cap(w.entries)]
	for i := range tail {
		tail[i] = entry[T]{}
	}
	w.entries = w.entries[:n]
	if w.links != nil {
		w.links = w.links[:n]
	}
	w.head = 0
	for i := range w.entries {
		w.setSlot(w.entries[i].tuple.Seq, int32(i))
	}
	// The empty-slab call insert makes on a fresh window is not a
	// compaction worth reporting.
	if before > 0 {
		rareInc(&w.rare.Compactions, 1)
		w.traceEvent("window_compact", int64(before-n), int64(n))
	}
}
