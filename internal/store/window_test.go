package store

import (
	"testing"
	"testing/quick"

	"handshakejoin/internal/stream"
)

func tup(seq uint64, v int) stream.Tuple[int] {
	return stream.Tuple[int]{Seq: seq, TS: int64(seq) * 1000, Payload: v}
}

func collect(w *Window[int], settledOnly bool) []uint64 {
	var seqs []uint64
	if settledOnly {
		// One probe every entry matches: the settled block scan's hit
		// list is the settled entries in arrival order.
		var sc BlockScratch
		hits, _ := ScanBlockSettled(w, []struct{}{{}}, func(int, struct{}) bool { return true }, &sc)
		for _, h := range hits {
			seqs = append(seqs, w.At(h.Slot).Seq)
		}
		return seqs
	}
	w.ScanAll(func(t stream.Tuple[int]) { seqs = append(seqs, t.Seq) })
	return seqs
}

func TestWindowInsertScanOrder(t *testing.T) {
	w := NewWindow[int]()
	for i := 0; i < 10; i++ {
		w.Insert(tup(uint64(i), i))
	}
	got := collect(w, false)
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("scan order broken at %d: %v", i, got)
		}
	}
	if w.Len() != 10 || w.SettledLen() != 0 {
		t.Fatalf("Len=%d SettledLen=%d, want 10, 0", w.Len(), w.SettledLen())
	}
}

func TestWindowExpeditionFlagLifecycle(t *testing.T) {
	w := NewWindow[int]()
	w.Insert(tup(1, 1))
	w.Insert(tup(2, 2))
	w.InsertSettled(tup(3, 3))

	if got := collect(w, true); len(got) != 1 || got[0] != 3 {
		t.Fatalf("settled scan = %v, want [3]", got)
	}
	if !w.ClearExpedition(1) {
		t.Fatal("ClearExpedition(1) not found")
	}
	if got := collect(w, true); len(got) != 2 {
		t.Fatalf("settled scan after clear = %v, want 2 entries", got)
	}
	// Clearing twice is idempotent and still reports presence.
	if !w.ClearExpedition(1) {
		t.Fatal("second ClearExpedition(1) reported missing")
	}
	if w.ClearExpedition(99) {
		t.Fatal("ClearExpedition(99) reported found")
	}
	if w.SettledLen() != 2 {
		t.Fatalf("SettledLen = %d, want 2", w.SettledLen())
	}
}

func TestWindowRemove(t *testing.T) {
	w := NewWindow[int]()
	for i := 0; i < 5; i++ {
		w.InsertSettled(tup(uint64(i), i*10))
	}
	v, ok := w.Remove(2)
	if !ok || v.Payload != 20 {
		t.Fatalf("Remove(2) = (%v, %v)", v, ok)
	}
	if _, ok := w.Remove(2); ok {
		t.Fatal("double remove succeeded")
	}
	if got := collect(w, false); len(got) != 4 {
		t.Fatalf("scan after remove = %v", got)
	}
	if w.Len() != 4 || w.SettledLen() != 4 {
		t.Fatalf("Len=%d SettledLen=%d, want 4, 4", w.Len(), w.SettledLen())
	}
	if _, ok := w.Get(3); !ok {
		t.Fatal("Get(3) missing")
	}
	if _, ok := w.Get(2); ok {
		t.Fatal("Get(2) still present")
	}
}

func TestWindowOldestSeq(t *testing.T) {
	w := NewWindow[int]()
	if _, ok := w.OldestSeq(); ok {
		t.Fatal("empty window has an oldest")
	}
	for i := 3; i < 8; i++ {
		w.InsertSettled(tup(uint64(i), i))
	}
	if seq, ok := w.OldestSeq(); !ok || seq != 3 {
		t.Fatalf("OldestSeq = (%d, %v), want 3", seq, ok)
	}
	w.Remove(3)
	w.Remove(4)
	if seq, ok := w.OldestSeq(); !ok || seq != 5 {
		t.Fatalf("OldestSeq after removals = (%d, %v), want 5", seq, ok)
	}
}

func TestWindowCompaction(t *testing.T) {
	// Insert and remove far more entries than stay live; the backing
	// slice must not grow without bound.
	w := NewWindow[int]()
	for i := 0; i < 10000; i++ {
		w.InsertSettled(tup(uint64(i), i))
		if i >= 100 {
			w.Remove(uint64(i - 100))
		}
	}
	if w.Len() != 100 {
		t.Fatalf("Len = %d, want 100", w.Len())
	}
	if cap := len(w.entries) - w.head; cap > 1000 {
		t.Fatalf("live region %d entries for 100 live tuples; compaction failed", cap)
	}
	got := collect(w, false)
	if len(got) != 100 || got[0] != 9900 || got[99] != 9999 {
		t.Fatalf("scan after heavy churn: len=%d first=%d last=%d", len(got), got[0], got[len(got)-1])
	}
}

func TestWindowHashProbe(t *testing.T) {
	w := NewWindow(WithHashIndex(func(v int) uint64 { return uint64(v % 10) }))
	for i := 0; i < 30; i++ {
		w.Insert(tup(uint64(i), i))
	}
	var hits []uint64
	w.Probe(3, false, func(t stream.Tuple[int]) { hits = append(hits, t.Seq) })
	if len(hits) != 3 || hits[0] != 3 || hits[1] != 13 || hits[2] != 23 {
		t.Fatalf("Probe(3) = %v, want [3 13 23]", hits)
	}
	// Settled-only probes skip expedited entries.
	w.ClearExpedition(13)
	hits = nil
	w.Probe(3, true, func(t stream.Tuple[int]) { hits = append(hits, t.Seq) })
	if len(hits) != 1 || hits[0] != 13 {
		t.Fatalf("settled Probe(3) = %v, want [13]", hits)
	}
	// Removal drops index entries.
	w.Remove(13)
	hits = nil
	w.Probe(3, true, func(t stream.Tuple[int]) { hits = append(hits, t.Seq) })
	if len(hits) != 0 {
		t.Fatalf("Probe after remove = %v, want empty", hits)
	}
}

func TestWindowRangeProbe(t *testing.T) {
	w := NewWindow(WithBTreeIndex(func(v int) uint64 { return uint64(v) }))
	for i := 0; i < 100; i++ {
		w.InsertSettled(tup(uint64(i), i))
	}
	var hits []uint64
	w.RangeProbe(10, 14, false, func(t stream.Tuple[int]) { hits = append(hits, t.Seq) })
	if len(hits) != 5 || hits[0] != 10 || hits[4] != 14 {
		t.Fatalf("RangeProbe(10,14) = %v", hits)
	}
}

// TestWindowPropertyAgainstReference drives a Window and a naive
// reference (map + ordered slice) with the same random operation
// sequence and compares observable state after every step.
func TestWindowPropertyAgainstReference(t *testing.T) {
	type refEntry struct {
		seq       uint64
		expedited bool
	}
	check := func(ops []uint16) bool {
		w := NewWindow[int]()
		var ref []refEntry
		next := uint64(0)
		find := func(seq uint64) int {
			for i := range ref {
				if ref[i].seq == seq {
					return i
				}
			}
			return -1
		}
		for _, op := range ops {
			switch op % 4 {
			case 0: // insert expedited
				w.Insert(tup(next, int(next)))
				ref = append(ref, refEntry{seq: next, expedited: true})
				next++
			case 1: // insert settled
				w.InsertSettled(tup(next, int(next)))
				ref = append(ref, refEntry{seq: next, expedited: false})
				next++
			case 2: // clear a pseudo-random entry's flag
				if len(ref) == 0 {
					continue
				}
				seq := ref[int(op/4)%len(ref)].seq
				w.ClearExpedition(seq)
				ref[find(seq)].expedited = false
			case 3: // remove a pseudo-random entry
				if len(ref) == 0 {
					continue
				}
				i := int(op/4) % len(ref)
				seq := ref[i].seq
				if _, ok := w.Remove(seq); !ok {
					return false
				}
				ref = append(ref[:i], ref[i+1:]...)
			}
			if w.Len() != len(ref) {
				return false
			}
			settled := 0
			for _, e := range ref {
				if !e.expedited {
					settled++
				}
			}
			if w.SettledLen() != settled {
				return false
			}
			all := collect(w, false)
			if len(all) != len(ref) {
				return false
			}
			for i := range all {
				if all[i] != ref[i].seq {
					return false
				}
			}
			var wantSettled []uint64
			for _, e := range ref {
				if !e.expedited {
					wantSettled = append(wantSettled, e.seq)
				}
			}
			gotSettled := collect(w, true)
			if len(gotSettled) != len(wantSettled) {
				return false
			}
			for i := range gotSettled {
				if gotSettled[i] != wantSettled[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowOpenCursorSurvivesCompaction pins the invariant slice
// migration depends on: seqs held by an open cursor (PeekMatching /
// ExtractSeqs peek first, remove later) stay valid handles across
// in-place compactions and ring base advances that happen between the
// peek and the removals — including compactions triggered mid-removal
// by the removals themselves.
func TestWindowOpenCursorSurvivesCompaction(t *testing.T) {
	w := NewWindow(WithHashIndex(func(v int) uint64 { return uint64(v) % 7 }))
	const n = 600
	for i := 0; i < n; i++ {
		w.InsertSettled(tup(uint64(i), i))
	}
	// The "cursor": every 3rd seq, peeked up front, removed at the end.
	var held []uint64
	for i := 0; i < n; i += 3 {
		held = append(held, uint64(i))
	}
	// Churn everything else away. These removals tombstone two thirds of
	// the entries array, forcing multiple in-place compactions and base
	// advances while the cursor is open.
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			if _, ok := w.Remove(uint64(i)); !ok {
				t.Fatalf("churn Remove(%d) missing", i)
			}
		}
	}
	if w.Len() != len(held) {
		t.Fatalf("Len = %d, want %d held entries", w.Len(), len(held))
	}
	// Drain the cursor. Each removal can itself trigger a compaction
	// that re-points the slots of the seqs still held; the exact
	// tuple multiset must come back regardless.
	got := map[uint64]int{}
	for _, seq := range held {
		v, ok := w.Remove(seq)
		if !ok {
			t.Fatalf("held seq %d vanished across compaction", seq)
		}
		if v.Seq != seq || v.Payload != int(seq) {
			t.Fatalf("held seq %d resolved to tuple {Seq:%d Payload:%d}", seq, v.Seq, v.Payload)
		}
		got[seq]++
	}
	for _, seq := range held {
		if got[seq] != 1 {
			t.Fatalf("seq %d extracted %d times", seq, got[seq])
		}
	}
	if w.Len() != 0 {
		t.Fatalf("window not empty after cursor drain: %d", w.Len())
	}
}

// TestWindowCursorSurvivesBelowBaseInjection drives the migration
// arrival order: store-only injections land below the destination
// window's ring base while older holes exist, and previously peeked
// seqs must keep resolving.
func TestWindowCursorSurvivesBelowBaseInjection(t *testing.T) {
	w := NewWindow[int](WithStride[int](3)) // node 0 of a 3-node pipeline
	// Recent arrivals anchor the ring high.
	for i := 300; i < 330; i += 3 {
		w.InsertSettled(tup(uint64(i), i))
	}
	held := []uint64{303, 309, 327}
	// An injected slice of an older key-group arrives below base, out of
	// the blue but home-aligned.
	for i := 30; i < 60; i += 3 {
		w.InsertSettled(tup(uint64(i), i))
	}
	if seq, ok := w.OldestSeq(); !ok || seq != 300 {
		t.Fatalf("OldestSeq = (%d, %v); arrival order must be preserved", seq, ok)
	}
	for _, seq := range held {
		if v, ok := w.Get(seq); !ok || v.Payload != int(seq) {
			t.Fatalf("held seq %d broken after below-base injection: (%v, %v)", seq, v, ok)
		}
	}
	// And the injected entries expire first (they are older), advancing
	// nothing the cursor depends on.
	for i := 30; i < 60; i += 3 {
		if _, ok := w.Remove(uint64(i)); !ok {
			t.Fatalf("injected seq %d missing", i)
		}
	}
	for _, seq := range held {
		if _, ok := w.Remove(seq); !ok {
			t.Fatalf("held seq %d lost after injected slice expired", seq)
		}
	}
}
