package order

import (
	"sort"
	"testing"
	"testing/quick"

	"handshakejoin/internal/collect"
	"handshakejoin/internal/core"
	"handshakejoin/internal/stream"
	"handshakejoin/internal/workload"
)

func res(rSeq, sSeq uint64, rTS, sTS int64) core.Result[int, int] {
	return core.Result[int, int]{
		Pair: stream.Pair[int, int]{
			R: stream.Tuple[int]{Seq: rSeq, TS: rTS},
			S: stream.Tuple[int]{Seq: sSeq, TS: sTS},
		},
	}
}

func item(r core.Result[int, int]) collect.Item[int, int] {
	return collect.Item[int, int]{Result: r}
}

func punct(ts int64) collect.Item[int, int] {
	return collect.Item[int, int]{Punct: true, TS: ts}
}

func TestSorterReleasesOnPunctuation(t *testing.T) {
	var out []int64
	s := NewSorter(func(r core.Result[int, int]) { out = append(out, r.Pair.TS()) })

	s.Push(item(res(1, 1, 50, 40))) // result ts 50
	s.Push(item(res(2, 2, 30, 20))) // result ts 30
	s.Push(item(res(3, 3, 90, 10))) // result ts 90
	if len(out) != 0 {
		t.Fatal("released before punctuation")
	}
	s.Push(punct(60))
	if len(out) != 2 || out[0] != 30 || out[1] != 50 {
		t.Fatalf("released %v, want [30 50] sorted", out)
	}
	if s.Buffered() != 1 {
		t.Fatalf("buffered = %d, want 1 (ts 90 waits)", s.Buffered())
	}
	s.Flush()
	if len(out) != 3 || out[2] != 90 {
		t.Fatalf("after flush: %v", out)
	}
	if !s.Monotonic() {
		t.Fatal("output not monotonic")
	}
	if s.Released() != 3 {
		t.Fatalf("Released = %d", s.Released())
	}
}

func TestSorterStalePunctuationIgnored(t *testing.T) {
	var out []int64
	s := NewSorter(func(r core.Result[int, int]) { out = append(out, r.Pair.TS()) })
	s.Push(punct(100))
	s.Push(item(res(1, 1, 150, 0)))
	s.Push(punct(90)) // stale: must not release anything
	if len(out) != 0 {
		t.Fatal("stale punctuation released results")
	}
	s.Push(punct(200))
	if len(out) != 1 {
		t.Fatal("fresh punctuation failed to release")
	}
}

func TestSorterMaxBufferTracksHighWater(t *testing.T) {
	s := NewSorter(func(core.Result[int, int]) {})
	for i := 0; i < 10; i++ {
		s.Push(item(res(uint64(i), uint64(i), int64(i*10), 0)))
	}
	s.Push(punct(1000))
	s.Push(item(res(99, 99, 2000, 0)))
	if s.MaxBuffer() != 10 {
		t.Fatalf("MaxBuffer = %d, want 10", s.MaxBuffer())
	}
}

// TestSorterPropertyOrderedOutput: for any interleaving of results and
// increasing punctuations where results respect the punctuation
// contract (a result's ts is >= the latest punctuation at emission
// time), the sorter's output is globally ts-ordered and complete after
// Flush.
func TestSorterPropertyOrderedOutput(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		rnd := workload.NewRand(seed)
		var out []int64
		s := NewSorter(func(r core.Result[int, int]) { out = append(out, r.Pair.TS()) })
		lastPunct := int64(0)
		results := 0
		for i := 0; i < int(n)+5; i++ {
			if rnd.Intn(4) == 0 {
				lastPunct += int64(rnd.Intn(50))
				s.Push(punct(lastPunct))
			} else {
				ts := lastPunct + int64(rnd.Intn(100))
				s.Push(item(res(uint64(i), uint64(i), ts, 0)))
				results++
			}
		}
		s.Flush()
		if len(out) != results {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i] < out[i-1] {
				return false
			}
		}
		return s.Monotonic()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refSorter is the sorter this package shipped before the heap: hold
// results in arrival order, and on every punctuation partition the
// whole buffer and sort what is ready. It defines the output order the
// heap must reproduce.
type refSorter struct {
	buf       []core.Result[int, int]
	lastPunct int64
	out       []core.Result[int, int]
}

func (s *refSorter) push(it collect.Item[int, int]) {
	if !it.Punct {
		s.buf = append(s.buf, it.Result)
		return
	}
	if it.TS <= s.lastPunct {
		return
	}
	s.lastPunct = it.TS
	var ready, keep []core.Result[int, int]
	for _, r := range s.buf {
		if r.Pair.TS() < it.TS {
			ready = append(ready, r)
		} else {
			keep = append(keep, r)
		}
	}
	s.buf = keep
	sort.Slice(ready, func(i, j int) bool {
		ti, tj := ready[i].Pair.TS(), ready[j].Pair.TS()
		if ti != tj {
			return ti < tj
		}
		if ready[i].Pair.R.Seq != ready[j].Pair.R.Seq {
			return ready[i].Pair.R.Seq < ready[j].Pair.R.Seq
		}
		return ready[i].Pair.S.Seq < ready[j].Pair.S.Seq
	})
	s.out = append(s.out, ready...)
}

// randomStream is a punctuated stream with heavy timestamp ties (so the
// sequence-number tie-breaks decide the order), stale punctuations, and
// stretches without any punctuation.
func randomStream(seed uint64, n int) []collect.Item[int, int] {
	rnd := workload.NewRand(seed)
	items := make([]collect.Item[int, int], 0, n+1)
	lastPunct := int64(0)
	for i := 0; i < n; i++ {
		switch rnd.Intn(5) {
		case 0:
			lastPunct += int64(rnd.Intn(12))
			items = append(items, punct(lastPunct))
		case 1:
			items = append(items, punct(lastPunct-int64(rnd.Intn(5)))) // stale
		default:
			rts := lastPunct + int64(rnd.Intn(20))
			sts := lastPunct - int64(rnd.Intn(20))
			items = append(items, item(res(uint64(rnd.Intn(6)), uint64(i), rts, sts)))
		}
	}
	return append(items, punct(int64(1)<<62-1)) // what Flush pushes
}

// TestSorterMatchesPartitionAndSortReference: the heap releases the
// identical sequence, result for result, as the reference on random
// punctuated streams.
func TestSorterMatchesPartitionAndSortReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		var got []core.Result[int, int]
		s := NewSorter(func(r core.Result[int, int]) { got = append(got, r) })
		ref := &refSorter{lastPunct: -1}
		for _, it := range randomStream(seed, 400) {
			s.Push(it)
			ref.push(it)
			if len(got) != len(ref.out) {
				t.Fatalf("seed %d: released %d results where the reference released %d", seed, len(got), len(ref.out))
			}
		}
		for i := range ref.out {
			if got[i] != ref.out[i] {
				t.Fatalf("seed %d: position %d: got %+v, want %+v", seed, i, got[i].Pair, ref.out[i].Pair)
			}
		}
		if s.Buffered() != 0 || !s.Monotonic() || s.Released() != uint64(len(got)) {
			t.Fatalf("seed %d: buffered %d, monotonic %v, released %d of %d", seed, s.Buffered(), s.Monotonic(), s.Released(), len(got))
		}
	}
}

// TestSorterSnapshotRestoreRoundTrips: a sorter restored mid-stream
// from a snapshot — into a sorter that already held something else —
// continues with exactly the output the original produces.
func TestSorterSnapshotRestoreRoundTrips(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		items := randomStream(seed, 300)
		cut := len(items) / 2
		var a, b []core.Result[int, int]
		orig := NewSorter(func(r core.Result[int, int]) { a = append(a, r) })
		for _, it := range items[:cut] {
			orig.Push(it)
		}
		st := orig.Snapshot()
		before := len(a)

		restored := NewSorter(func(r core.Result[int, int]) { b = append(b, r) })
		restored.Push(item(res(99, 99, 7, 7))) // must not survive Restore
		restored.Restore(st)
		if restored.Buffered() != orig.Buffered() || restored.Released() != orig.Released() {
			t.Fatalf("seed %d: restored holds %d / released %d, original %d / %d",
				seed, restored.Buffered(), restored.Released(), orig.Buffered(), orig.Released())
		}
		for _, it := range items[cut:] {
			orig.Push(it)
			restored.Push(it)
		}
		if len(b) != len(a)-before {
			t.Fatalf("seed %d: restored sorter released %d results, original %d", seed, len(b), len(a)-before)
		}
		for i := range b {
			if b[i] != a[before+i] {
				t.Fatalf("seed %d: position %d after the cut: got %+v, want %+v", seed, i, b[i].Pair, a[before+i].Pair)
			}
		}
	}
}

// TestSorterPunctuationAllocatesNothing: in steady state — the heap's
// backing grown to the working set — a punctuation and the results it
// releases allocate nothing, however often punctuations come.
func TestSorterPunctuationAllocatesNothing(t *testing.T) {
	s := NewSorter(func(core.Result[int, int]) {})
	ts, seq := int64(0), uint64(0)
	round := func() {
		for i := 0; i < 64; i++ {
			ts++
			seq++
			s.Push(item(res(seq, seq, ts+int64(i%7), ts)))
		}
		s.Push(punct(ts - 16)) // releases most, keeps a tail
	}
	for i := 0; i < 8; i++ {
		round() // warm-up: grow the backing
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("%v allocations per punctuation round in steady state, want 0", allocs)
	}
}
