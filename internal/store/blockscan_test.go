package store

import (
	"fmt"
	"testing"

	"handshakejoin/internal/stream"
	"handshakejoin/internal/workload"
)

// refHit is a block-scan hit with the slot resolved to its seq, so hit
// sequences compare across a window and its model.
type refHit struct {
	probe int
	seq   uint64
}

type modelEntry struct {
	seq       uint64
	val       int
	expedited bool
}

// near is the asymmetric test predicate: swapping its arguments changes
// the answer, so an orientation mix-up in either scan fails the test.
func near(probe, entry int) bool { d := probe - entry; return d >= 0 && d <= 3 }

// modelScan is the per-tuple reference: one full pass over the model
// per probe, in probe order.
func modelScan(model []modelEntry, probes []int, settledOnly bool) []refHit {
	var hits []refHit
	for p, v := range probes {
		for _, e := range model {
			if settledOnly && e.expedited {
				continue
			}
			if settledOnly && near(e.val, v) || !settledOnly && near(v, e.val) {
				hits = append(hits, refHit{p, e.seq})
			}
		}
	}
	return hits
}

func resolve(w *Window[int], hits []Hit) []refHit {
	out := make([]refHit, len(hits))
	for i, h := range hits {
		out[i] = refHit{int(h.Probe), w.At(h.Slot).Seq}
	}
	return out
}

func sameHits(a, b []refHit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestScanBlockPropertyVsPerTupleReference drives a window through a
// random schedule of inserts (expedited and settled), flag clears and
// removals — front-heavy, so head advances and in-place compactions
// happen mid-stream — and after every burst compares both block scans,
// at block sizes on every side of the tile width, with a per-tuple
// reference over a plain model: identical hit sequence, identical
// inspected count.
func TestScanBlockPropertyVsPerTupleReference(t *testing.T) {
	blocks := []int{1, 4, 63, 64, 65, 200}
	for seed := uint64(1); seed <= 6; seed++ {
		rnd := workload.NewRand(seed)
		w := NewWindow[int]()
		var model []modelEntry
		var sc BlockScratch
		next := uint64(0)
		for burst := 0; burst < 60; burst++ {
			for op := 0; op < 40; op++ {
				switch x := rnd.Intn(10); {
				case x < 4:
					v := rnd.Intn(24)
					if rnd.Intn(2) == 0 {
						w.Insert(tup(next, v))
						model = append(model, modelEntry{next, v, true})
					} else {
						w.InsertSettled(tup(next, v))
						model = append(model, modelEntry{next, v, false})
					}
					next++
				case x < 6 && len(model) > 0:
					i := rnd.Intn(len(model))
					w.ClearExpedition(model[i].seq)
					model[i].expedited = false
				case len(model) > 0:
					// Expiry removes near the front, now and then anywhere.
					i := rnd.Intn(min(len(model), 4))
					if rnd.Intn(8) == 0 {
						i = rnd.Intn(len(model))
					}
					if _, ok := w.Remove(model[i].seq); !ok {
						t.Fatalf("seed %d: seq %d missing", seed, model[i].seq)
					}
					model = append(model[:i], model[i+1:]...)
				}
			}
			for _, nb := range blocks {
				probes := make([]int, nb)
				for i := range probes {
					probes[i] = rnd.Intn(28)
				}
				hits, inspected := ScanBlock(w, probes, near, &sc)
				if want := modelScan(model, probes, false); !sameHits(resolve(w, hits), want) || inspected != len(model) {
					t.Fatalf("seed %d burst %d block %d: ScanBlock gave %d hits / %d inspected, reference %d / %d",
						seed, burst, nb, len(hits), inspected, len(want), len(model))
				}
				hits, inspected = ScanBlockSettled(w, probes, near, &sc)
				if want := modelScan(model, probes, true); !sameHits(resolve(w, hits), want) || inspected != len(model) {
					t.Fatalf("seed %d burst %d block %d: ScanBlockSettled gave %d hits / %d inspected, reference %d / %d",
						seed, burst, nb, len(hits), inspected, len(want), len(model))
				}
			}
		}
		if w.Rare().Compactions.Load() == 0 {
			t.Fatalf("seed %d: schedule never compacted the window", seed)
		}
	}
}

// TestScanBlockEmpty: no probes and no entries are both legal blocks.
func TestScanBlockEmpty(t *testing.T) {
	w := NewWindow[int]()
	var sc BlockScratch
	if hits, n := ScanBlock(w, []int{1, 2}, near, &sc); len(hits) != 0 || n != 0 {
		t.Fatalf("empty window: %d hits, %d inspected", len(hits), n)
	}
	w.InsertSettled(tup(0, 1))
	if hits, n := ScanBlockSettled(w, []int(nil), near, &sc); len(hits) != 0 || n != 0 {
		t.Fatalf("empty block: %d hits, %d inspected", len(hits), n)
	}
}

// benchTup is the repository benchmark's payload shape (benchmark/
// workloads.go), so the kernel is timed on the entry size band_scan
// scans.
type benchTup struct {
	Key uint64
	A   int32
	B   float32
	Due int64
}

// benchBand is a variable so the scans call it the way they call
// Config.Pred: through a func value the compiler cannot see through.
var benchBand = func(r, s benchTup) bool {
	return workload.BandPredicate(workload.RTuple{X: r.A, Y: r.B}, workload.STuple{A: s.A, B: s.B})
}

// BenchmarkScanBlock times the scan kernel on band_scan's shape — a
// 1024-entry fragment, the paper's band predicate behind a func value —
// at block sizes 1 (per-tuple pushes at Batch 1), 4 and 64, and reports
// ns per window entry per probe. The scratch is warm before the timer
// starts, so a steady-state scan must not allocate.
func BenchmarkScanBlock(b *testing.B) {
	const entries = 1024
	rnd := workload.NewRand(7)
	draw := func() benchTup {
		return benchTup{A: int32(1 + rnd.Intn(1500)), B: float32(1 + rnd.Intn(1500))}
	}
	w := NewWindow[benchTup]()
	for i := 0; i < entries; i++ {
		w.InsertSettled(stream.Tuple[benchTup]{Seq: uint64(i), Payload: draw()})
	}
	pred := benchBand
	for _, nb := range []int{1, 4, 64} {
		b.Run(fmt.Sprintf("block=%d", nb), func(b *testing.B) {
			probes := make([]benchTup, nb)
			for i := range probes {
				probes[i] = draw()
			}
			var sc BlockScratch
			ScanBlock(w, probes, pred, &sc)
			ScanBlockSettled(w, probes, pred, &sc)
			b.ReportAllocs()
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i += 2 {
				h, _ := ScanBlock(w, probes, pred, &sc)
				hits += len(h)
				h, _ = ScanBlockSettled(w, probes, pred, &sc)
				hits += len(h)
			}
			b.StopTimer()
			scans := (b.N + 1) / 2 * 2
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(scans*entries*nb), "ns/entry")
			if allocs := testing.AllocsPerRun(10, func() { ScanBlock(w, probes, pred, &sc) }); allocs != 0 {
				b.Fatalf("steady-state block scan allocates %.1f times", allocs)
			}
			_ = hits
		})
	}
}
