package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistQuantilesMatchSortedSlice(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for _, gen := range []struct {
		name string
		draw func() int64
	}{
		{"uniform", func() int64 { return rnd.Int63n(5e6) }},
		{"lognormal", func() int64 { return int64(math.Exp(rnd.NormFloat64()*1.5 + 13)) }},
		{"small", func() int64 { return rnd.Int63n(100) }},
		{"bimodal", func() int64 {
			if rnd.Intn(100) == 0 {
				return 100e6 + rnd.Int63n(1e6)
			}
			return 1e6 + rnd.Int63n(1e5)
		}},
	} {
		var h hist
		ref := make([]int64, 200000)
		for i := range ref {
			ref[i] = gen.draw()
			h.record(ref[i])
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		if got := h.count(); got != uint64(len(ref)) {
			t.Fatalf("%s: count %d, want %d", gen.name, got, len(ref))
		}
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
			want := float64(ref[int(math.Ceil(q*float64(len(ref))))-1])
			got, beyond := h.quantile(q)
			// A bucket is at most 1/128 of its value wide (or one unit).
			if tol := math.Max(want/histSub, 1); math.Abs(got-want) > tol {
				t.Errorf("%s: q%.3f = %.1f, sorted slice says %.1f (tolerance %.1f)", gen.name, q, got, want, tol)
			}
			if maxBeyond := uint64(float64(len(ref)) * (1 - q)); beyond > maxBeyond {
				t.Errorf("%s: q%.3f reports %d samples beyond, at most %d lie above it", gen.name, q, beyond, maxBeyond)
			}
		}
	}
}

func TestHistBucketsTileTheRange(t *testing.T) {
	prevHi := 0.0
	for i := 0; i < histBuckets; i++ {
		lo, hi := histBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %g, previous ended at %g", i, lo, prevHi)
		}
		if lo <= math.MaxInt64/2 {
			if got := histIndex(int64(lo)); got != i {
				t.Fatalf("histIndex(%g) = %d, want bucket %d", lo, got, i)
			}
		}
		prevHi = hi
	}
	if histIndex(math.MaxInt64) != histBuckets-1 {
		t.Fatalf("histIndex(MaxInt64) = %d of %d buckets", histIndex(math.MaxInt64), histBuckets)
	}
	if histIndex(-5) != 0 {
		t.Fatal("negative values must land in bucket 0")
	}
}
