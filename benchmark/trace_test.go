package main

import (
	"testing"
	"time"
)

// However many push spans a batch workload records, the totals stay
// exact, the dump keeps one request in batchSampleEvery, and phase and
// rung spans still find room and parent what follows them.
func TestTracerKeepsPhaseSpansUnderPushFlood(t *testing.T) {
	tr := newTracer(time.Now(), 256)
	const pushes = 2 * maxSpans * batchSampleEvery
	tr.enter(spanPhase, "sat")
	for req := uint64(0); req < pushes; req++ {
		tr.end(spanPushRBatch, req, tr.begin())
	}
	tr.leave()
	if _, n := tr.pushTotals(); n != pushes {
		t.Fatalf("totals cover %d pushes, want %d", n, pushes)
	}
	if stored := len(tr.spans); stored != maxSpans-reservedSpans {
		t.Fatalf("%d spans stored, want the push share %d", stored, maxSpans-reservedSpans)
	}
	for _, s := range tr.spans[1:] {
		if s.req%batchSampleEvery != 0 || s.parent != 0 {
			t.Fatalf("stored push span %+v: want a sampled request under phase span 0", s)
		}
	}
	tr.enter(spanPhase, "ladder")
	tr.enter(spanRung, "store.insert")
	tr.end(spanRestore, 0, tr.begin())
	tr.leave()
	tr.leave()
	tail := tr.spans[len(tr.spans)-3:]
	ladder := int32(len(tr.spans) - 3)
	if tail[0].label != "ladder" || tail[1].label != "store.insert" || tail[1].parent != ladder || tail[2].parent != ladder+1 {
		t.Fatalf("spans after the flood: %+v", tail)
	}
	if tail[1].end < tail[1].start || tail[0].end < tail[1].end {
		t.Fatalf("phase spans not closed in order: %+v", tail)
	}
}

func TestTracerSamplesResultsWithTheirRequests(t *testing.T) {
	for _, c := range []struct {
		callerBatch int
		seq         uint64
		want        bool
	}{
		{256, 64 * 256, true}, {256, 64*256 + 255, true}, {256, 65 * 256, false},
		{1, 2048, true}, {1, 2049, false},
	} {
		tr := newTracer(time.Now(), c.callerBatch)
		tr.result(c.seq, 3)
		if got := tr.nResults.Load() == 1; got != c.want {
			t.Errorf("caller batch %d, later seq %d: recorded = %v, want %v", c.callerBatch, c.seq, got, c.want)
		}
	}
}
