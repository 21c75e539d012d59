package pipeline

import (
	"testing"

	"handshakejoin/internal/core"
	"handshakejoin/internal/stream"
	"handshakejoin/internal/workload"
)

// TestSimDeterminism: identical inputs and seeds must produce the
// identical result sequence, event for event.
func TestSimDeterminism(t *testing.T) {
	pred := workload.BandPredicate
	rs, ss := genStreams(300, 1000, 17)
	run := func() []stream.PairKey {
		feed, err := NewFeed(feedConfig(rs, ss, WindowSpec{Count: 100}, WindowSpec{Count: 100}, 4))
		if err != nil {
			t.Fatal(err)
		}
		cost := DefaultCostModel()
		cost.Jitter = 3000
		cost.JitterSeed = 99
		sim := NewSim(5, llhjBuilder(5, pred), cost)
		var keys []stream.PairKey
		sim.OnResult(func(_ int, r core.Result[workload.RTuple, workload.STuple]) {
			keys = append(keys, r.Pair.Key())
		})
		sim.Drain(feed)
		return keys
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSimVirtualTimeAdvances: the clock follows event times and the
// utilization accounting stays within [0, 1] per node.
func TestSimVirtualTimeAdvances(t *testing.T) {
	pred := workload.BandPredicate
	rs, ss := genStreams(200, 1000, 5)
	feed, err := NewFeed(feedConfig(rs, ss, WindowSpec{Count: 50}, WindowSpec{Count: 50}, 4))
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim(4, llhjBuilder(4, pred), DefaultCostModel())
	sim.Drain(feed)
	if sim.Now() < rs[len(rs)-1].TS {
		t.Fatalf("virtual clock %d behind the last arrival %d", sim.Now(), rs[len(rs)-1].TS)
	}
	for k, u := range sim.Utilization() {
		if u < 0 || u > 1 {
			t.Fatalf("node %d utilization %f out of range", k, u)
		}
	}
	if sim.MaxUtilization() <= 0 {
		t.Fatal("no busy time recorded")
	}
}

// TestSimRunUntilStopsAtDeadline: events after the deadline stay
// unprocessed.
func TestSimRunUntilStopsAtDeadline(t *testing.T) {
	pred := workload.BandPredicate
	rs, ss := genStreams(500, 1000, 5) // 1ms apart: last at ~499ms virtual
	feed, err := NewFeed(feedConfig(rs, ss, WindowSpec{Count: 50}, WindowSpec{Count: 50}, 1))
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim(3, llhjBuilder(3, pred), DefaultCostModel())
	deadline := int64(100e6) // 100 ms
	sim.RunUntil(deadline, feed)
	slack := deadline + int64(1e6)
	if sim.Now() > slack {
		t.Fatalf("clock ran to %d, deadline %d", sim.Now(), deadline)
	}
	st := sim.Stats()
	// Roughly 100 of the 500 tuples should have been processed by each
	// of the 3 nodes.
	if st.RArrivals == 0 || st.RArrivals > 3*150 {
		t.Fatalf("RArrivals = %d, want ~300", st.RArrivals)
	}
}

// TestSimCollectorPunctuationInvariant runs the full pipeline with the
// modelled collector and asserts the §6 guarantee on the punctuated
// stream: after a punctuation with timestamp tp, no result with
// ts < tp ever appears.
func TestSimCollectorPunctuationInvariant(t *testing.T) {
	pred := workload.BandPredicate
	rs, ss := genStreams(2000, 1000, 23)
	feed, err := NewFeed(feedConfig(rs, ss, WindowSpec{Duration: 100e6}, WindowSpec{Duration: 100e6}, 8))
	if err != nil {
		t.Fatal(err)
	}
	cost := DefaultCostModel()
	cost.Jitter = 2000
	cost.JitterSeed = 7
	sim := NewSim(6, llhjBuilder(6, pred), cost)

	lastPunct := int64(-1)
	violations := 0
	results := 0
	puncts := 0
	sim.EnableCollector(5e6, func(punct int64, batch []core.Result[workload.RTuple, workload.STuple]) {
		for _, r := range batch {
			results++
			if r.Pair.TS() < lastPunct {
				violations++
			}
		}
		if punct > lastPunct {
			lastPunct = punct
			puncts++
		}
	})
	sim.Drain(feed)
	sim.FlushResults()
	if results == 0 || puncts == 0 {
		t.Fatalf("results=%d puncts=%d; experiment vacuous", results, puncts)
	}
	if violations != 0 {
		t.Fatalf("%d results violated their punctuation guarantee", violations)
	}
}

// TestSimFIFOUnderJitter: even with heavy delivery jitter, messages on
// one link never overtake each other — verified indirectly by exact
// oracle equality elsewhere, and directly here via the lastSend clamp.
func TestSimFIFOUnderJitter(t *testing.T) {
	pred := workload.BandPredicate
	rs, ss := genStreams(150, 1000, 3)
	feed, err := NewFeed(feedConfig(rs, ss, WindowSpec{Count: 40}, WindowSpec{Count: 40}, 2))
	if err != nil {
		t.Fatal(err)
	}
	cost := DefaultCostModel()
	cost.Jitter = 50000 // 50x the hop latency
	cost.JitterSeed = 11
	sim := NewSim(4, llhjBuilder(4, pred), cost)
	sim.Drain(feed)
	// The protocol self-checks: out-of-order delivery of acks versus
	// arrivals would leave unacknowledged tuples or panic on unexpected
	// message kinds. Quiescence means every in-flight buffer drained.
	for k, nl := range sim.Nodes() {
		node := nl.(*core.Node[workload.RTuple, workload.STuple])
		if l := node.IWSLen(); l != 0 {
			t.Fatalf("node %d: %d unacked tuples after drain under jitter", k, l)
		}
	}
}

// TestSimMaxQueuedEvents: backlog accounting moves and is bounded for a
// sustainable run.
func TestSimMaxQueuedEvents(t *testing.T) {
	pred := workload.BandPredicate
	rs, ss := genStreams(300, 1000, 9)
	feed, err := NewFeed(feedConfig(rs, ss, WindowSpec{Count: 60}, WindowSpec{Count: 60}, 4))
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim(4, llhjBuilder(4, pred), DefaultCostModel())
	sim.Drain(feed)
	if sim.MaxQueuedEvents() <= 0 {
		t.Fatal("no events ever queued")
	}
	if sim.MaxQueuedEvents() > 10000 {
		t.Fatalf("queue backlog %d for a light run; accounting broken", sim.MaxQueuedEvents())
	}
}

// TestSimResultSequencePinned pins the simulator's result sequence —
// pair, emitting order and virtual emission time, which folds in every
// Cost call — for one jittered schedule per batch size. The digests were
// recorded with the per-tuple arrival loop that scanned one tuple at a
// time (`llhjtrace record` / `verify` is the same check by hand); node
// logic that reorders, drops or re-prices a single probe changes them.
func TestSimResultSequencePinned(t *testing.T) {
	rs, ss := genStreams(600, 1000, 23)
	for _, tc := range []struct {
		nodes, batch int
		want         uint64
	}{
		{2, 1, 0x7dc82c541c04945f},
		{5, 4, 0x3c68bcabcfcb3345},
		{3, 64, 0x3f6b2f00ce571c5},
		{4, 200, 0xb507c85e06c3bcea},
	} {
		feed, err := NewFeed(feedConfig(rs, ss, WindowSpec{Count: 150}, WindowSpec{Count: 150}, tc.batch))
		if err != nil {
			t.Fatal(err)
		}
		cost := DefaultCostModel()
		cost.Jitter = 3000
		cost.JitterSeed = 5
		sim := NewSim(tc.nodes, llhjBuilder(tc.nodes, workload.BandPredicate), cost)
		digest, n := uint64(14695981039346656037), 0
		mix := func(v uint64) {
			for i := 0; i < 8; i++ {
				digest = (digest ^ (v >> (8 * i) & 0xff)) * 1099511628211
			}
		}
		sim.OnResult(func(node int, r core.Result[workload.RTuple, workload.STuple]) {
			mix(uint64(node))
			mix(r.Pair.R.Seq)
			mix(r.Pair.S.Seq)
			mix(uint64(r.At))
			n++
		})
		sim.Drain(feed)
		if n == 0 {
			t.Fatalf("nodes=%d batch=%d: no results", tc.nodes, tc.batch)
		}
		if digest != tc.want {
			t.Errorf("nodes=%d batch=%d: %d results with digest %#x, recorded %#x", tc.nodes, tc.batch, n, digest, tc.want)
		}
	}
}
