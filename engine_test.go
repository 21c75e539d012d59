package handshakejoin

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// trade/quote payloads for an API-level equi-join scenario.
type trade struct {
	Sym int
	Px  float64
}

type quote struct {
	Sym int
	Bid float64
}

func symPred(t trade, q quote) bool { return t.Sym == q.Sym }

// sink collects output items thread-safely.
type sink[L, RT any] struct {
	mu    sync.Mutex
	items []Item[L, RT]
}

func (s *sink[L, RT]) add(it Item[L, RT]) {
	s.mu.Lock()
	s.items = append(s.items, it)
	s.mu.Unlock()
}

func (s *sink[L, RT]) snapshot() []Item[L, RT] {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Item[L, RT](nil), s.items...)
}

func TestEngineValidation(t *testing.T) {
	var out sink[trade, quote]
	cases := []Config[trade, quote]{
		{},                                      // no predicate
		{Predicate: symPred},                    // no output
		{Predicate: symPred, OnOutput: out.add}, // no windows
		{Predicate: symPred, OnOutput: out.add, WindowR: Window{Count: 5}}, // one window
		{Predicate: symPred, OnOutput: out.add, WindowR: Window{Count: 5},
			WindowS: Window{Count: 5}, Workers: -1},
		{Predicate: symPred, OnOutput: out.add, WindowR: Window{Count: 5},
			WindowS: Window{Count: 5}, Algorithm: HSJ, Punctuate: true},
		{Predicate: symPred, OnOutput: out.add, WindowR: Window{Count: 5},
			WindowS: Window{Count: 5}, Index: HashIndex},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestEngineCountWindowJoin(t *testing.T) {
	var out sink[trade, quote]
	eng, err := New(Config[trade, quote]{
		Workers:     3,
		Predicate:   symPred,
		WindowR:     Window{Count: 100},
		WindowS:     Window{Count: 100},
		Batch:       2,
		MaxInFlight: 4,
		OnOutput:    out.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Push matching pairs: trade i and quote i share Sym i%20, so
	// within a window of 100 every tuple matches several counterparts.
	const n = 400
	for i := 0; i < n; i++ {
		ts := int64(i) * 1e6
		if err := eng.PushR(trade{Sym: i % 20, Px: float64(i)}, ts); err != nil {
			t.Fatal(err)
		}
		if err := eng.PushS(quote{Sym: i % 20, Bid: float64(i)}, ts); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	st := eng.Stats()
	if st.RIn != n || st.SIn != n {
		t.Fatalf("pushed (%d, %d), want (%d, %d)", st.RIn, st.SIn, n, n)
	}
	// Expected matches: trade i and quote j join iff i ≡ j (mod 20)
	// and |i−j| is inside the 100-tuple windows. Distances are
	// multiples of 20, so only |i−j| = 100 sits on the (batch-granular)
	// window boundary: pairs at distance <= 80 must all appear, pairs
	// at distance >= 120 must not, and distance-100 pairs may go either
	// way depending on which batch carried the expiry.
	items := out.snapshot()
	if uint64(len(items)) != st.Results {
		t.Fatalf("output items = %d, stats say %d", len(items), st.Results)
	}
	seen := map[[2]uint64]bool{}
	for _, it := range items {
		r, q := it.Result.Pair.R, it.Result.Pair.S
		k := [2]uint64{r.Seq, q.Seq}
		if seen[k] {
			t.Fatalf("duplicate output pair %v", k)
		}
		seen[k] = true
		if r.Payload.Sym != q.Payload.Sym {
			t.Fatalf("non-matching pair emitted: %+v", k)
		}
		if d := dist(r.Seq, q.Seq); d >= 120 {
			t.Fatalf("pair %v at distance %d escaped the window", k, d)
		}
	}
	var sure, boundary uint64
	for i := uint64(0); i < n; i++ {
		for j := uint64(0); j < n; j++ {
			if i%20 != j%20 {
				continue
			}
			switch d := dist(i, j); {
			case d <= 80:
				sure++
				if !seen[[2]uint64{i, j}] {
					t.Fatalf("missing in-window pair (%d, %d)", i, j)
				}
			case d == 100:
				boundary++
			}
		}
	}
	if st.Results < sure || st.Results > sure+boundary {
		t.Fatalf("results = %d, want in [%d, %d]", st.Results, sure, sure+boundary)
	}
	if st.PendingExpiries != 0 {
		t.Errorf("pending expiries: %d", st.PendingExpiries)
	}
}

func dist(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestEngineOrderedOutput(t *testing.T) {
	var out sink[trade, quote]
	eng, err := New(Config[trade, quote]{
		Workers:       4,
		Predicate:     symPred,
		WindowR:       Window{Duration: 50 * time.Millisecond},
		WindowS:       Window{Duration: 50 * time.Millisecond},
		Batch:         4,
		MaxInFlight:   4,
		Ordered:       true,
		CollectPeriod: 200 * time.Microsecond,
		OnOutput:      out.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().UnixNano()
	lane := eng.(*Engine[trade, quote]).lane
	for i := 0; i < 600; i++ {
		ts := base + int64(i)*1e5
		eng.PushR(trade{Sym: i % 10}, ts)
		eng.PushS(quote{Sym: i % 10}, ts)
		if i%50 == 0 {
			// Let the collector punctuate. The workload emits ~30 results
			// a tuple, so the one collector — not the four workers — is
			// the slow stage; wait until it has taken what they queued
			// rather than guessing how long that takes on a busy box.
			for lane.Collected() < lane.PipelineStats().Results {
				runtime.Gosched()
			}
		}
	}
	eng.Close()

	items := out.snapshot()
	var lastTS int64 = -1 << 62
	results, puncts := 0, 0
	for _, it := range items {
		if it.Punct {
			puncts++
			continue
		}
		results++
		if ts := it.Result.Pair.TS(); ts < lastTS {
			t.Fatalf("ordered output regressed: %d after %d", ts, lastTS)
		} else {
			lastTS = ts
		}
	}
	if results == 0 {
		t.Fatal("no results")
	}
	if puncts == 0 {
		t.Fatal("no punctuations forwarded")
	}
	st := eng.Stats()
	if st.MaxSortBuffer == 0 {
		t.Fatal("sort buffer never used")
	}
	if st.MaxSortBuffer > results/2 {
		t.Errorf("sort buffer %d held more than half of %d results; punctuations too sparse",
			st.MaxSortBuffer, results)
	}
}

func TestEngineHSJBaseline(t *testing.T) {
	var out sink[trade, quote]
	eng, err := New(Config[trade, quote]{
		Algorithm:   HSJ,
		Workers:     3,
		Predicate:   symPred,
		WindowR:     Window{Count: 60},
		WindowS:     Window{Count: 60},
		Batch:       2,
		MaxInFlight: 4,
		OnOutput:    out.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		ts := int64(i) * 1e6
		eng.PushR(trade{Sym: i % 15}, ts)
		eng.PushS(quote{Sym: i % 15}, ts)
	}
	eng.Close()
	items := out.snapshot()
	if len(items) == 0 {
		t.Fatal("HSJ produced nothing")
	}
	seen := map[[2]uint64]bool{}
	for _, it := range items {
		k := [2]uint64{it.Result.Pair.R.Seq, it.Result.Pair.S.Seq}
		if seen[k] {
			t.Fatalf("duplicate pair %v", k)
		}
		seen[k] = true
	}
}

func TestEngineHashIndexEquiJoin(t *testing.T) {
	var plain, indexed sink[trade, quote]
	run := func(idx IndexKind, out *sink[trade, quote]) Stats {
		cfg := Config[trade, quote]{
			Workers:     3,
			Predicate:   symPred,
			WindowR:     Window{Count: 80},
			WindowS:     Window{Count: 80},
			Batch:       2,
			MaxInFlight: 4,
			Index:       idx,
			OnOutput:    out.add,
		}
		if idx != ScanIndex {
			cfg.KeyR = func(t trade) uint64 { return uint64(t.Sym) }
			cfg.KeyS = func(q quote) uint64 { return uint64(q.Sym) }
		}
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			ts := int64(i) * 1e6
			eng.PushR(trade{Sym: i % 12}, ts)
			eng.PushS(quote{Sym: i % 12}, ts)
		}
		eng.Close()
		return eng.Stats()
	}
	stPlain := run(ScanIndex, &plain)
	stIdx := run(HashIndex, &indexed)
	if stPlain.Results != stIdx.Results {
		t.Fatalf("indexed engine found %d results, scan found %d", stIdx.Results, stPlain.Results)
	}
	if stIdx.Comparisons >= stPlain.Comparisons {
		t.Errorf("hash index inspected %d entries, scan %d; index should inspect fewer",
			stIdx.Comparisons, stPlain.Comparisons)
	}
}

func TestEngineTimestampRegressionRejected(t *testing.T) {
	eng, err := New(Config[trade, quote]{
		Predicate: symPred,
		WindowR:   Window{Count: 10},
		WindowS:   Window{Count: 10},
		OnOutput:  func(Item[trade, quote]) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.PushR(trade{}, 100); err != nil {
		t.Fatal(err)
	}
	if err := eng.PushR(trade{}, 99); err == nil {
		t.Fatal("regressed timestamp accepted")
	}
	if err := eng.PushS(quote{}, 100); err != nil {
		t.Fatal(err)
	}
	if err := eng.PushS(quote{}, 50); err == nil {
		t.Fatal("regressed S timestamp accepted")
	}
}

func TestEngineCloseIdempotentAndPushAfterClose(t *testing.T) {
	eng, err := New(Config[trade, quote]{
		Predicate: symPred,
		WindowR:   Window{Count: 10},
		WindowS:   Window{Count: 10},
		OnOutput:  func(Item[trade, quote]) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal("second close errored")
	}
	if err := eng.PushR(trade{}, 1); err == nil {
		t.Fatal("push after close accepted")
	}
}

func TestEngineTickSlidesWindows(t *testing.T) {
	var out sink[trade, quote]
	eng, err := New(Config[trade, quote]{
		Workers:     2,
		Predicate:   symPred,
		WindowR:     Window{Duration: time.Duration(10) * time.Millisecond},
		WindowS:     Window{Duration: time.Duration(10) * time.Millisecond},
		Batch:       1,
		MaxInFlight: 4,
		OnOutput:    out.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.PushS(quote{Sym: 1}, 0)
	// Advance stream time past the S tuple's expiry, then push a
	// matching R tuple: it must not join.
	eng.Tick(20e6)
	eng.PushR(trade{Sym: 1}, 25e6)
	eng.Close()
	for _, it := range out.snapshot() {
		if !it.Punct {
			t.Fatalf("expired tuple joined: %+v", it.Result.Pair)
		}
	}
}
