package main

import (
	"testing"

	"handshakejoin/internal/kang"
	"handshakejoin/internal/stream"
	"handshakejoin/internal/workload"
)

// testChecker is a sandwich over a small seeded equi or band input.
func testChecker(keyed bool, window, slack int) (*checker, [2][]tup) {
	rnd := workload.NewRand(42)
	var pool [2][]tup
	for side := range pool {
		pool[side] = make([]tup, 4000)
		for i := range pool[side] {
			pool[side][i] = tup{Key: uint64(rnd.Intn(64)), A: int32(rnd.Intn(200)), B: float32(rnd.Intn(200))}
		}
	}
	pred := band
	if keyed {
		pred = equi
	}
	return &checker{
		pred: pred, keyed: keyed, window: window, slack: slack,
		at: func(side int, seq uint64) tup { return pool[side][seq] },
	}, pool
}

// kangPairs runs the sequential oracle over the per-tuple push order
// (R_i, then S_i) with count windows.
func kangPairs(c *checker, pool [2][]tup, n int) map[pairID]struct{} {
	out := map[pairID]struct{}{}
	j := kang.New(c.pred, func(p stream.Pair[tup, tup]) { out[pairID{p.R.Seq, p.S.Seq}] = struct{}{} })
	for i := 0; i < n; i++ {
		seq := uint64(i)
		if i >= c.window {
			j.ExpireR(seq - uint64(c.window))
		}
		j.ProcessR(stream.Tuple[tup]{Seq: seq, Payload: pool[0][i]})
		if i >= c.window {
			j.ExpireS(seq - uint64(c.window))
		}
		j.ProcessS(stream.Tuple[tup]{Seq: seq, Payload: pool[1][i]})
	}
	return out
}

// The reference join is a band join on sequence distance; the oracle's
// exact window semantics differ from it only at distance == window
// (R_i still sees S_{i-window}, because S_i is pushed after it), so the
// oracle's output must pass the sandwich at a slack of one tuple, and
// every pair the reference requires at slack 0 must be an oracle pair.
func TestReferenceAgreesWithKang(t *testing.T) {
	for _, keyed := range []bool{true, false} {
		const n, window = 3000, 256
		c, pool := testChecker(keyed, window, 0)
		oracle := kangPairs(c, pool, n)
		if len(oracle) < 1000 {
			t.Fatalf("keyed=%v: oracle found only %d pairs", keyed, len(oracle))
		}
		required := 0
		c.required(0, n, func(p pairID) {
			required++
			if _, ok := oracle[p]; !ok {
				t.Fatalf("keyed=%v: reference requires %v, oracle did not emit it", keyed, p)
			}
		})
		if required == 0 || len(oracle)-required > len(oracle)/100 {
			t.Fatalf("keyed=%v: reference requires %d of the oracle's %d pairs", keyed, required, len(oracle))
		}
		emitted := make([]pairID, 0, len(oracle))
		for p := range oracle {
			emitted = append(emitted, p)
		}
		c.slack = 1
		if v := c.check(emitted, 0, n); v.failed() != 0 {
			t.Fatalf("keyed=%v: oracle output fails the one-tuple sandwich: %+v", keyed, v)
		}
	}
}

func TestSandwichFlagsInjectedFaults(t *testing.T) {
	const n, window, slack = 3000, 256, 16
	c, pool := testChecker(true, window, slack)
	var good []pairID
	for p := range kangPairs(c, pool, n) {
		good = append(good, p)
	}
	if v := c.check(good, 0, n); v.failed() != 0 || v.expected == 0 {
		t.Fatalf("clean output: %+v", v)
	}

	// A pair well inside the window goes missing.
	inside := -1
	for i, p := range good {
		if absDiff(p.r, p.s) < window/2 {
			inside = i
			break
		}
	}
	missing := append(append([]pairID(nil), good[:inside]...), good[inside+1:]...)
	if v := c.check(missing, 0, n); v.missing != 1 || v.extra != 0 || v.dup != 0 {
		t.Errorf("missing pair: %+v", v)
	}

	// A pair is delivered twice.
	if v := c.check(append(append([]pairID(nil), good...), good[inside]), 0, n); v.dup != 1 || v.missing != 0 || v.extra != 0 {
		t.Errorf("duplicate pair: %+v", v)
	}

	// A key-equal pair far outside the grown window, and a pair inside
	// the window that fails the predicate.
	var far, wrong pairID
	for r := uint64(0); r < n && far == (pairID{}); r++ {
		for s := r + window + slack + 1; s < n; s++ {
			if pool[0][r].Key == pool[1][s].Key {
				far = pairID{r, s}
				break
			}
		}
	}
	for s := uint64(0); s < n; s++ {
		if pool[0][10].Key != pool[1][s].Key {
			wrong = pairID{10, s}
			break
		}
	}
	if v := c.check(append(append([]pairID(nil), good...), far, wrong), 0, n); v.extra != 2 || v.missing != 0 || v.dup != 0 {
		t.Errorf("out-of-window and non-matching pairs: %+v", v)
	}
}

func TestOrderedRegressionIsCounted(t *testing.T) {
	w, err := findWorkload("ordered_pertuple")
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(w, 1, t.TempDir())
	emit := func(ts int64) {
		var it item
		it.Result.Pair.R.TS, it.Result.Pair.S.TS = ts, ts-5
		r.onOutput(it)
	}
	for _, ts := range []int64{10, 20, 20, 30, 25, 40} {
		emit(ts)
	}
	if got := r.regress.Load(); got != 1 {
		t.Fatalf("counted %d Ordered regressions, want 1", got)
	}
}

// The sandwich must not be vacuous: with the boundary slack forced to 0
// the real engine's batch-granular windows fail it.
func TestSandwichFailsOnRealEngineWithoutSlack(t *testing.T) {
	w, err := findWorkload("ingest_batch")
	if err != nil {
		t.Fatal(err)
	}
	spec := *w
	spec.verifyN = 40000
	for _, c := range []struct {
		slack    int
		wantFail bool
	}{{0, true}, {spec.sandwichSlack(), false}} {
		r := newRunner(&spec, 7, t.TempDir())
		v, err := r.verify(c.slack)
		if err != nil {
			t.Fatal(err)
		}
		if v.expected == 0 {
			t.Fatalf("slack %d: nothing expected", c.slack)
		}
		if failed := v.failed() != 0; failed != c.wantFail {
			t.Errorf("slack %d: verdict %+v, want failure=%v", c.slack, v, c.wantFail)
		}
	}
}
