package main

import (
	"testing"
	"time"

	"handshakejoin/internal/stream"
)

// stallEngine is a Joiner whose pushes return at once, except one PushR
// that blocks for stall. Every S push emits the pair (R_i, S_i) straight
// into the harness's OnOutput.
type stallEngine struct {
	joiner // nil: the harness calls only the methods overridden here
	r      *runner
	at     uint64
	stall  time.Duration
	lastR  stream.Tuple[tup]
	seq    uint64
}

func (e *stallEngine) PushR(p tup, ts int64) error {
	if e.seq == e.at {
		time.Sleep(e.stall)
	}
	e.lastR = stream.Tuple[tup]{Seq: e.seq, TS: ts, Payload: p}
	return nil
}

func (e *stallEngine) PushS(p tup, ts int64) error {
	var it item
	it.Result.Pair.R = e.lastR
	it.Result.Pair.S = stream.Tuple[tup]{Seq: e.seq, TS: ts, Payload: p}
	e.seq++
	e.r.onOutput(it)
	return nil
}

// An engine that stalls for 50 ms delays every tuple that was scheduled
// during the stall, not only the one whose push blocked. Timing from
// the due time must show that; timing from the push instant (the
// coordinated-omission mistake) would show a single slow result.
func TestStallShowsInLatencyOfEveryTupleScheduledDuringIt(t *testing.T) {
	w, err := findWorkload("band_scan") // per-tuple pushes
	if err != nil {
		t.Fatal(err)
	}
	const (
		rate  = 20000.0
		stall = 50 * time.Millisecond
	)
	r := newRunner(w, 1, t.TempDir())
	r.eng = &stallEngine{r: r, at: 2000, stall: stall}
	ws := r.pace(rate, 400*time.Millisecond)

	scheduled := uint64(rate * stall.Seconds()) // tuples due while the engine was stalled
	// Their latencies fall linearly from the stall length to zero as the
	// generator catches up, so at least half of them waited 20 ms or
	// more, and nearly all of them at least 2 ms.
	if got := ws.lat.countAbove(int64(20 * time.Millisecond)); got < scheduled/2 {
		t.Errorf("%d results waited over 20 ms, want at least %d", got, scheduled/2)
	}
	if got := ws.lat.countAbove(int64(2 * time.Millisecond)); got < scheduled*9/10 {
		t.Errorf("%d results waited over 2 ms, want at least %d of the %d scheduled during the stall",
			got, scheduled*9/10, scheduled)
	}
	if late, _ := ws.late.quantile(1); late < float64(stall)*0.9 {
		t.Errorf("largest generator lateness %.1f ms, want about the %v stall", late/1e6, stall)
	}
	if p50, _ := ws.lat.quantile(0.5); p50 > 1e6 {
		t.Errorf("median latency %.3f ms: the stall should not reach the median", p50/1e6)
	}
	if ws.unsustainable() {
		t.Error("a 50 ms stall the generator recovers from was reported unsustainable")
	}
}

func lateness(head, mid, tail int64) *windowStat {
	ws := &windowStat{lateHead: &hist{}, lateMid: &hist{}, lateTail: &hist{}}
	ws.lateHead.record(head)
	ws.lateMid.record(mid)
	ws.lateTail.record(tail)
	return ws
}

func TestUnsustainableNeedsAGrowingBacklog(t *testing.T) {
	const ms = int64(time.Millisecond)
	for _, c := range []struct {
		name            string
		head, mid, tail int64
		want            bool
	}{
		{"on schedule", 0, 0, 0, false},
		{"backlog grows through the window", 2 * ms, 40 * ms, 80 * ms, true},
		{"stall the window ended in", 0, 0, 60 * ms, false},
		{"stall in the middle, recovered", 0, 60 * ms, 1 * ms, false},
		{"late but under the limit", 1 * ms, 8 * ms, 16 * ms, false},
	} {
		if got := lateness(c.head, c.mid, c.tail).unsustainable(); got != c.want {
			t.Errorf("%s: unsustainable = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLowerMeanDropsTheLargestQuarter(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{7, 5, 48, 8, 5, 12, 7, 1}, (1 + 5 + 5 + 7 + 7 + 8) / 6.0},
		{[]float64{3, 9}, 6},
		{[]float64{4}, 4},
		{nil, 0},
	} {
		if got := lowerMean(c.v); got != c.want {
			t.Errorf("lowerMean(%v) = %g, want %g", c.v, got, c.want)
		}
	}
}
