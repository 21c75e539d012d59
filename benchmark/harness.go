package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	hj "handshakejoin"
)

// sink is where OnOutput delivers while it is installed. OnOutput runs
// on the engine's collector goroutine (serialized by the engine), so
// everything it does here is O(1) and allocation-free except the
// verify-phase pair capture, which is never timed.
type sink struct {
	lat   *hist    // result latency from due time; nil = untimed phase
	pairs []pairID // non-nil: capture every emitted pair
}

// runner drives one workload through its phases on one pusher
// goroutine (the caller's).
type runner struct {
	w     *workloadSpec
	seed  uint64
	epoch time.Time
	pool  [2][]tup
	dir   string // scratch root for WAL directories
	tr    *tracer

	cur atomic.Pointer[sink]
	// lastTS and regress implement the Ordered check inside OnOutput;
	// lastTS is only touched there.
	lastTS  int64
	regress atomic.Uint64

	eng    joiner
	engDir string // the open engine's WAL directory, removed on close
	next   uint64 // sequence number of the next tuple of either stream
	bufR   []stamped
	bufS   []stamped
	pushed uint64 // tuples attempted (R+S) over all engines
	errs   uint64 // push errors
	dirSeq int
}

func newRunner(w *workloadSpec, seed uint64, dir string) *runner {
	r := &runner{w: w, seed: seed, epoch: time.Now(), dir: dir}
	r.bufR = make([]stamped, w.callerBatch)
	r.bufS = make([]stamped, w.callerBatch)
	r.cur.Store(&sink{})
	w.genPool(&r.pool, seed)
	return r
}

func (r *runner) now() int64 { return int64(time.Since(r.epoch)) }

func (r *runner) onOutput(it item) {
	s := r.cur.Load()
	if it.Punct {
		return
	}
	p := &it.Result.Pair
	if r.w.ordered {
		if ts := p.TS(); ts < r.lastTS {
			r.regress.Add(1)
		} else {
			r.lastTS = ts
		}
	}
	if r.tr != nil {
		r.tr.result(p.R.Seq, p.S.Seq)
	}
	if s.lat != nil {
		if due := max(p.R.Payload.Due, p.S.Payload.Due); due >= 0 {
			s.lat.record(r.now() - due)
		}
	}
	if s.pairs != nil {
		s.pairs = append(s.pairs, pairID{p.R.Seq, p.S.Seq})
	}
}

// open builds a fresh engine of the workload's shape and resets the
// per-engine push state. A durable engine logs under a new directory,
// r.engDir.
func (r *runner) open(durable bool, obs hj.ObsConfig) error {
	dir := ""
	if durable {
		r.dirSeq++
		dir = filepath.Join(r.dir, fmt.Sprintf("wal-%d", r.dirSeq))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	cfg := r.w.engineConfig(r.onOutput, dir)
	cfg.Obs = obs
	t0 := r.tr.begin()
	eng, err := hj.New(cfg)
	r.tr.end(spanNew, 0, t0)
	if err != nil {
		return fmt.Errorf("build engine: %w", err)
	}
	r.eng, r.engDir, r.next, r.lastTS = eng, dir, 0, 0
	return nil
}

func (r *runner) close() error {
	t0 := r.tr.begin()
	err := r.eng.Close()
	r.tr.end(spanClose, 0, t0)
	r.eng = nil
	if err == nil && r.engDir != "" {
		err = os.RemoveAll(r.engDir)
	}
	return err
}

// checkpoint flushes the partial lane batches and cuts a checkpoint.
// The Tick first: a checkpoint that finds a tuple in a partial batch can
// race the heartbeat's wall-clock flush of that batch; the tuple's
// results then land in the snapshotted sorter state as well as being
// re-derived from the snapshotted batch buffer on Restore, and come out
// twice (seen in one of three ordered_pertuple recoveries without the
// Tick, never with it).
func (r *runner) checkpoint() error {
	r.eng.Tick(int64(r.next-1) * r.w.period)
	t0 := r.tr.begin()
	err := r.eng.Checkpoint("")
	r.tr.end(spanCheckpoint, 0, t0)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

func (r *runner) fail(err error) {
	if err != nil {
		r.errs++
	}
}

// pushPair pushes tuple r.next of both streams per tuple.
func (r *runner) pushPair(due int64) {
	i := r.next
	tr, ts := r.pool[0][i%poolLen], r.pool[1][i%poolLen]
	tr.Due, ts.Due = due, due
	t := int64(i) * r.w.period
	if r.tr != nil && r.tr.sampled(i) {
		t0 := r.tr.begin()
		r.fail(r.eng.PushR(tr, t))
		r.tr.end(spanPushR, i, t0)
		t0 = r.tr.begin()
		r.fail(r.eng.PushS(ts, t))
		r.tr.end(spanPushS, i, t0)
	} else {
		r.fail(r.eng.PushR(tr, t))
		r.fail(r.eng.PushS(ts, t))
	}
	r.next++
	r.pushed += 2
}

// pushBatch pushes the next callerBatch tuples of both streams as one
// R batch and one S batch. due0 is the due time of the first tuple and
// step the spacing (due0 < 0: untimed).
func (r *runner) pushBatch(due0 int64, step float64) {
	n := r.w.callerBatch
	for k := 0; k < n; k++ {
		i := r.next + uint64(k)
		due := int64(-1)
		if due0 >= 0 {
			due = due0 + int64(float64(k)*step)
		}
		t := int64(i) * r.w.period
		r.bufR[k] = stamped{Payload: r.pool[0][i%poolLen], TS: t}
		r.bufS[k] = stamped{Payload: r.pool[1][i%poolLen], TS: t}
		r.bufR[k].Payload.Due, r.bufS[k].Payload.Due = due, due
	}
	req := r.next / uint64(n)
	t0 := r.tr.begin()
	r.fail(r.eng.PushRBatch(r.bufR))
	r.tr.end(spanPushRBatch, req, t0)
	t0 = r.tr.begin()
	r.fail(r.eng.PushSBatch(r.bufS))
	r.tr.end(spanPushSBatch, req, t0)
	r.next += uint64(n)
	r.pushed += uint64(2 * n)
}

// pushN pushes n untimed tuples per stream (rounded up to whole caller
// batches) as fast as admitted.
func (r *runner) pushN(n int) {
	if r.w.callerBatch > 1 {
		for done := 0; done < n; done += r.w.callerBatch {
			r.pushBatch(-1, 0)
		}
		return
	}
	for k := 0; k < n; k++ {
		r.pushPair(-1)
	}
}

// fill pushes enough tuples to fill both windows with margin.
func (r *runner) fill() { r.pushN(r.w.window + 4*r.w.blur) }

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// liveHeap returns the live heap after two collections: the second
// frees what the first only moved to sync.Pool victim caches or queued
// for finalizers.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowerMean is the mean of v without its largest quarter (two values
// of eight).
func lowerMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	s = s[:len(s)-len(s)/4]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// setupPasses is how many times a round runs phase 0. A pass takes
// 8–50 ms, a third of it goroutine start-up and first-touch page faults
// that vary pass to pass; setup_s is the median over every pass of every
// round.
const setupPasses = 3

// setupResult is what one round's phase 0 reports.
type setupResult struct {
	seconds  [setupPasses]float64
	winBytes float64 // live heap the built, filled engine holds per window tuple
}

// setup runs phase 0 setupPasses times: generate the pool, build the
// engine, fill both windows. The heap readings around the build are
// untimed. The last pass's engine is left open in r.eng; the earlier
// ones are closed.
func (r *runner) setup(obs hj.ObsConfig) (setupResult, error) {
	var res setupResult
	for pass := range res.seconds {
		t0 := time.Now()
		r.w.genPool(&r.pool, r.seed)
		gen := time.Since(t0)
		before := liveHeap()
		t1 := time.Now()
		if err := r.open(r.w.durable, obs); err != nil {
			return res, err
		}
		r.fill()
		res.seconds[pass] = (gen + time.Since(t1)).Seconds()
		if pass < setupPasses-1 {
			if err := r.close(); err != nil {
				return res, err
			}
			continue
		}
		if after := liveHeap(); after > before {
			res.winBytes = float64(after-before) / float64(2*r.w.window)
		}
	}
	return res, nil
}

// verify pushes the verified prefix through a fresh engine, closes it,
// and runs the sandwich over everything it emitted. slack is the
// boundary slack in tuples.
func (r *runner) verify(slack int) (verdict, error) {
	s := &sink{pairs: make([]pairID, 0, 1<<16)}
	r.cur.Store(s)
	if err := r.open(r.w.durable, hj.ObsConfig{}); err != nil {
		return verdict{}, err
	}
	r.pushN(r.w.verifyN)
	n := r.next
	eng := r.eng
	if err := r.close(); err != nil {
		return verdict{}, err
	}
	r.cur.Store(&sink{})
	st := eng.Stats()
	if st.RIn+st.SIn != 2*n || st.PendingExpiries != 0 {
		return verdict{}, fmt.Errorf("verify: engine admitted %d of %d tuples, %d pending expiries",
			st.RIn+st.SIn, 2*n, st.PendingExpiries)
	}
	return r.checker(slack).check(s.pairs, 0, n), nil
}

func (r *runner) checker(slack int) *checker {
	return &checker{
		pred: r.w.pred, keyed: r.w.keyed, window: r.w.window, slack: slack,
		at: func(side int, seq uint64) tup { return r.pool[side][seq%poolLen] },
	}
}

// windowStat is one measurement window of a timed phase.
type windowStat struct {
	tuples  uint64 // R+S pushed
	seconds float64
	cpuNs   int64
	lat     *hist // result latency from due (paced phases)
	late    *hist // generator lateness: push start - due
	block   *hist // time inside the push call(s) of one request
	// lateHead, lateMid and lateTail are the lateness over the first,
	// the middle and the last tenth of the window's requests.
	lateHead, lateMid, lateTail *hist
}

// saturate runs the closed loop for one window: pushes as fast as
// admitted. The in-flight volume at a window edge is bounded by
// Shards*MaxInFlight*Batch tuples, orders of magnitude below a
// window's count, so the drain is inside the measurement.
func (r *runner) saturate(window time.Duration) windowStat {
	r.cur.Store(&sink{})
	p0, c0, t0 := r.pushed, cpuNs(), r.now()
	end := t0 + int64(window)
	now := t0
	for now < end {
		if r.w.callerBatch > 1 {
			r.pushBatch(-1, 0)
		} else {
			for k := 0; k < 64; k++ {
				r.pushPair(-1)
			}
		}
		now = r.now()
	}
	return windowStat{
		tuples:  r.pushed - p0,
		seconds: float64(now-t0) / 1e9,
		cpuNs:   cpuNs() - c0,
	}
}

// pace runs the open loop at rate tuples/s/stream for one window.
// Tuple k is due at start + k/rate whatever the engine does; the pusher
// spins on the monotonic clock with Gosched (time.Sleep(50µs) returns
// after ~1.1 ms on the sizing box, which would put every pacing
// decision on a millisecond floor). A caller batch is pushed when its
// last tuple is due, as an upstream that accumulates batches would;
// every tuple still carries its own due time, so batch fill is part of
// the latency.
func (r *runner) pace(rate float64, window time.Duration) windowStat {
	step := 1e9 / rate
	n := r.w.callerBatch
	requests := int(rate * window.Seconds() / float64(n))
	s := &sink{lat: &hist{}}
	ws := windowStat{lat: s.lat, late: &hist{}, block: &hist{}, lateHead: &hist{}, lateMid: &hist{}, lateTail: &hist{}}
	r.cur.Store(s)
	p0, start := r.pushed, r.now()
	for req := 0; req < requests; req++ {
		first := start + int64(float64(req*n)*step)
		due := start + int64(float64(req*n+n-1)*step)
		now := r.now()
		for now < due {
			runtime.Gosched()
			now = r.now()
		}
		ws.late.record(now - due)
		switch tenth := requests / 10; {
		case req < tenth:
			ws.lateHead.record(now - due)
		case req >= requests/2-tenth/2 && req < requests/2+tenth/2:
			ws.lateMid.record(now - due)
		case req >= requests-tenth:
			ws.lateTail.record(now - due)
		}
		if n > 1 {
			r.pushBatch(first, step)
		} else {
			r.pushPair(due)
		}
		ws.block.record(r.now() - now)
	}
	ws.tuples = r.pushed - p0
	ws.seconds = float64(r.now()-start) / 1e9
	return ws
}

// unsustainable reports whether the generator fell behind for good in
// a paced window: its median lateness ends beyond the latency limit and
// kept growing — from the first tenth of the window to the middle one
// to the last. A backlog that only appears in the last tenth is a stall
// the window happened to end in, not a rate the engine cannot hold.
func (ws *windowStat) unsustainable() bool {
	head, _ := ws.lateHead.quantile(0.5)
	mid, _ := ws.lateMid.quantile(0.5)
	tail, _ := ws.lateTail.quantile(0.5)
	return tail > latencyLimitNs && mid > tail/4 && mid > head
}

func quantileMs(h *hist, q float64) float64 {
	v, _ := h.quantile(q)
	return v / 1e6
}

// recovery is the recovery phase: a durable engine of the workload's
// shape takes recoverN tuples per stream with one explicit checkpoint
// at the midpoint and is closed; fresh engines then restore from its
// directory — checkpoint load plus replay of the WAL tail — one after
// the other, and each replayed tail must pass the sandwich.
type recovery struct {
	checkpointMs float64
	restoreS     []float64
	tailTuples   uint64
	verdict      verdict
}

func (r *runner) recover(slack int) (recovery, error) {
	var rec recovery
	if err := r.open(true, hj.ObsConfig{}); err != nil {
		return rec, err
	}
	dir := r.engDir
	r.cur.Store(&sink{})
	r.pushN(r.w.recoverN / 2)
	mid := r.next
	start := time.Now()
	if err := r.checkpoint(); err != nil {
		return rec, err
	}
	rec.checkpointMs = float64(time.Since(start)) / 1e6
	r.pushN(r.w.recoverN / 2)
	n := r.next
	r.engDir = "" // the restoring engines below still need it
	if err := r.close(); err != nil {
		return rec, err
	}
	rec.tailTuples = 2 * (n - mid)

	for i := 0; i < r.w.restores; i++ {
		s := &sink{pairs: make([]pairID, 0, 1<<16)}
		r.cur.Store(s)
		eng, err := hj.New(r.w.engineConfig(r.onOutput, dir))
		if err != nil {
			return rec, fmt.Errorf("build engine: %w", err)
		}
		r.lastTS = 0
		t0 := r.tr.begin()
		start = time.Now()
		err = eng.Restore("")
		rec.restoreS = append(rec.restoreS, time.Since(start).Seconds())
		r.tr.end(spanRestore, 0, t0)
		if err != nil {
			return rec, fmt.Errorf("restore: %w", err)
		}
		if err := eng.Close(); err != nil {
			return rec, err
		}
		r.cur.Store(&sink{})
		if st := eng.Stats(); st.PendingExpiries != 0 {
			return rec, fmt.Errorf("restore: %d pending expiries", st.PendingExpiries)
		}
		// The restored run re-emits what the cut had not released; pairs
		// whose later tuple is in the tail are all required, checked
		// over the first verifyN of them.
		rec.verdict.add(r.checker(slack).check(s.pairs, mid, min(n, mid+uint64(r.w.verifyN))))
	}
	return rec, os.RemoveAll(dir)
}
