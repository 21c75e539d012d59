package handshakejoin

import (
	"fmt"
	"sync"
	"sync/atomic"

	"handshakejoin/internal/clock"
	"handshakejoin/internal/collect"
	"handshakejoin/internal/core"
	"handshakejoin/internal/hsj"
	"handshakejoin/internal/metrics"
	"handshakejoin/internal/obs"
	"handshakejoin/internal/order"
	"handshakejoin/internal/probe"
	"handshakejoin/internal/shard"
	"handshakejoin/internal/stream"
)

// Engine is a running single-pipeline stream join: Workers node
// goroutines, a collector goroutine, and a driver embodied by the
// PushR/PushS calls.
//
// Tuples of each stream must be pushed in non-decreasing timestamp
// order (the punctuation mechanism relies on monotonic streams). PushR,
// PushS, their batch variants, Tick and Close must be called from a
// single goroutine; the OnOutput callback runs on the collector
// goroutine. For a driver that accepts concurrent pushes, see
// ShardedEngine (Config.Shards).
type Engine[L, RT any] struct {
	lane *shard.Lane[L, RT]
	clk  clock.Clock

	// rSeq/sSeq are the per-side sequence counters: written only by the
	// pusher goroutine (plain load + atomic store), read lock-free by
	// mid-run snapshots. rLastAt/sLastAt mirror the pusher-private
	// rLastTS/sLastTS the same way.
	rSeq, sSeq       atomic.Uint64
	rLastTS          int64
	sLastTS          int64
	rLastAt, sLastAt atomic.Int64
	rWin, sWin       windowTracker

	// Batched-ingress scratch, reused across calls (the Engine is
	// single-goroutine by contract). expireR/expireS are bound once so
	// the hot path allocates no closures.
	rOne             [1]Stamped[L]
	sOne             [1]Stamped[RT]
	tss              []int64
	rTuples          []stream.Tuple[L]
	sTuples          []stream.Tuple[RT]
	rDurSc, rCntSc   []shard.ExpiryEntry
	sDurSc, sCntSc   []shard.ExpiryEntry
	expireR, expireS expireFn

	sorter *order.Sorter[L, RT]
	// sortMu guards the sorter against the collector goroutine when a
	// mid-run cut must read or replace it; the output path takes it
	// only when durability is configured, so the default engine keeps
	// its lock-free serving path.
	sortMu sync.Mutex
	closed bool

	punctuate bool // Config.Punctuate: the lane's collector emits punctuations

	// dur is the durability runtime (Config.Durability): the WAL
	// handle, the replay flag, and checkpoint bookkeeping.
	dur durState[L, RT]

	// guard enforces Config.MaxLiveTuples at admission; nil when
	// admission control is disabled.
	guard *overloadGuard

	// probeTab is the IndexAuto strategy table shared by the pipeline's
	// nodes; nil under a static Index.
	probeTab *probe.Table

	// Observability layer (Config.Obs); all nil/absent when disabled.
	ring    *obs.Ring
	obsSrv  *obs.Server
	outHist *metrics.AtomicHistogram
}

// windowTracker turns one stream's arrivals into expiry entries
// according to the window specification. Each arrival is attributed to
// the lane (shard) that received the tuple, so count-bound expiries
// can be routed back to the lane owning the overflowed tuple, and to
// its key-group, so the adaptive router can release the group's live
// count when the tuple leaves the window. The expire callback receives
// (lane, group, seq, due, counted); with both bounds active a tuple is
// scheduled once per bound and the lane's expiry queue deduplicates
// (earliest due wins).
//
// The in-window FIFO keeps its live entries at buf[head:]: pops
// advance head and appends compact the survivors back to the front
// when the backing fills, so the steady state recycles one backing
// array instead of sliding an append window rightward through ever new
// allocations.
type windowTracker struct {
	spec Window
	buf  []windowEntry // live in-window entries at buf[head:]
	head int
}

type windowEntry struct {
	seq   uint64
	lane  int
	group uint32
	// settled marks a tuple that entered its current lane by state
	// migration: its future count expiry must bypass the lane's
	// injection gate, whose high-water mark never covered the tuple.
	settled bool
}

func (w *windowTracker) size() int { return len(w.buf) - w.head }

func (w *windowTracker) push(e windowEntry) {
	if w.head > 0 && len(w.buf) == cap(w.buf) {
		n := copy(w.buf, w.buf[w.head:])
		w.buf = w.buf[:n]
		w.head = 0
	}
	w.buf = append(w.buf, e)
}

func (w *windowTracker) pop() windowEntry {
	e := w.buf[w.head]
	w.head++
	return e
}

// entries copies out the live in-window entries, oldest first — the
// checkpoint image of the tracker.
func (w *windowTracker) entries() []windowEntry {
	return append([]windowEntry(nil), w.buf[w.head:]...)
}

// restore replaces the tracker's live entries with a checkpoint image.
func (w *windowTracker) restore(es []windowEntry) {
	w.buf = es
	w.head = 0
}

// expireFn receives one scheduled expiry; see windowTracker.
type expireFn func(lane int, group uint32, seq uint64, due int64, counted, settled bool)

func (w *windowTracker) onArrival(seq uint64, ts int64, lane int, group uint32, expire expireFn) {
	if w.spec.Duration > 0 {
		expire(lane, group, seq, ts+int64(w.spec.Duration), false, false)
	}
	if c := w.spec.Count; c > 0 {
		w.push(windowEntry{seq: seq, lane: lane, group: group})
		for w.size() > c {
			e := w.pop()
			expire(e.lane, e.group, e.seq, ts, true, e.settled)
		}
	}
}

// onArrivalBulk records one caller batch of arrivals — sequence
// numbers seq0, seq0+1, ... with timestamps tss — in a single pass,
// emitting exactly the expire calls the equivalent per-tuple onArrival
// sequence would: each arrival's duration deadline, then the count
// overflows it causes, attributed with that arrival's timestamp. lanes
// and groups may be nil when every tuple belongs to lane 0, group 0
// (the single-pipeline engine).
func (w *windowTracker) onArrivalBulk(seq0 uint64, tss []int64, lanes []int, groups []uint32, expire expireFn) {
	entry := func(i int) windowEntry {
		e := windowEntry{seq: seq0 + uint64(i)}
		if lanes != nil {
			e.lane, e.group = lanes[i], groups[i]
		}
		return e
	}
	if w.spec.Duration > 0 {
		d := int64(w.spec.Duration)
		for i, ts := range tss {
			e := entry(i)
			expire(e.lane, e.group, e.seq, ts+d, false, false)
		}
	}
	if c := w.spec.Count; c > 0 {
		for i, ts := range tss {
			w.push(entry(i))
			for w.size() > c {
				e := w.pop()
				expire(e.lane, e.group, e.seq, ts, true, e.settled)
			}
		}
	}
}

// rebind re-attributes the in-window entries of the given sequence
// numbers to a new lane, so future count-bound expiries route to the
// shard that now owns the tuples — the window-accounting half of a
// state migration — and marks them settled (the tuples are in the new
// lane's windows, which its injection high-water mark cannot know).
// The group assignment is untouched: entries of already-dead tuples
// (expired on the old lane via the other bound) keep their old lane,
// where their dedupe bookkeeping lives.
func (w *windowTracker) rebind(seqs map[uint64]struct{}, lane int) {
	if len(seqs) == 0 {
		return
	}
	live := w.buf[w.head:]
	for i := range live {
		if _, ok := seqs[live[i].seq]; ok {
			live[i].lane = lane
			live[i].settled = true
		}
	}
}

// dualBound reports whether the window needs exactly-once expiry
// deduplication (both bounds schedule every tuple).
func (w Window) dualBound() bool { return w.Duration > 0 && w.Count > 0 }

// probeClass maps the public predicate declaration onto the strategy
// table's class enum.
func probeClass(c PredicateClass) probe.Class {
	switch c {
	case PredEqui:
		return probe.ClassEqui
	case PredBand:
		return probe.ClassBand
	case PredLE:
		return probe.ClassLE
	case PredGE:
		return probe.ClassGE
	default:
		return probe.ClassOpaque
	}
}

// builderFor translates the public configuration into the node logic
// builder of the selected algorithm. trace, when non-nil, receives the
// window stores' rare-path events (LLHJ only; the reference HSJ
// pipeline has no instrumented store). pt, when non-nil, is the
// IndexAuto strategy table the pipeline's nodes dispatch through — the
// static Index kind is then ignored entirely (IndexAuto must never be
// cast into core.IndexKind).
func builderFor[L, RT any](cfg *Config[L, RT], trace func(kind string, a, b int64), pt *probe.Table) (core.Builder[L, RT], error) {
	switch cfg.Algorithm {
	case LLHJ:
		ccfg := &core.Config[L, RT]{
			Nodes: cfg.Workers,
			Pred:  cfg.Predicate,
			Index: core.IndexKind(cfg.Index),
			KeyR:  cfg.KeyR,
			KeyS:  cfg.KeyS,
			Band:  cfg.Band,
			Trace: trace,
		}
		if pt != nil {
			ccfg.Index = core.IndexNone
			ccfg.Probe = pt
		}
		return func(k int) core.NodeLogic[L, RT] { return core.NewNode(ccfg, k) }, nil
	case HSJ:
		hcfg := &hsj.Config[L, RT]{
			Nodes: cfg.Workers,
			Pred:  cfg.Predicate,
			CapR:  windowCapacity(cfg.WindowR, cfg.ExpectedRate),
			CapS:  windowCapacity(cfg.WindowS, cfg.ExpectedRate),
		}
		return func(k int) core.NodeLogic[L, RT] { return hsj.NewNode(hcfg, k) }, nil
	default:
		return nil, fmt.Errorf("handshakejoin: unknown algorithm %v", cfg.Algorithm)
	}
}

// laneConfig translates the public configuration into the per-lane
// driver configuration.
func laneConfig[L, RT any](cfg *Config[L, RT], clk clock.Clock, punctuate bool) shard.LaneConfig {
	return shard.LaneConfig{
		Workers:       cfg.Workers,
		Batch:         cfg.Batch,
		MaxInFlight:   cfg.MaxInFlight,
		CollectPeriod: cfg.CollectPeriod,
		Punctuate:     punctuate,
		Clock:         clk,
		DedupeR:       cfg.WindowR.dualBound(),
		DedupeS:       cfg.WindowS.dualBound(),
		// The LLHJ node forwards arrival batches unmodified and keeps
		// tuples by value, so flushed backings can be pooled; the
		// original handshake join re-batches window overflow.
		Recycle: cfg.Algorithm == LLHJ,
	}
}

// sortedOutput wraps the user callback with the downstream sorting
// operator of §6.2: results are buffered and released in timestamp
// order on punctuations, and punctuations are forwarded after their
// release so downstream consumers keep the ordering guarantee. It
// returns the wrapped callback and the sorter (for Flush and stats).
func sortedOutput[L, RT any](final func(Item[L, RT])) (func(Item[L, RT]), *order.Sorter[L, RT]) {
	sorter := order.NewSorter(func(r Result[L, RT]) {
		final(Item[L, RT]{Result: r})
	})
	return func(it Item[L, RT]) {
		sorter.Push(it)
		if it.Punct {
			final(it)
		}
	}, sorter
}

// newEngine builds and starts a single-pipeline Engine from a
// validated configuration.
func newEngine[L, RT any](cfg Config[L, RT]) (*Engine[L, RT], error) {
	e := &Engine[L, RT]{
		clk:     clock.NewWall(),
		rLastTS: minTS,
		sLastTS: minTS,
		rWin:    windowTracker{spec: cfg.WindowR},
		sWin:    windowTracker{spec: cfg.WindowS},

		punctuate: cfg.Punctuate,
	}
	e.rLastAt.Store(minTS)
	e.sLastAt.Store(minTS)
	if cfg.Obs.enabled() {
		e.ring = obs.NewRing(cfg.Obs.ringSize())
		e.outHist = &metrics.AtomicHistogram{}
	}
	if err := e.dur.init(&cfg); err != nil {
		return nil, err
	}
	e.dur.ring = e.ring
	var trace func(kind string, a, b int64)
	if e.ring != nil {
		trace = func(kind string, a, b int64) { e.ring.Emit(kind, 0, -1, a, b) }
	}
	if cfg.Index == IndexAuto {
		pcfg := probe.Config{
			Groups: 64,
			Class:  probeClass(cfg.Class),
			Band:   cfg.Band,
			Lanes:  1,
			Nodes:  cfg.Workers,
		}
		if e.ring != nil {
			ring := e.ring
			pcfg.OnSwitch = func(g uint32, from, to probe.Strategy) {
				ring.Emit("strategy_switch", -1, int64(g), int64(from), int64(to))
			}
		}
		e.probeTab = probe.NewTable(pcfg)
	}
	build, err := builderFor(&cfg, trace, e.probeTab)
	if err != nil {
		return nil, err
	}
	e.expireR = func(_ int, _ uint32, seq uint64, due int64, counted, settled bool) {
		if counted {
			e.rCntSc = append(e.rCntSc, shard.ExpiryEntry{Seq: seq, Due: due, Settled: settled})
		} else {
			e.rDurSc = append(e.rDurSc, shard.ExpiryEntry{Seq: seq, Due: due, Settled: settled})
		}
	}
	e.expireS = func(_ int, _ uint32, seq uint64, due int64, counted, settled bool) {
		if counted {
			e.sCntSc = append(e.sCntSc, shard.ExpiryEntry{Seq: seq, Due: due, Settled: settled})
		} else {
			e.sDurSc = append(e.sDurSc, shard.ExpiryEntry{Seq: seq, Due: due, Settled: settled})
		}
	}
	out := cfg.OnOutput
	if cfg.Ordered {
		out, e.sorter = sortedOutput(cfg.OnOutput)
		if cfg.Durability.enabled() || cfg.Durability.DecodeR != nil {
			// A checkpoint (or restore) reads the sorter mid-run from
			// the driver goroutine while the collector feeds it, so the
			// two must serialize.
			inner := out
			out = func(it Item[L, RT]) {
				e.sortMu.Lock()
				defer e.sortMu.Unlock()
				inner(it)
			}
		}
	}
	if e.outHist != nil {
		out = wrapLatency(e.outHist, e.clk.Now, out)
	}
	e.lane = shard.NewLane(laneConfig(&cfg, e.clk, cfg.Punctuate), build,
		func(it collect.Item[L, RT]) { out(it) })
	if cfg.MaxLiveTuples > 0 {
		e.guard = newOverloadGuard(cfg.MaxLiveTuples, func() int64 {
			// Batch buffer before window gauges: a tuple flushed
			// between the two reads is seen by the gauge walk, never
			// dropped from both. Tuples in flight between flush and
			// node processing are the guard's documented slack.
			buffered := e.lane.Buffered()
			agg := e.lane.PipelineStats()
			return buffered + int64(agg.LiveWR) + int64(agg.LiveWS)
		})
	}
	if cfg.Obs.Addr != "" {
		srv, err := obs.Serve(cfg.Obs.Addr, func() obs.Dump {
			return gatherDump(e.StatsSnapshot(), e.outHist, e.ring)
		}, e.ring)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("handshakejoin: observability endpoint: %w", err)
		}
		e.obsSrv = srv
	}
	return e, nil
}

// windowCapacity converts a window spec to a tuple capacity for the
// original handshake join's segmented pipeline.
func windowCapacity(w Window, rate float64) int {
	cap := w.Count
	if w.Duration > 0 {
		byRate := int(float64(w.Duration) / 1e9 * rate)
		if cap == 0 || byRate < cap {
			cap = byRate
		}
	}
	if cap < 1 {
		cap = 1
	}
	return cap
}

// PushR submits an R tuple with the given timestamp (nanoseconds, any
// monotonic origin). Timestamps must be non-decreasing per stream. It
// is a batch-of-one PushRBatch.
func (e *Engine[L, RT]) PushR(payload L, ts int64) error {
	e.rOne[0] = Stamped[L]{Payload: payload, TS: ts}
	return e.PushRBatch(e.rOne[:])
}

// PushS submits an S tuple with the given timestamp.
func (e *Engine[L, RT]) PushS(payload RT, ts int64) error {
	e.sOne[0] = Stamped[RT]{Payload: payload, TS: ts}
	return e.PushSBatch(e.sOne[:])
}

// PushRBatch submits a batch of R tuples in non-decreasing timestamp
// order under one driver admission: the whole batch is validated
// first (a regression anywhere rejects it before any state changes),
// window accounting runs in one pass, the expiry schedule enters the
// lane queue in one bulk push, and the tuples append to the lane
// buffer in one bulk hand-off flushing at every Batch boundary — the
// exact per-tuple schedule, amortized. Results (and the Ordered-mode
// sequence) are identical to pushing the elements one by one; all
// tuples of a batch share one admission wall-clock stamp for latency
// accounting.
func (e *Engine[L, RT]) PushRBatch(batch []Stamped[L]) error {
	if e.closed {
		return fmt.Errorf("handshakejoin: engine closed")
	}
	if len(batch) == 0 {
		return nil
	}
	last := e.rLastTS
	for i := range batch {
		if batch[i].TS < last {
			return fmt.Errorf("handshakejoin: R timestamp regressed: %d after %d", batch[i].TS, last)
		}
		last = batch[i].TS
	}
	// Admission control runs before the WAL append: a rejected batch
	// was never logged, so replay cannot resurrect it. Replay itself
	// bypasses the check — its records were already acknowledged.
	if err := e.guard.admit(len(batch), e.dur.replaying.Load()); err != nil {
		return err
	}
	if e.dur.active() {
		// Log before any state changes: a record is durable (or at
		// least written) before its effects exist, so replay never
		// needs to undo anything.
		if err := e.dur.appendR(batch); err != nil {
			return err
		}
	}
	now := e.clk.Now()
	seq0 := e.rSeq.Load()
	e.tss = e.tss[:0]
	e.rTuples = e.rTuples[:0]
	for i := range batch {
		e.tss = append(e.tss, batch[i].TS)
		e.rTuples = append(e.rTuples, stream.Tuple[L]{Seq: seq0 + uint64(i), TS: batch[i].TS, Wall: now, Home: stream.NoHome, Payload: batch[i].Payload})
	}
	e.rSeq.Store(seq0 + uint64(len(batch)))
	e.rLastTS = last
	e.rLastAt.Store(last)
	e.rWin.onArrivalBulk(seq0, e.tss, nil, nil, e.expireR)
	e.lane.QueueExpiryBulk(stream.R, e.rDurSc, e.rCntSc)
	e.rDurSc, e.rCntSc = e.rDurSc[:0], e.rCntSc[:0]
	e.lane.PushRBulk(e.rTuples)
	return e.dur.maybeAutoCheckpoint(e.Checkpoint)
}

// PushSBatch submits a batch of S tuples; see PushRBatch.
func (e *Engine[L, RT]) PushSBatch(batch []Stamped[RT]) error {
	if e.closed {
		return fmt.Errorf("handshakejoin: engine closed")
	}
	if len(batch) == 0 {
		return nil
	}
	last := e.sLastTS
	for i := range batch {
		if batch[i].TS < last {
			return fmt.Errorf("handshakejoin: S timestamp regressed: %d after %d", batch[i].TS, last)
		}
		last = batch[i].TS
	}
	// Admission control before the WAL append; see PushRBatch.
	if err := e.guard.admit(len(batch), e.dur.replaying.Load()); err != nil {
		return err
	}
	if e.dur.active() {
		if err := e.dur.appendS(batch); err != nil {
			return err
		}
	}
	now := e.clk.Now()
	seq0 := e.sSeq.Load()
	e.tss = e.tss[:0]
	e.sTuples = e.sTuples[:0]
	for i := range batch {
		e.tss = append(e.tss, batch[i].TS)
		e.sTuples = append(e.sTuples, stream.Tuple[RT]{Seq: seq0 + uint64(i), TS: batch[i].TS, Wall: now, Home: stream.NoHome, Payload: batch[i].Payload})
	}
	e.sSeq.Store(seq0 + uint64(len(batch)))
	e.sLastTS = last
	e.sLastAt.Store(last)
	e.sWin.onArrivalBulk(seq0, e.tss, nil, nil, e.expireS)
	e.lane.QueueExpiryBulk(stream.S, e.sDurSc, e.sCntSc)
	e.sDurSc, e.sCntSc = e.sDurSc[:0], e.sCntSc[:0]
	e.lane.PushSBulk(e.sTuples)
	return e.dur.maybeAutoCheckpoint(e.Checkpoint)
}

// Tick advances stream time to ts without submitting a tuple: partial
// batches are flushed, the pipeline is allowed to settle, and expiries
// due by ts are injected. Use it on idle streams so windows keep
// sliding. Because Tick waits for in-flight messages to drain before
// expiring, its window boundaries are exact even when stream time
// advances much faster than real time (batch flushes on the hot path
// do not wait; their boundaries are exact in the paper's operating
// regime, windows far larger than the in-flight volume).
func (e *Engine[L, RT]) Tick(ts int64) {
	if e.closed {
		return
	}
	if e.dur.active() {
		// A tick moves windows, so replay must see it at the same
		// stream position. Tick cannot report errors; a failed append
		// surfaces on the next push or checkpoint.
		e.dur.appendTick(ts) //nolint:errcheck
	}
	e.lane.Tick(ts)
}

// Close flushes buffered batches, waits for the pipeline to quiesce,
// stops all goroutines and releases remaining ordered output. The
// engine cannot be reused afterwards.
func (e *Engine[L, RT]) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	e.lane.Close()
	if e.sorter != nil {
		e.sorter.Flush()
	}
	if e.obsSrv != nil {
		e.obsSrv.Close()
	}
	e.dur.closeLog()
	return nil
}

// Checkpoint implements Joiner.Checkpoint: it captures a consistent
// cut — lane window state, expiry queues, partial batch buffers, the
// window-accounting trackers, and the ordered-output buffer — writes it
// under <dir>/checkpoint, and truncates WAL segments the cut covers.
// Like every driver call on the single-pipeline engine it must run on
// the driver goroutine; the pipeline quiesces for the capture but the
// file writes happen after the cut, off the ingress path.
func (e *Engine[L, RT]) Checkpoint(dir string) error {
	if e.dur.log == nil {
		return fmt.Errorf("handshakejoin: Checkpoint requires Config.Durability.WALDir")
	}
	if e.closed {
		return fmt.Errorf("handshakejoin: engine closed")
	}
	root := dir
	if root == "" {
		root = e.dur.cfg.WALDir
	}
	e.dur.ckptMu.Lock()
	defer e.dur.ckptMu.Unlock()
	start := e.clk.Now()
	e.ring.Emit("checkpoint_begin", -1, -1, int64(e.dur.log.Next()), 0)
	ls, err := e.lane.SnapshotState()
	if err != nil {
		return err
	}
	// Drain the result queues through the normal output path so every
	// result produced before the cut is either already delivered or
	// sitting in the sorter about to be snapshotted.
	e.lane.CollectOnce()
	snap := engineSnap[L, RT]{
		rSeq:      e.rSeq.Load(),
		sSeq:      e.sSeq.Load(),
		rLastTS:   e.rLastTS,
		sLastTS:   e.sLastTS,
		rWin:      e.rWin.entries(),
		sWin:      e.sWin.entries(),
		lastPunct: -1,
		lanes:     []*shard.LaneState[L, RT]{ls},
	}
	e.sortMu.Lock()
	if e.sorter != nil {
		snap.ordered = true
		snap.sorter = e.sorter.Snapshot()
		snap.lastPunct = snap.sorter.LastPunct
	}
	walFrom := e.dur.log.Next()
	e.sortMu.Unlock()
	// A checkpoint against a failed or shed WAL re-arms logging under
	// root: the cut just captured covers everything admitted so far,
	// and — this being the driver goroutine — no push can slip in
	// between the re-arm and the manifest commit, so every later
	// record lands in the new log at or after walFrom.
	rearmed := false
	if e.dur.walFailed() {
		if err := e.dur.rearm(root); err != nil {
			return err
		}
		rearmed = true
		walFrom = e.dur.log.Next()
	}
	stateBytes, err := e.dur.writeCheckpoint(root, walFrom, &snap)
	if err != nil {
		if rearmed {
			// The re-armed log has no committed checkpoint beneath it;
			// logging to it would acknowledge unrecoverable records.
			e.dur.disarm(err)
		}
		return err
	}
	if root == e.dur.cfg.WALDir {
		if _, err := e.dur.log.TruncateThrough(walFrom); err != nil {
			return err
		}
	}
	durNs := e.clk.Now() - start
	e.dur.lastCkptNs.Store(durNs)
	e.dur.checkpoints.Add(1)
	e.ring.Emit("checkpoint_complete", -1, -1, durNs, int64(stateBytes))
	return nil
}

// Restore implements Joiner.Restore: it loads the checkpoint under dir
// (dir "" selects Config.Durability.WALDir) into this freshly built
// engine and replays the WAL tail through the ordinary push paths.
func (e *Engine[L, RT]) Restore(dir string) error {
	if e.closed {
		return fmt.Errorf("handshakejoin: engine closed")
	}
	if e.dur.cfg.DecodeR == nil || e.dur.cfg.DecodeS == nil {
		return fmt.Errorf("handshakejoin: Restore requires the Durability payload codecs")
	}
	if dir == "" {
		dir = e.dur.cfg.WALDir
	}
	if dir == "" {
		return fmt.Errorf("handshakejoin: Restore requires a directory (or Config.Durability.WALDir)")
	}
	if e.rSeq.Load() != 0 || e.sSeq.Load() != 0 || e.rLastTS != minTS || e.sLastTS != minTS {
		return fmt.Errorf("handshakejoin: Restore requires a fresh engine")
	}
	man, snap, err := e.dur.readCheckpoint(dir)
	if err != nil {
		return err
	}
	e.rSeq.Store(snap.rSeq)
	e.sSeq.Store(snap.sSeq)
	e.rLastTS, e.sLastTS = snap.rLastTS, snap.sLastTS
	e.rLastAt.Store(snap.rLastTS)
	e.sLastAt.Store(snap.sLastTS)
	e.rWin.restore(snap.rWin)
	e.sWin.restore(snap.sWin)
	if e.sorter != nil && snap.ordered {
		e.sortMu.Lock()
		e.sorter.Restore(snap.sorter)
		e.sortMu.Unlock()
	}
	e.lane.RestoreState(snap.lanes[0])
	e.dur.replaying.Store(true)
	defer e.dur.replaying.Store(false)
	start := e.clk.Now()
	n, err := e.dur.replayWAL(dir, man.WALFrom, e.PushRBatch, e.PushSBatch, e.Tick)
	if err != nil {
		return fmt.Errorf("handshakejoin: wal replay after %d records: %w", n, err)
	}
	if e.guard != nil {
		// Seed the admission bound from the restored footprint: the
		// checkpoint's tuples entered the windows without passing the
		// guard's accounting. Replayed arrivals may still be in flight
		// in the pipeline, where the window gauges cannot see them, so
		// quiesce first — otherwise the sampled base undercounts by up
		// to the whole replay volume and the guard admits past the cap.
		e.lane.Quiesce()
		e.guard.resample()
	}
	e.ring.Emit("restore_replay", -1, -1, int64(n), e.clk.Now()-start)
	return nil
}

// Health implements Joiner.Health. The single-pipeline engine has no
// punctuation-floor watchdog (its one pipeline cannot stall behind
// another), so FloorStalled is always false.
func (e *Engine[L, RT]) Health() Health {
	return Health{
		WALFailed:  e.dur.walFailed(),
		Overloaded: e.guard.overloaded(),
	}
}

// Stats returns run counters. Safe to call mid-run from any goroutine:
// every counter is an atomic, so the read is race-free; cumulative
// totals lag in-flight batches at most, and are exact once the engine
// is closed.
func (e *Engine[L, RT]) Stats() Stats {
	agg := e.lane.PipelineStats()
	st := Stats{
		RIn:              e.rSeq.Load(),
		SIn:              e.sSeq.Load(),
		Results:          e.lane.Collected(),
		Punctuations:     e.lane.Punctuations(),
		Comparisons:      agg.Comparisons,
		ProbeScan:        agg.ProbeScan,
		ProbeHash:        agg.ProbeHash,
		ProbeBTree:       agg.ProbeBTree,
		PendingExpiries:  agg.PendingExpiries,
		StoreSpills:      agg.StoreSpills,
		StoreReanchors:   agg.StoreReanchors,
		StoreCompactions: agg.StoreCompactions,
		StoreParks:       agg.StoreParks,
		StoreOverflow:    agg.StoreOverflow,
		WALRetries:       e.dur.walRetries.Load(),
		WALSheds:         e.dur.sheds.Load(),
		AdmissionRejects: e.guard.rejected(),
		InjectParks:      e.lane.InjectParks(),
	}
	if e.sorter != nil {
		st.MaxSortBuffer = e.sorter.MaxBuffer()
	}
	if e.probeTab != nil {
		st.StrategySwitches = e.probeTab.Switches()
	}
	return st
}

// StatsSnapshot returns a race-safe mid-run view; see
// ShardedEngine.StatsSnapshot. The single-pipeline engine reports one
// shard (index 0), and its punctuation-floor proxy is the smaller of
// the two stream high-water marks.
func (e *Engine[L, RT]) StatsSnapshot() Snapshot {
	agg := e.lane.PipelineStats()
	snap := Snapshot{
		Stats:       e.Stats(),
		FloorLagNs:  -1,
		FloorHolder: -1,
		LiveWindowR: []int64{int64(agg.LiveWR)},
		LiveWindowS: []int64{int64(agg.LiveWS)},
		ExpiryDepth: []int64{int64(e.lane.ExpiryDepth())},

		CollectorPasses:  []uint64{e.lane.CollectorPasses()},
		CollectorWakeups: []uint64{e.lane.CollectorWakeups()},
	}
	if e.punctuate {
		snap.FloorHolder = 0
	}
	newest := e.rLastAt.Load()
	if s := e.sLastAt.Load(); s > newest {
		newest = s
	}
	if newest != minTS {
		snap.FloorLagNs = newest - e.lane.HWMFloor()
	}
	if e.ring != nil {
		snap.NextEventSeq = e.ring.Next()
	}
	if log := e.dur.logHandle(); log != nil {
		snap.WALBytes = log.Bytes()
		snap.Checkpoints = e.dur.checkpoints.Load()
		snap.LastCheckpointNs = e.dur.lastCkptNs.Load()
	}
	snap.Health = e.Health()
	return snap
}

// Events drains the control-plane trace events with sequence >= since,
// oldest first; see ShardedEngine.Events. Nil when tracing is disabled.
func (e *Engine[L, RT]) Events(since uint64) []TraceEvent {
	if e.ring == nil {
		return nil
	}
	return e.ring.Drain(since)
}

// ObsAddr returns the bound address of the observability endpoint, or
// "" when the server is disabled.
func (e *Engine[L, RT]) ObsAddr() string {
	if e.obsSrv == nil {
		return ""
	}
	return e.obsSrv.Addr()
}
