package shard

import (
	"errors"
	"sort"
	"sync"
	"time"

	"handshakejoin/internal/clock"
	"handshakejoin/internal/collect"
	"handshakejoin/internal/core"
	"handshakejoin/internal/pipeline"
	"handshakejoin/internal/stream"
)

// ErrMigrationBudget is returned by Extract when the group's live
// state exceeds the caller's tuple budget; nothing has been modified.
var ErrMigrationBudget = errors.New("shard: group state exceeds migration budget")

// ErrNoExtractor is returned by Extract when the lane's node logic
// does not support state extraction (the original handshake join).
var ErrNoExtractor = errors.New("shard: node logic does not support state extraction")

// LaneConfig parameterizes a Lane. All fields are required (the engine
// layer applies defaults before construction).
type LaneConfig struct {
	// Workers is the pipeline length of this lane.
	Workers int
	// Batch is the driver batch size.
	Batch int
	// MaxInFlight bounds the messages in flight inside this lane's
	// pipeline.
	MaxInFlight int
	// CollectPeriod is unused by the lane: its collector sleeps on the
	// pipeline's output doorbell, not on a period. The field stays for
	// source compatibility with callers that still set one.
	CollectPeriod time.Duration
	// Punctuate enables punctuation generation on this lane's collector.
	Punctuate bool
	// Clock stamps results; sharded engines share one clock across
	// lanes so latencies are comparable.
	Clock clock.Clock
	// DedupeR / DedupeS enable exactly-once expiry per tuple on the
	// respective side (needed when that window combines Duration and
	// Count bounds).
	DedupeR, DedupeS bool
	// Recycle enables arrival-slice pooling: the backing slice of every
	// flushed batch and probe-only slice returns to a per-lane free
	// list once all Workers nodes have handled the message, so the
	// flush path stops allocating a fresh backing per batch. Only valid
	// for node logic that forwards arrival messages unmodified and
	// retains tuples by value (the LLHJ node); the original handshake
	// join re-batches window overflow into new messages, so its lanes
	// must leave this off.
	Recycle bool
}

// poolCap bounds each free list so a burst cannot pin unbounded
// backing memory; beyond it, slices fall back to the garbage
// collector.
const poolCap = 32

// pool is a small mutex-guarded free list. The pipeline recycler puts
// from node goroutines while the driver gets under the lane mutex, so
// it must be its own lock.
type pool[T any] struct {
	mu    sync.Mutex
	items []T
}

func (p *pool[T]) get() (x T, ok bool) {
	p.mu.Lock()
	if n := len(p.items); n > 0 {
		x, ok = p.items[n-1], true
		var zero T
		p.items[n-1] = zero
		p.items = p.items[:n-1]
	}
	p.mu.Unlock()
	return x, ok
}

func (p *pool[T]) put(x T) {
	p.mu.Lock()
	if len(p.items) < poolCap {
		p.items = append(p.items, x)
	}
	p.mu.Unlock()
}

// Lane is one shard of a sharded engine — or the single pipeline of an
// unsharded one: the per-pipeline driver state (batch buffers and
// expiry queues), one live pipeline, and its collector goroutine. The
// collector is event-driven: it runs a pass when a node has queued
// results or (with Punctuate) a high-water mark has moved, and sleeps
// on the pipeline's output doorbell otherwise.
//
// All driver entry points are serialized by an internal mutex, so a
// Lane may be fed concurrently from both stream sides; the fan-out
// engine above it only has to route tuples and expiries to the right
// lane. Expiry scheduling takes a separate, finer lock: QueueExpiry is
// called by the engine while it holds a stream-side lock, and must not
// wait behind a flush that is blocked on pipeline back-pressure (which
// holds the main mutex), or one saturated lane would stall every
// pusher.
type Lane[L, R any] struct {
	cfg  LaneConfig
	lv   *pipeline.Live[L, R]
	coll *collect.Collector[L, R]
	wg   sync.WaitGroup

	mu     sync.Mutex // batches, inj marks, flushes, tick/heartbeat
	rBatch []stream.Tuple[L]
	sBatch []stream.Tuple[R]
	rInj   uint64 // exclusive seq high-water mark of injected arrivals
	sInj   uint64

	expMu      sync.Mutex // expiry queues only; never held across Inject
	rExp, sExp *ExpiryQueue

	// Arrival-slice recycling (cfg.Recycle): flushed batch and probe
	// slices come from these free lists and return through recycleFn
	// once every node has handled the message (core.Free).
	rBufs     pool[[]stream.Tuple[L]]
	sBufs     pool[[]stream.Tuple[R]]
	seqBufs   pool[[]uint64]
	frees     pool[*core.Free[L, R]]
	recycleFn func(core.Msg[L, R])
}

// NewLane builds a lane and starts its pipeline and collector
// goroutines. Output items are delivered to out from the lane's
// collector goroutine.
func NewLane[L, R any](cfg LaneConfig, build core.Builder[L, R], out func(collect.Item[L, R])) *Lane[L, R] {
	l := &Lane[L, R]{
		cfg:  cfg,
		rExp: NewExpiryQueue(cfg.DedupeR),
		sExp: NewExpiryQueue(cfg.DedupeS),
	}
	l.recycleFn = l.recycle
	l.lv = pipeline.NewLive(cfg.Workers, build, cfg.Clock, pipeline.LiveConfig{DepthCap: cfg.MaxInFlight, Punctuate: cfg.Punctuate})
	l.coll = collect.New(l.lv.ResultQueues(), func() (int64, int64) {
		return l.lv.HWMR(), l.lv.HWMS()
	}, out, collect.Config{Punctuate: cfg.Punctuate})
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.coll.Run(l.lv.WaitOutput)
	}()
	return l
}

// takeRBuf returns an empty R-side batch backing, pooled when
// recycling is on.
func (l *Lane[L, R]) takeRBuf() []stream.Tuple[L] {
	if b, ok := l.rBufs.get(); ok {
		return b
	}
	return make([]stream.Tuple[L], 0, l.cfg.Batch)
}

func (l *Lane[L, R]) takeSBuf() []stream.Tuple[R] {
	if b, ok := l.sBufs.get(); ok {
		return b
	}
	return make([]stream.Tuple[R], 0, l.cfg.Batch)
}

// newFree arms a recycling token for one arrival message: every one of
// the Workers nodes handles (and forwards) an arrival exactly once, so
// the slice is free after the Workers-th handler returns.
func (l *Lane[L, R]) newFree() *core.Free[L, R] { return l.newFreeRefs(int32(l.cfg.Workers)) }

// newFreeExpiry arms a token for an expiry message, which only its
// entry node handles — every node it does not home forwards the
// remainder as a fresh message, so the injected backing is free after
// one handler.
func (l *Lane[L, R]) newFreeExpiry() *core.Free[L, R] { return l.newFreeRefs(1) }

func (l *Lane[L, R]) newFreeRefs(refs int32) *core.Free[L, R] {
	if !l.cfg.Recycle {
		return nil
	}
	f, ok := l.frees.get()
	if !ok {
		f = &core.Free[L, R]{Put: l.recycleFn}
	}
	f.Refs.Store(refs)
	return f
}

// recycle receives a fully handled message from the pipeline runtime
// (on a node goroutine) and returns its backing slice and token to the
// lane's free lists.
func (l *Lane[L, R]) recycle(m core.Msg[L, R]) {
	switch {
	case m.Kind == core.KindExpiry:
		if m.Seqs != nil {
			l.seqBufs.put(m.Seqs[:0])
		}
	case m.Side == stream.R:
		if m.R != nil {
			l.rBufs.put(m.R[:0])
		}
	default:
		if m.S != nil {
			l.sBufs.put(m.S[:0])
		}
	}
	l.frees.put(m.Free)
}

// PushR submits one R tuple; a full batch is flushed into the
// pipeline.
func (l *Lane[L, R]) PushR(t stream.Tuple[L]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rBatch == nil {
		l.rBatch = l.takeRBuf()
	}
	l.rBatch = append(l.rBatch, t)
	if len(l.rBatch) >= l.cfg.Batch {
		l.flushR()
	}
}

// PushS submits one S tuple.
func (l *Lane[L, R]) PushS(t stream.Tuple[R]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sBatch == nil {
		l.sBatch = l.takeSBuf()
	}
	l.sBatch = append(l.sBatch, t)
	if len(l.sBatch) >= l.cfg.Batch {
		l.flushS()
	}
}

// PushRBulk submits a batch of R tuples in sequence order under one
// mutex acquisition, flushing at every Batch boundary — the exact
// flush schedule of the equivalent PushR sequence (flushing is
// triggered by buffer length alone, so bulk and per-tuple appends
// inject identical batches at identical stream points).
func (l *Lane[L, R]) PushRBulk(batch []stream.Tuple[L]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendR(batch)
}

// PushSBulk submits a batch of S tuples; see PushRBulk.
func (l *Lane[L, R]) PushSBulk(batch []stream.Tuple[R]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendS(batch)
}

// appendR buffers a bulk of R tuples, flushing whenever the batch
// fills. Callers hold l.mu. The input is copied; callers may reuse it.
func (l *Lane[L, R]) appendR(batch []stream.Tuple[L]) {
	for len(batch) > 0 {
		space := l.cfg.Batch - len(l.rBatch)
		if space <= 0 {
			l.flushR()
			continue
		}
		if space > len(batch) {
			space = len(batch)
		}
		if l.rBatch == nil {
			l.rBatch = l.takeRBuf()
		}
		l.rBatch = append(l.rBatch, batch[:space]...)
		batch = batch[space:]
		if len(l.rBatch) >= l.cfg.Batch {
			l.flushR()
		}
	}
}

func (l *Lane[L, R]) appendS(batch []stream.Tuple[R]) {
	for len(batch) > 0 {
		space := l.cfg.Batch - len(l.sBatch)
		if space <= 0 {
			l.flushS()
			continue
		}
		if space > len(batch) {
			space = len(batch)
		}
		if l.sBatch == nil {
			l.sBatch = l.takeSBuf()
		}
		l.sBatch = append(l.sBatch, batch[:space]...)
		batch = batch[space:]
		if len(l.sBatch) >= l.cfg.Batch {
			l.flushS()
		}
	}
}

// IngestR submits one caller batch's R-side traffic for this lane
// under a single mutex acquisition: the full arrivals routed here plus
// the probe-only double-reads of in-handoff groups whose window slices
// still live here. Both inputs are in arrival (sequence) order and
// disjoint — a tuple is either routed here or double-read here, never
// both — and the method replays the exact per-tuple schedule: appends
// flush at every Batch boundary, pending probes are injected before
// any flush they precede, and a probe slice is split exactly where the
// per-tuple path would have injected a due expiry between two probes.
// In the common case (no expiry due inside the batch's timestamp span)
// the whole probe set rides in one message — the per-arrival
// double-read message of a long handoff becomes per-batch.
func (l *Lane[L, R]) IngestR(full, probes []stream.Tuple[L]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(probes) == 0 {
		l.appendR(full)
		return
	}
	var run []stream.Tuple[L]
	i, j := 0, 0
	for i < len(full) || j < len(probes) {
		if j >= len(probes) || (i < len(full) && full[i].Seq < probes[j].Seq) {
			if l.rBatch == nil {
				l.rBatch = l.takeRBuf()
			}
			l.rBatch = append(l.rBatch, full[i])
			i++
			if len(l.rBatch) >= l.cfg.Batch {
				run = l.injectProbeR(run)
				l.flushR()
			}
		} else {
			t := probes[j]
			if l.hasDueS(t.TS) {
				// A per-tuple ProbeR would pop these expiries before
				// probing t: emit the probes that preceded them first,
				// then the expiries, then start a fresh slice.
				run = l.injectProbeR(run)
				if seqs := l.popDueS(t.TS); len(seqs) > 0 {
					l.lv.Inject(pipeline.LeftEnd, core.Msg[L, R]{Kind: core.KindExpiry, Side: stream.S, Seqs: seqs, Free: l.newFreeExpiry()})
				}
			}
			if run == nil {
				run = l.takeRBuf()
			}
			run = append(run, t)
			j++
		}
	}
	l.injectProbeR(run)
}

// IngestS is the S-side mirror of IngestR.
func (l *Lane[L, R]) IngestS(full, probes []stream.Tuple[R]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(probes) == 0 {
		l.appendS(full)
		return
	}
	var run []stream.Tuple[R]
	i, j := 0, 0
	for i < len(full) || j < len(probes) {
		if j >= len(probes) || (i < len(full) && full[i].Seq < probes[j].Seq) {
			if l.sBatch == nil {
				l.sBatch = l.takeSBuf()
			}
			l.sBatch = append(l.sBatch, full[i])
			i++
			if len(l.sBatch) >= l.cfg.Batch {
				run = l.injectProbeS(run)
				l.flushS()
			}
		} else {
			t := probes[j]
			if l.hasDueR(t.TS) {
				run = l.injectProbeS(run)
				if seqs := l.popDueR(t.TS); len(seqs) > 0 {
					l.lv.Inject(pipeline.RightEnd, core.Msg[L, R]{Kind: core.KindExpiry, Side: stream.R, Seqs: seqs, Free: l.newFreeExpiry()})
				}
			}
			if run == nil {
				run = l.takeSBuf()
			}
			run = append(run, t)
			j++
		}
	}
	l.injectProbeS(run)
}

// injectProbeR injects the accumulated probe-only slice, if any, and
// returns a nil accumulator: the injected backing belongs to the
// pipeline now and comes back through the recycler.
func (l *Lane[L, R]) injectProbeR(run []stream.Tuple[L]) []stream.Tuple[L] {
	if len(run) > 0 {
		l.lv.Inject(pipeline.LeftEnd, core.Msg[L, R]{Kind: core.KindArrival, Mode: core.ArriveProbeOnly, Side: stream.R, R: run, Free: l.newFree()})
	}
	return nil
}

func (l *Lane[L, R]) injectProbeS(run []stream.Tuple[R]) []stream.Tuple[R] {
	if len(run) > 0 {
		l.lv.Inject(pipeline.RightEnd, core.Msg[L, R]{Kind: core.KindArrival, Mode: core.ArriveProbeOnly, Side: stream.S, S: run, Free: l.newFree()})
	}
	return nil
}

// QueueExpiry schedules the removal of tuple seq of the given side at
// stream time due. counted marks a count-bound (as opposed to
// duration-bound) expiry. Due times must be non-decreasing per
// (side, counted) pair — which routing monotonic streams guarantees.
//
// settled marks an expiry whose tuple is already inside this lane's
// windows even though the lane's own injection high-water mark does
// not cover its sequence number — the engine passes it for tuples
// that entered by state migration. Without it, a count expiry routed
// here after a migration could be gated behind the injection check
// forever on a lane that never receives another arrival of that side.
func (l *Lane[L, R]) QueueExpiry(side stream.Side, seq uint64, due int64, counted, settled bool) {
	l.expMu.Lock()
	defer l.expMu.Unlock()
	q := l.rExp
	if side == stream.S {
		q = l.sExp
	}
	if counted {
		q.PushCnt(seq, due, settled)
	} else {
		q.PushDur(seq, due, settled)
	}
}

// QueueExpiryBulk schedules one caller batch's expiries for one side
// under a single expiry-lock acquisition — the amortized form of
// per-entry QueueExpiry calls, with the same ordering contract per
// (side, flavor). The input slices are copied.
func (l *Lane[L, R]) QueueExpiryBulk(side stream.Side, dur, cnt []ExpiryEntry) {
	if len(dur) == 0 && len(cnt) == 0 {
		return
	}
	l.expMu.Lock()
	defer l.expMu.Unlock()
	q := l.rExp
	if side == stream.S {
		q = l.sExp
	}
	q.PushBulk(dur, cnt)
}

// popDueR / popDueS drain the due expiries of one side under the
// expiry lock, so the subsequent Inject (which may block on pipeline
// back-pressure) never holds it. The returned backing is pooled (see
// recycle); an empty pop costs no pool traffic.
func (l *Lane[L, R]) popDueR(t int64) []uint64 {
	l.expMu.Lock()
	if !l.rExp.HasDue(t, l.rInj) {
		l.expMu.Unlock()
		return nil
	}
	seqs := l.rExp.PopDueInto(t, l.rInj, l.takeSeqBuf())
	l.expMu.Unlock()
	if len(seqs) == 0 { // everything popped was deduped
		l.seqBufs.put(seqs)
		return nil
	}
	return seqs
}

func (l *Lane[L, R]) popDueS(t int64) []uint64 {
	l.expMu.Lock()
	if !l.sExp.HasDue(t, l.sInj) {
		l.expMu.Unlock()
		return nil
	}
	seqs := l.sExp.PopDueInto(t, l.sInj, l.takeSeqBuf())
	l.expMu.Unlock()
	if len(seqs) == 0 {
		l.seqBufs.put(seqs)
		return nil
	}
	return seqs
}

func (l *Lane[L, R]) takeSeqBuf() []uint64 {
	if b, ok := l.seqBufs.get(); ok {
		return b
	}
	return make([]uint64, 0, l.cfg.Batch)
}

// hasDueR / hasDueS report whether a pop at stream time t would
// consume at least one entry — the boundary check the batched probe
// path uses to split probe slices exactly where per-tuple probes would
// have interleaved expiries.
func (l *Lane[L, R]) hasDueR(t int64) bool {
	l.expMu.Lock()
	defer l.expMu.Unlock()
	return l.rExp.HasDue(t, l.rInj)
}

func (l *Lane[L, R]) hasDueS(t int64) bool {
	l.expMu.Lock()
	defer l.expMu.Unlock()
	return l.sExp.HasDue(t, l.sInj)
}

// flushR injects pending S expiries (left end, so that R tuples behind
// them no longer join the expired S tuples) followed by the buffered R
// batch. Callers hold l.mu.
func (l *Lane[L, R]) flushR() {
	if len(l.rBatch) == 0 {
		return
	}
	due := l.rBatch[len(l.rBatch)-1].TS
	if seqs := l.popDueS(due); len(seqs) > 0 {
		l.lv.Inject(pipeline.LeftEnd, core.Msg[L, R]{Kind: core.KindExpiry, Side: stream.S, Seqs: seqs, Free: l.newFreeExpiry()})
	}
	l.rInj = l.rBatch[len(l.rBatch)-1].Seq + 1
	l.lv.Inject(pipeline.LeftEnd, core.Msg[L, R]{Kind: core.KindArrival, Side: stream.R, R: l.rBatch, Free: l.newFree()})
	l.rBatch = nil
}

// flushS injects pending R expiries (right end) followed by the
// buffered S batch. Callers hold l.mu.
func (l *Lane[L, R]) flushS() {
	if len(l.sBatch) == 0 {
		return
	}
	due := l.sBatch[len(l.sBatch)-1].TS
	if seqs := l.popDueR(due); len(seqs) > 0 {
		l.lv.Inject(pipeline.RightEnd, core.Msg[L, R]{Kind: core.KindExpiry, Side: stream.R, Seqs: seqs, Free: l.newFreeExpiry()})
	}
	l.sInj = l.sBatch[len(l.sBatch)-1].Seq + 1
	l.lv.Inject(pipeline.RightEnd, core.Msg[L, R]{Kind: core.KindArrival, Side: stream.S, S: l.sBatch, Free: l.newFree()})
	l.sBatch = nil
}

// Tick advances stream time to ts without submitting a tuple: partial
// batches are flushed, the pipeline settles, and expiries due by ts
// are injected, so windows keep sliding on an idle shard.
func (l *Lane[L, R]) Tick(ts int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tickLocked(ts)
}

func (l *Lane[L, R]) tickLocked(ts int64) {
	l.flushR()
	l.flushS()
	l.lv.Quiesce()
	if seqs := l.popDueS(ts); len(seqs) > 0 {
		l.lv.Inject(pipeline.LeftEnd, core.Msg[L, R]{Kind: core.KindExpiry, Side: stream.S, Seqs: seqs, Free: l.newFreeExpiry()})
	}
	if seqs := l.popDueR(ts); len(seqs) > 0 {
		l.lv.Inject(pipeline.RightEnd, core.Msg[L, R]{Kind: core.KindExpiry, Side: stream.R, Seqs: seqs, Free: l.newFreeExpiry()})
	}
}

// Settle flushes both batch buffers and waits for the pipeline to
// quiesce, without injecting any expiries. Migration drivers use it to
// retire the lane's in-flight arrivals before a handoff commit or a
// slice injection; the cost is bounded by the batch size plus the
// pipeline's in-flight cap, never by the window footprint.
func (l *Lane[L, R]) Settle() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flushR()
	l.flushS()
	l.lv.Quiesce()
}

// Buffered reports the number of tuples sitting in the lane's batch
// buffers: admitted, not yet handed to the pipeline, and therefore
// invisible to the window gauges. Admission control adds it to the
// live footprint so a resample cannot lose tuples parked between
// admission and the next flush.
func (l *Lane[L, R]) Buffered() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.rBatch) + len(l.sBatch))
}

// Quiesce waits for the pipeline to drain its in-flight messages
// without flushing the batch buffers. Restore uses it to let replayed
// arrivals land in the window stores before sampling the live footprint;
// the partial batch buffers are reconstructed checkpoint state and must
// stay buffered until the next caller-driven flush.
func (l *Lane[L, R]) Quiesce() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lv.Quiesce()
}

// ProbeR injects t as a probe-only R arrival (core.ArriveProbeOnly):
// it probes the lane's S windows and emits matches, but stores
// nothing, acknowledges nothing and advances no high-water mark. Due S
// expiries are popped first, so the probe cannot match tuples whose
// window closed at or before t.TS — the same boundary rule flushR
// applies to full arrivals. The incremental-migration driver
// double-reads a key-group's arrivals this way while the group's
// window state is split across two lanes.
//
// Probe-only arrivals bypass the batch buffers: they must never be
// batched with full arrivals (Mode is per-message), and buffered
// arrivals of other key-groups cannot join them anyway.
func (l *Lane[L, R]) ProbeR(t stream.Tuple[L]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seqs := l.popDueS(t.TS); len(seqs) > 0 {
		l.lv.Inject(pipeline.LeftEnd, core.Msg[L, R]{Kind: core.KindExpiry, Side: stream.S, Seqs: seqs, Free: l.newFreeExpiry()})
	}
	l.injectProbeR(append(l.takeRBuf(), t))
}

// ProbeS injects t as a probe-only S arrival; see ProbeR.
func (l *Lane[L, R]) ProbeS(t stream.Tuple[R]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seqs := l.popDueR(t.TS); len(seqs) > 0 {
		l.lv.Inject(pipeline.RightEnd, core.Msg[L, R]{Kind: core.KindExpiry, Side: stream.R, Seqs: seqs, Free: l.newFreeExpiry()})
	}
	l.injectProbeS(append(l.takeSBuf(), t))
}

// Heartbeat advances stream time to ts like Tick and additionally
// promises ts on both high-water marks, so the lane's collector can
// punctuate even though no tuple flowed through the pipeline.
//
// The caller must guarantee that every tuple it will ever push to this
// lane afterwards — on either side — carries a timestamp >= ts (the
// sharded engine passes the minimum of the per-side ingress
// timestamps). Under that guarantee the promise is sound: after the
// flush-and-quiesce below, every result derivable from the lane's
// current window contents has been emitted to the result queues, and
// any future result involves at least one future arrival, whose
// timestamp — and therefore the result's (the later of the pair) — is
// >= ts. The collector reads high-water marks before vacuuming the
// result queues, so results emitted before the promise always precede
// the punctuation that carries it.
func (l *Lane[L, R]) Heartbeat(ts int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tickLocked(ts)
	l.lv.AdvanceHWM(stream.R, ts)
	l.lv.AdvanceHWM(stream.S, ts)
}

// QueueDepth reports the number of messages currently in flight inside
// the lane's pipeline — the back-pressure signal load samplers read.
func (l *Lane[L, R]) QueueDepth() int { return l.lv.QueueDepth() }

// GroupState is one key-group's live state, extracted from a lane
// under a consistent cut: the group's window tuples of both sides plus
// their pending expiry-queue entries, by flavor. It is the unit of a
// state migration — Inject replays it into another lane (or back into
// the same one, to abort a move).
type GroupState[L, R any] struct {
	R []stream.Tuple[L]
	S []stream.Tuple[R]
	// RDur/RCnt and SDur/SCnt are the pending duration- and
	// count-bound expiry entries of the extracted tuples, in due
	// order.
	RDur, RCnt []ExpiryEntry
	SDur, SCnt []ExpiryEntry
}

// Tuples returns the number of window tuples the state carries.
func (gs *GroupState[L, R]) Tuples() int { return len(gs.R) + len(gs.S) }

// Extract snapshots and removes one key-group's live state from the
// lane under a consistent cut: buffered batches are flushed, the
// pipeline quiesces (so every pair among the group's tuples has been
// emitted and all expedition flags are settled), and then the matching
// window tuples and their pending expiry entries are taken out. The
// caller must guarantee that no tuple is pushed into the lane for the
// duration (the sharded engine holds both stream-side locks).
//
// With max > 0 the extraction is refused — before modifying anything —
// when the group holds more than max tuples, returning the count and
// ErrMigrationBudget; a mega-group move can so be declined without a
// restart. The lane's punctuation state is untouched either way: high
// water marks only ever advance, and extraction emits nothing.
func (l *Lane[L, R]) Extract(matchR func(L) bool, matchS func(R) bool, max int) (*GroupState[L, R], int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flushR()
	l.flushS()
	l.lv.Quiesce()

	nodes := make([]core.StateExtractor[L, R], 0, len(l.lv.Nodes()))
	total := 0
	for _, nl := range l.lv.Nodes() {
		ex, ok := nl.(core.StateExtractor[L, R])
		if !ok {
			return nil, 0, ErrNoExtractor
		}
		nr, ns := ex.CountMatching(matchR, matchS)
		total += nr + ns
		nodes = append(nodes, ex)
	}
	if max > 0 && total > max {
		return nil, total, ErrMigrationBudget
	}

	st := &GroupState[L, R]{}
	for _, ex := range nodes {
		rs, ss := ex.ExtractMatching(matchR, matchS)
		st.R = append(st.R, rs...)
		st.S = append(st.S, ss...)
	}
	// Tuples interleave across nodes; restore arrival order so the
	// store-only batches (and any re-injection) are deterministic.
	sort.Slice(st.R, func(i, j int) bool { return st.R[i].Seq < st.R[j].Seq })
	sort.Slice(st.S, func(i, j int) bool { return st.S[i].Seq < st.S[j].Seq })

	rSet := make(map[uint64]struct{}, len(st.R))
	for _, t := range st.R {
		rSet[t.Seq] = struct{}{}
	}
	sSet := make(map[uint64]struct{}, len(st.S))
	for _, t := range st.S {
		sSet[t.Seq] = struct{}{}
	}
	l.expMu.Lock()
	st.RDur, st.RCnt = l.rExp.TakeMatching(func(seq uint64) bool { _, ok := rSet[seq]; return ok })
	st.SDur, st.SCnt = l.sExp.TakeMatching(func(seq uint64) bool { _, ok := sSet[seq]; return ok })
	l.expMu.Unlock()
	return st, total, nil
}

// Inject replays an extracted key-group state into this lane: the
// tuples enter the pipeline as store-only arrivals (they join nothing
// on entry — their past joins were emitted on the lane they came from
// — but participate in every future probe), the pipeline quiesces so
// the copies are settled in their home windows before any new arrival
// can cross them, and only then are the expiry entries absorbed, so an
// expiry can never race its own tuple to the home node. The caller
// must hold off pushes for the duration, as for Extract.
//
// Punctuation safety: store-only arrivals do not advance the stream
// high-water marks, and every future result involving a migrated tuple
// pairs it with a future arrival, whose timestamp bounds the result's
// from below — so neither lane's promise is invalidated and the merged
// punctuation floor never regresses.
func (l *Lane[L, R]) Inject(st *GroupState[L, R]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(st.R) > 0 {
		l.lv.Inject(pipeline.LeftEnd, core.Msg[L, R]{Kind: core.KindArrival, Mode: core.ArriveStoreOnly, Side: stream.R, R: st.R})
	}
	if len(st.S) > 0 {
		l.lv.Inject(pipeline.RightEnd, core.Msg[L, R]{Kind: core.KindArrival, Mode: core.ArriveStoreOnly, Side: stream.S, S: st.S})
	}
	l.lv.Quiesce()
	l.expMu.Lock()
	l.rExp.AbsorbDur(st.RDur)
	l.rExp.AbsorbCnt(st.RCnt)
	l.sExp.AbsorbDur(st.SDur)
	l.sExp.AbsorbCnt(st.SCnt)
	l.expMu.Unlock()
}

// ExtractSlice removes and returns up to max of the oldest live window
// tuples of one key-group — one bounded hop of an incremental
// migration — and reports how many matching tuples remain. With max
// <= 0 the whole group is taken. "Oldest" is stream order across both
// sides (timestamp, ties R before S, then sequence number), so the
// slices a handoff moves are deterministic given the push schedule.
//
// Unlike Extract, ExtractSlice never flushes the batch buffers and
// never counts against a budget: the caller has already committed the
// handoff, so no full arrival of the group can be buffered here
// (buffered arrivals belong to other key-groups, which cannot join the
// extracted tuples), and every hop makes progress. It does wait for
// the pipeline to quiesce — the group's only in-flight traffic are
// probe-only double-reads, which must finish probing the tuples about
// to leave — but that wait is bounded by the in-flight cap, not by the
// group's window footprint, and the expedition flags of the group's
// settled tuples cannot reappear. One hop's work is one pass over the
// lane's windows (the scan that finds the group's tuples) plus
// sorting and moving at most the slice: nothing a hop allocates,
// sorts or extracts grows with the group's remaining size.
//
// The caller must hold off pushes for the duration (the sharded engine
// holds both stream-side locks) and must have settled the lane once at
// handoff commit, so the group's pre-handoff tuples are out of the
// in-flight buffers and their expedition flags are cleared.
func (l *Lane[L, R]) ExtractSlice(matchR func(L) bool, matchS func(R) bool, max int) (*GroupState[L, R], int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lv.Quiesce()

	nodes := make([]core.SliceExtractor[L, R], 0, len(l.lv.Nodes()))
	for _, nl := range l.lv.Nodes() {
		ex, ok := nl.(core.SliceExtractor[L, R])
		if !ok {
			return nil, 0, ErrNoExtractor
		}
		nodes = append(nodes, ex)
	}
	// Peek each node's oldest candidates, then cut the oldest slice
	// across the whole pipeline: homes are round-robin, so each node
	// holds every n-th tuple of the group and no per-node cut is
	// oldest-first globally — but every tuple of the global oldest max
	// is among its own node's oldest max of its side, so the bounded
	// per-node peeks form a sufficient candidate pool.
	type cand struct {
		ts   int64
		side stream.Side
		seq  uint64
	}
	var cands []cand
	total := 0
	perNode := max
	if perNode <= 0 {
		perNode = int(^uint(0) >> 1) // max <= 0: take the whole group
	}
	for _, ex := range nodes {
		rs, ss, nr, ns := ex.PeekOldestMatching(matchR, matchS, perNode)
		total += nr + ns
		for _, t := range rs {
			cands = append(cands, cand{ts: t.TS, side: stream.R, seq: t.Seq})
		}
		for _, t := range ss {
			cands = append(cands, cand{ts: t.TS, side: stream.S, seq: t.Seq})
		}
	}
	if total == 0 {
		return &GroupState[L, R]{}, 0, nil
	}
	if max <= 0 || max > total {
		max = total
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		if a.side != b.side {
			return a.side == stream.R
		}
		return a.seq < b.seq
	})
	rSet := make(map[uint64]struct{})
	sSet := make(map[uint64]struct{})
	for _, c := range cands[:max] {
		if c.side == stream.R {
			rSet[c.seq] = struct{}{}
		} else {
			sSet[c.seq] = struct{}{}
		}
	}

	st := &GroupState[L, R]{}
	for _, ex := range nodes {
		rs, ss := ex.ExtractSeqs(rSet, sSet)
		st.R = append(st.R, rs...)
		st.S = append(st.S, ss...)
	}
	sort.Slice(st.R, func(i, j int) bool { return st.R[i].Seq < st.R[j].Seq })
	sort.Slice(st.S, func(i, j int) bool { return st.S[i].Seq < st.S[j].Seq })

	l.expMu.Lock()
	st.RDur, st.RCnt = l.rExp.TakeMatching(func(seq uint64) bool { _, ok := rSet[seq]; return ok })
	st.SDur, st.SCnt = l.sExp.TakeMatching(func(seq uint64) bool { _, ok := sSet[seq]; return ok })
	l.expMu.Unlock()
	return st, total - max, nil
}

// InjectSlice replays one extracted slice into this lane, with the
// same mechanics and contract as Inject. The slice-migration driver
// must Settle this lane first: the store-only copies may only land
// once every in-flight full arrival of the group — whose probe-only
// double-read already saw the slice on the source lane — has finished
// probing here, or a pair would be emitted twice.
func (l *Lane[L, R]) InjectSlice(st *GroupState[L, R]) { l.Inject(st) }

// Close flushes buffered batches, waits for the pipeline to quiesce,
// and stops the node and collector goroutines. The lane cannot be
// reused afterwards; the engine layer guards against further pushes.
func (l *Lane[L, R]) Close() {
	l.mu.Lock()
	l.flushR()
	l.flushS()
	l.mu.Unlock()
	l.lv.Quiesce()
	l.lv.Stop()
	l.wg.Wait() // collector drains the closed queues, then exits
}

// PipelineStats aggregates this lane's node counters. The counters are
// atomics, so a mid-run read is race-safe; cumulative totals lag the
// pushers by at most the in-flight batches, and gauges reflect the last
// published value of each node.
func (l *Lane[L, R]) PipelineStats() core.Stats { return l.lv.Stats() }

// ExpiryDepth reports the number of pending (not yet due) expiry
// entries across both of the lane's scheduling queues — a backlog gauge
// for live snapshots. Safe to call from any goroutine.
func (l *Lane[L, R]) ExpiryDepth() int {
	l.expMu.Lock()
	defer l.expMu.Unlock()
	return l.rExp.Len() + l.sExp.Len()
}

// HWMFloor returns the smaller of the lane's two stream high-water
// marks — the bound every future punctuation promise clears. Race-safe
// (two atomic loads).
func (l *Lane[L, R]) HWMFloor() int64 {
	r, s := l.lv.HWMR(), l.lv.HWMS()
	if s < r {
		return s
	}
	return r
}

// CollectOnce synchronously runs one collector pass on the caller's
// goroutine: read high-water marks, vacuum every result queue through
// the normal output path, punctuate. A checkpoint calls it after the
// pipeline has quiesced, so that no result is stranded in a queue when
// the downstream sorter state is snapshotted; the pass is serialized
// against the collector's background loop.
func (l *Lane[L, R]) CollectOnce() { l.coll.RunOnce() }

// LaneState is the verbatim serializable state of one lane under a
// consistent cut: the live window tuples of both sides (copies, in
// arrival order), both expiry queues exactly as scheduled, the partial
// batch buffers with their injection high-water marks, and the stream
// high-water marks. Unlike GroupState — migration state, which is
// always flushed, settled, and re-absorbed — LaneState preserves the
// flush schedule itself: buffered tuples stay buffered and unflushed
// expiries stay gated, so a restored lane's future injections happen at
// exactly the stream points the original lane's would have.
type LaneState[L, R any] struct {
	R          []stream.Tuple[L]
	S          []stream.Tuple[R]
	RExp, SExp ExpiryQueueState
	RBatch     []stream.Tuple[L]
	SBatch     []stream.Tuple[R]
	RInj, SInj uint64
	HWMR, HWMS int64
}

// SnapshotState copies the lane's state under a consistent cut without
// modifying it: batch buffers are NOT flushed (the cut preserves them
// verbatim), the pipeline quiesces, and every live window tuple is
// peeked out by copy. The caller must hold off pushes for the duration
// (the sharded engine holds both stream-side locks), exactly as for
// Extract.
func (l *Lane[L, R]) SnapshotState() (*LaneState[L, R], error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lv.Quiesce()

	allR := func(L) bool { return true }
	allS := func(R) bool { return true }
	st := &LaneState[L, R]{}
	for _, nl := range l.lv.Nodes() {
		ex, ok := nl.(core.SliceExtractor[L, R])
		if !ok {
			return nil, ErrNoExtractor
		}
		rs, ss, _, _ := ex.PeekOldestMatching(allR, allS, int(^uint(0)>>1))
		st.R = append(st.R, rs...)
		st.S = append(st.S, ss...)
	}
	sort.Slice(st.R, func(i, j int) bool { return st.R[i].Seq < st.R[j].Seq })
	sort.Slice(st.S, func(i, j int) bool { return st.S[i].Seq < st.S[j].Seq })

	l.expMu.Lock()
	st.RExp = l.rExp.Snapshot()
	st.SExp = l.sExp.Snapshot()
	l.expMu.Unlock()

	st.RBatch = append([]stream.Tuple[L](nil), l.rBatch...)
	st.SBatch = append([]stream.Tuple[R](nil), l.sBatch...)
	st.RInj, st.SInj = l.rInj, l.sInj
	st.HWMR, st.HWMS = l.lv.HWMR(), l.lv.HWMS()
	return st, nil
}

// RestoreState replays a snapshot into a fresh lane: window tuples
// enter as store-only arrivals and settle (indexes rebuild lazily on
// first indexed probe — index structures are never serialized), the
// expiry queues are restored verbatim (injection gates included, so
// entries of still-buffered tuples stay held exactly as they were),
// the batch buffers and injection marks come back, and the high-water
// marks re-advance. The lane must not have admitted any tuple yet, and
// the caller must hold off pushes for the duration.
func (l *Lane[L, R]) RestoreState(st *LaneState[L, R]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(st.R) > 0 {
		l.lv.Inject(pipeline.LeftEnd, core.Msg[L, R]{Kind: core.KindArrival, Mode: core.ArriveStoreOnly, Side: stream.R, R: st.R})
	}
	if len(st.S) > 0 {
		l.lv.Inject(pipeline.RightEnd, core.Msg[L, R]{Kind: core.KindArrival, Mode: core.ArriveStoreOnly, Side: stream.S, S: st.S})
	}
	l.lv.Quiesce()
	l.expMu.Lock()
	l.rExp.RestoreSnapshot(st.RExp)
	l.sExp.RestoreSnapshot(st.SExp)
	l.expMu.Unlock()
	if len(st.RBatch) > 0 {
		l.rBatch = append(l.takeRBuf(), st.RBatch...)
	}
	if len(st.SBatch) > 0 {
		l.sBatch = append(l.takeSBuf(), st.SBatch...)
	}
	l.rInj, l.sInj = st.RInj, st.SInj
	l.lv.AdvanceHWM(stream.R, st.HWMR)
	l.lv.AdvanceHWM(stream.S, st.HWMS)
}

// Collected returns the number of results this lane's collector
// assembled.
func (l *Lane[L, R]) Collected() uint64 { return l.coll.Collected() }

// Punctuations returns the number of punctuations this lane emitted.
func (l *Lane[L, R]) Punctuations() uint64 { return l.coll.Punctuations() }

// CollectorPasses returns the number of collection passes this lane's
// collector has run; CollectorWakeups how often it slept on the output
// doorbell and was rung awake. Passes per result is what the doorbell
// costs; a lane nobody feeds adds to neither.
func (l *Lane[L, R]) CollectorPasses() uint64  { return l.coll.Passes() }
func (l *Lane[L, R]) CollectorWakeups() uint64 { return l.lv.OutputWakeups() }

// InjectParks returns how often a driver call into this lane slept on
// the pipeline's MaxInFlight bound.
func (l *Lane[L, R]) InjectParks() uint64 { return l.lv.InjectParks() }
