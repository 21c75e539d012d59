package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"handshakejoin/internal/clock"
	"handshakejoin/internal/core"
	"handshakejoin/internal/fifo"
	"handshakejoin/internal/stream"
)

// Live executes a pipeline with one goroutine per node, connected by
// bounded lock-free FIFO links — the Go analogue of the paper's
// one-thread-per-core deployment with Multikernel-style asynchronous
// channels. Each directed link carries every message kind in strict
// FIFO order, which the protocol's correctness requires.
//
// Results are written to per-node queues (Q1..Qn in Figure 15) and
// drained by a collector (package collect). High-water marks for
// punctuation generation are published through atomics by the pipeline
// end nodes. The collector does not poll: it parks on the output
// doorbell (WaitOutput), which the nodes ring whenever they leave it
// something to do.
type Live[L, R any] struct {
	nodes []core.NodeLogic[L, R]
	clk   clock.Clock

	// links[i][0] = messages travelling rightward into node i
	// (HandleLeft); links[i][1] = leftward into node i (HandleRight).
	// Every link is unbounded so that neighbouring nodes can never
	// deadlock on mutual back-pressure; what bounds the pipeline is the
	// total in flight (depth against depthCap), enforced on the drivers
	// in Inject.
	links  [][2]*fifo.Deque[core.Msg[L, R]]
	notify []chan struct{} // wake-up doorbell per node
	idle   []atomic.Bool

	resultQ  []*fifo.Chan[core.Result[L, R]]
	depthCap int

	// High-water marks (§6.1.1), indexed R = 0, S = 1 like the links
	// the sides arrive on. done[k] is node k's own progress: the
	// timestamp of the last full arrival of each side whose handler has
	// returned there. Nodes forward a batch before they scan it, so a
	// tuple reaching the pipeline end says nothing about the nodes behind
	// it — they may still be emitting its results — and the mark a
	// punctuation may rest on is the slowest node's. promised holds what
	// the driver vouched for on top (AdvanceHWM).
	done     []nodeMarks
	promised [2]atomic.Int64

	// Output doorbell: the mirror image of notify/idle, with the
	// collector as the one sleeper and every node (plus the driver's
	// AdvanceHWM) as ringers. outParked is set only while the collector
	// is about to block or blocked in WaitOutput, so a ring costs one
	// atomic load whenever the collector is already awake.
	outBell    chan struct{}
	outParked  atomic.Bool
	outWakeups atomic.Uint64
	punctuate  bool

	depth atomic.Int64 // messages in flight across all links

	// Entry doorbell: the output doorbell turned around once more, with
	// the drivers as sleepers and the nodes as ringers. An injector that
	// finds the pipeline at depthCap and sees it make no progress parks
	// on room; handled broadcasts once depth is down to depthCap/2, Stop
	// broadcasts too. Several drivers can wait at once (the two stream
	// sides, expiries, probe-only runs), hence a count and a condition
	// variable rather than a flag and a one-token bell. roomWaiters is
	// raised (under roomMu) before the injector re-checks depth and read
	// by handled after it has lowered depth, so one of the two always
	// sees the other; a ringer that sees nobody waiting pays one atomic
	// load.
	roomMu      sync.Mutex
	room        *sync.Cond // on roomMu
	roomWaiters atomic.Int32
	injectParks atomic.Uint64

	// Pooled seq buffers and recycling tokens for the messages nodes
	// originate per batch (acks, expedition-ends, expiry forwards).
	// These are taken on one node's goroutine and released on its
	// neighbour's, so the pool is shared pipeline-wide under one mutex —
	// the traffic is one take/put pair per node per batch, far off the
	// per-tuple path.
	seqMu    sync.Mutex
	seqBufs  [][]uint64
	seqFrees []*core.Free[L, R]

	stop atomic.Bool
	wg   sync.WaitGroup
}

// seqPoolCap bounds both pools; overflow falls back to the garbage
// collector.
const seqPoolCap = 64

// nodeMarks is one node's stream progress, written by that node's
// goroutine only and padded so neighbours do not share a cache line.
type nodeMarks struct {
	ts [2]atomic.Int64
	_  [48]byte
}

// LiveConfig tunes the live runtime.
type LiveConfig struct {
	// DepthCap bounds the total number of messages in flight across all
	// links; Inject blocks while the pipeline is deeper. This is the
	// analogue of the paper's bounded FIFO channels: it keeps the
	// in-flight volume far below the window size, which the window
	// semantics require (an expiry must never race a whole window of
	// in-flight tuples to its home node). Default 128.
	DepthCap int
	// ResultCap is the capacity of each per-node result queue.
	// Default 65536.
	ResultCap int
	// Punctuate tells the runtime that its collector turns high-water
	// marks into punctuations, so an advancing mark is output too and
	// rings the output doorbell. Without it only results (and closing
	// queues) ring.
	Punctuate bool
}

func (c *LiveConfig) defaults() {
	if c.ResultCap < 1 {
		c.ResultCap = 65536
	}
	if c.DepthCap < 1 {
		c.DepthCap = 128
	}
}

// NewLive builds the pipeline and starts one goroutine per node.
func NewLive[L, R any](n int, build core.Builder[L, R], clk clock.Clock, cfg LiveConfig) *Live[L, R] {
	if n < 1 {
		panic(fmt.Sprintf("runtime: pipeline needs >= 1 node, got %d", n))
	}
	cfg.defaults()
	if clk == nil {
		clk = clock.NewWall()
	}
	lv := &Live[L, R]{
		clk:      clk,
		depthCap: cfg.DepthCap,
		links:    make([][2]*fifo.Deque[core.Msg[L, R]], n),
		notify:   make([]chan struct{}, n),
		idle:     make([]atomic.Bool, n),
		resultQ:  make([]*fifo.Chan[core.Result[L, R]], n),
		done:     make([]nodeMarks, n),

		outBell:   make(chan struct{}, 1),
		punctuate: cfg.Punctuate,
	}
	lv.room = sync.NewCond(&lv.roomMu)
	for k := 0; k < n; k++ {
		lv.nodes = append(lv.nodes, build(k))
		lv.links[k][0] = fifo.NewDeque[core.Msg[L, R]](64)
		lv.links[k][1] = fifo.NewDeque[core.Msg[L, R]](64)
		lv.notify[k] = make(chan struct{}, 1)
		lv.resultQ[k] = fifo.NewChan[core.Result[L, R]](cfg.ResultCap)
	}
	lv.wg.Add(n)
	for k := 0; k < n; k++ {
		go lv.nodeLoop(k)
	}
	return lv
}

// HWMR returns the R-side high-water mark tmax,R (§6.1.1): every node
// has finished every R tuple stamped up to it, so no result still to be
// queued carries an R timestamp below it.
func (lv *Live[L, R]) HWMR() int64 { return lv.hwm(0) }

// HWMS returns the S-side high-water mark tmax,S.
func (lv *Live[L, R]) HWMS() int64 { return lv.hwm(1) }

func (lv *Live[L, R]) hwm(side int) int64 {
	m := lv.done[0].ts[side].Load()
	for k := 1; k < len(lv.done); k++ {
		m = min(m, lv.done[k].ts[side].Load())
	}
	return max(m, lv.promised[side].Load())
}

// ResultQueues exposes the per-node result queues for the collector.
func (lv *Live[L, R]) ResultQueues() []*fifo.Chan[core.Result[L, R]] { return lv.resultQ }

// Inject delivers msg to a pipeline end, blocking while the pipeline
// holds DepthCap messages or more (driver back-pressure). An injector
// that had to wait returns false once the pipeline is stopped.
func (lv *Live[L, R]) Inject(end End, msg core.Msg[L, R]) bool {
	node, dir := 0, 0
	if end == RightEnd {
		node, dir = len(lv.nodes)-1, 1
	}
	if int(lv.depth.Load()) >= lv.depthCap && !lv.awaitRoom() {
		return false
	}
	return lv.put(node, dir, msg)
}

// injectSpin is how many scheduler yields in a row an injector may find
// the pipeline full and its depth unchanged before it parks — a few
// hundred microseconds. The bound has to outlast a node that is merely
// descheduled (more runnable goroutines than cores): at 64, pushers of
// 4-tuple batches parked some 2 000 times a second behind lanes that
// would have had room within the next scheduling round, and lost a
// sixth of their throughput to the low-water wait; at 1024 they park a
// few dozen times and lose nothing, while a pipeline of 400 µs messages
// parks exactly as often as at 64.
const injectSpin = 1024

// awaitRoom blocks until the pipeline is below depthCap (true) or
// stopped (false). It yields first and sleeps second: a pipeline that is
// retiring messages — a small batch takes a node a microsecond or two —
// has room again long before a sleep and its wake-up would have
// completed, so as long as depth keeps moving the injector only yields.
// When depth has stood still for injectSpin yields the nodes are busy
// with long messages (or the injector is the extra runnable thread on a
// machine they fill); it then parks, and handled wakes it at the
// low-water mark, so one sleep buys room for depthCap/2 messages. An
// injector that finds another one parked joins it at once: that the
// pipeline is not moving has been established.
func (lv *Live[L, R]) awaitRoom() bool {
	seen := lv.depth.Load()
	for still := 0; still < injectSpin && lv.roomWaiters.Load() == 0; still++ {
		if lv.stop.Load() {
			return false
		}
		runtime.Gosched()
		d := lv.depth.Load()
		if int(d) < lv.depthCap {
			return true
		}
		if d != seen {
			seen, still = d, 0
		}
	}
	lv.roomMu.Lock()
	lv.roomWaiters.Add(1)
	for int(lv.depth.Load()) >= lv.depthCap && !lv.stop.Load() {
		lv.injectParks.Add(1)
		lv.room.Wait()
	}
	lv.roomWaiters.Add(-1)
	lv.roomMu.Unlock()
	return !lv.stop.Load()
}

// wakeInjectors wakes every parked injector. The broadcast is issued
// under roomMu: an injector holds it from raising roomWaiters until
// Wait has queued it, so a ringer that saw the count cannot ring into
// the gap between the injector's depth check and its sleep.
func (lv *Live[L, R]) wakeInjectors() {
	lv.roomMu.Lock()
	lv.room.Broadcast()
	lv.roomMu.Unlock()
}

// InjectParks returns how often an injector slept on DepthCap — ingress
// back-pressure that outlasted the yield phase.
func (lv *Live[L, R]) InjectParks() uint64 { return lv.injectParks.Load() }

// put enqueues msg into links[node][dir] and rings the doorbell.
// Interior links are unbounded, so put never blocks — a requirement,
// because a node blocking on its neighbour while the neighbour blocks
// back would deadlock the pipeline.
func (lv *Live[L, R]) put(node, dir int, msg core.Msg[L, R]) bool {
	if err := lv.links[node][dir].Put(msg); err != nil {
		return false
	}
	lv.depth.Add(1)
	select {
	case lv.notify[node] <- struct{}{}:
	default:
	}
	return true
}

// nodeLoop is the per-core event loop of Figure 12: alternately poll the
// left and right input channels and dispatch to the handlers.
func (lv *Live[L, R]) nodeLoop(k int) {
	defer lv.wg.Done()
	defer func() {
		// The collector's loop ends on the pass that finds every queue
		// closed, so a closing queue is an event it must hear about.
		lv.resultQ[k].Close()
		lv.ringOutput()
	}()
	em := &liveEmitter[L, R]{lv: lv, k: k}
	left, right := lv.links[k][0], lv.links[k][1]
	for {
		progress := false
		if m, ok, _ := left.TryGet(); ok {
			lv.nodes[k].HandleLeft(m, em)
			lv.handled(em, 0, m)
			progress = true
		}
		if m, ok, _ := right.TryGet(); ok {
			lv.nodes[k].HandleRight(m, em)
			lv.handled(em, 1, m)
			progress = true
		}
		if progress {
			continue
		}
		if lv.stop.Load() {
			return
		}
		// Idle: block on the doorbell after re-checking emptiness.
		lv.idle[k].Store(true)
		if left.Len() > 0 || right.Len() > 0 || lv.stop.Load() {
			lv.idle[k].Store(false)
			continue
		}
		<-lv.notify[k]
		lv.idle[k].Store(false)
	}
}

// handled retires message m, taken from link dir (0 = left: R arrivals,
// 1 = right: S arrivals), once the node's handler has returned: a full
// arrival moves the node's progress mark, whatever the handler left for
// the collector is rung in — once per message, not once per result (a
// futex wake per result is measurable on join-heavy batches) — and the
// message is released. Retiring it lowers depth, which is what parked
// injectors wait for.
func (lv *Live[L, R]) handled(em *liveEmitter[L, R], dir int, m core.Msg[L, R]) {
	if m.Kind == core.KindArrival && m.Mode == core.ArriveFull {
		ts, ok := int64(0), false
		if dir == 0 && len(m.R) > 0 {
			ts, ok = m.R[len(m.R)-1].TS, true
		} else if dir == 1 && len(m.S) > 0 {
			ts, ok = m.S[len(m.S)-1].TS, true
		}
		if ok {
			lv.done[em.k].ts[dir].Store(ts)
			em.output = em.output || lv.punctuate
		}
	}
	if em.output {
		em.output = false
		lv.ringOutput()
	}
	lv.release(m)
	if d := lv.depth.Add(-1); int(d) <= lv.depthCap/2 && lv.roomWaiters.Load() != 0 {
		lv.wakeInjectors()
	}
}

// release retires one handled message against its recycling token, if
// any: the last handler to finish hands the backing slice back to the
// driver (see core.Free for why this must wait for every handler, not
// just the exit node's, and why the message travels by value).
func (lv *Live[L, R]) release(m core.Msg[L, R]) {
	if m.Free != nil && m.Free.Refs.Add(-1) == 0 {
		m.Free.Put(m)
	}
}

// ringOutput wakes the collector if it is parked. Callers publish what
// they ring about (a queued result, a raised high-water mark, a closed
// queue) first: WaitOutput sets outParked and then re-checks for
// pending output, so either the ringer sees the flag or the collector
// sees the output. The bell holds one token; a second ring while one is
// pending adds nothing, because the collector's next pass takes
// everything there is.
func (lv *Live[L, R]) ringOutput() {
	if !lv.outParked.Load() {
		return
	}
	select {
	case lv.outBell <- struct{}{}:
	default:
	}
}

// WaitOutput parks the calling goroutine — the collector, the bell's
// only sleeper — until there is output to collect. pending must report
// whether a collection pass would find anything to do; it is evaluated
// after the parked flag is up, which closes the window between the
// collector's last pass and its sleep. No timer is involved: a
// collector nobody rings sleeps forever, and Stop rings it through the
// closing result queues.
func (lv *Live[L, R]) WaitOutput(pending func() bool) {
	select {
	case <-lv.outBell: // token of a ring the last pass already served
	default:
	}
	lv.outParked.Store(true)
	if !pending() {
		<-lv.outBell
		lv.outWakeups.Add(1)
	}
	lv.outParked.Store(false)
}

// OutputWakeups returns how often the collector actually slept in
// WaitOutput and was woken by a ring.
func (lv *Live[L, R]) OutputWakeups() uint64 { return lv.outWakeups.Load() }

// liveEmitter implements core.Emitter (and core.SeqBufSource) for
// node k. It lives on the node's goroutine.
type liveEmitter[L, R any] struct {
	lv *Live[L, R]
	k  int
	// output records that the message being handled produced something
	// for the collector (see Live.handled).
	output bool
}

// TakeSeqBuf implements core.SeqBufSource.
func (e *liveEmitter[L, R]) TakeSeqBuf() []uint64 {
	lv := e.lv
	lv.seqMu.Lock()
	if n := len(lv.seqBufs); n > 0 {
		b := lv.seqBufs[n-1]
		lv.seqBufs = lv.seqBufs[:n-1]
		lv.seqMu.Unlock()
		return b
	}
	lv.seqMu.Unlock()
	return make([]uint64, 0, 64)
}

// PutSeqBuf implements core.SeqBufSource.
func (e *liveEmitter[L, R]) PutSeqBuf(b []uint64) {
	lv := e.lv
	lv.seqMu.Lock()
	if len(lv.seqBufs) < seqPoolCap {
		lv.seqBufs = append(lv.seqBufs, b[:0])
	}
	lv.seqMu.Unlock()
}

// NewSeqFree implements core.SeqBufSource: a token armed for the one
// neighbour handler that will read the message. Its Put returns both
// the Seqs buffer and the token itself to the shared pools.
func (e *liveEmitter[L, R]) NewSeqFree() *core.Free[L, R] {
	lv := e.lv
	lv.seqMu.Lock()
	var f *core.Free[L, R]
	if n := len(lv.seqFrees); n > 0 {
		f = lv.seqFrees[n-1]
		lv.seqFrees = lv.seqFrees[:n-1]
		lv.seqMu.Unlock()
	} else {
		lv.seqMu.Unlock()
		f = &core.Free[L, R]{}
		f.Put = func(m core.Msg[L, R]) {
			lv.seqMu.Lock()
			if len(lv.seqBufs) < seqPoolCap {
				lv.seqBufs = append(lv.seqBufs, m.Seqs[:0])
			}
			if len(lv.seqFrees) < seqPoolCap {
				lv.seqFrees = append(lv.seqFrees, f)
			}
			lv.seqMu.Unlock()
		}
	}
	f.Refs.Store(1)
	return f
}

func (e *liveEmitter[L, R]) EmitLeft(m core.Msg[L, R]) {
	if e.k == 0 {
		return // pipeline exit
	}
	e.lv.put(e.k-1, 1, m)
}

func (e *liveEmitter[L, R]) EmitRight(m core.Msg[L, R]) {
	if e.k == len(e.lv.nodes)-1 {
		return // pipeline exit
	}
	e.lv.put(e.k+1, 0, m)
}

func (e *liveEmitter[L, R]) EmitResult(p stream.Pair[L, R]) {
	r := core.Result[L, R]{Pair: p, At: e.lv.clk.Now()}
	q := e.lv.resultQ[e.k]
	e.output = true
	for {
		ok, err := q.TryPut(r)
		if ok || err != nil {
			return
		}
		// The collector must catch up, and this handler will not get to
		// its end-of-message ring before it does.
		e.lv.ringOutput()
		runtime.Gosched()
	}
}

// StreamEnd is a no-op: the live runtime keeps a progress mark per node
// (see Live.done) instead of trusting the end node's view.
func (e *liveEmitter[L, R]) StreamEnd(stream.Side, int64) {}

// AdvanceHWM raises one side's high-water mark to ts (never lowers
// it). Drivers call this to promise stream progress the nodes' own
// marks cannot show, on an idle, quiescent pipeline: when the
// driver knows every future tuple of both sides carries a timestamp
// >= ts and the pipeline holds no in-flight arrivals, no future result
// can have a timestamp below ts (a result's timestamp is the later of
// its two inputs), so the promise is sound even though no tuple
// carried it through the pipeline. A mark that moved is output for a
// punctuating collector, so it rings the output doorbell.
func (lv *Live[L, R]) AdvanceHWM(side stream.Side, ts int64) {
	hwm := &lv.promised[0]
	if side == stream.S {
		hwm = &lv.promised[1]
	}
	for {
		cur := hwm.Load()
		if ts <= cur {
			return
		}
		if hwm.CompareAndSwap(cur, ts) {
			break
		}
	}
	if lv.punctuate {
		lv.ringOutput()
	}
}

func (e *liveEmitter[L, R]) Cost(int) {} // live time is real time

// QueueDepth returns the total number of messages currently queued on
// all links.
func (lv *Live[L, R]) QueueDepth() int { return int(lv.depth.Load()) }

// Quiesce blocks until the pipeline has no in-flight messages and all
// nodes are idle (two consecutive observations), then returns. Call
// after the driver has injected everything and before reading final
// state.
func (lv *Live[L, R]) Quiesce() {
	stable := 0
	for stable < 2 {
		if lv.quiet() {
			stable++
		} else {
			stable = 0
		}
		runtime.Gosched()
	}
}

func (lv *Live[L, R]) quiet() bool {
	for k := range lv.nodes {
		if !lv.idle[k].Load() {
			return false
		}
	}
	for k := range lv.links {
		if lv.links[k][0].Len() > 0 || lv.links[k][1].Len() > 0 {
			return false
		}
	}
	return true
}

// Stop terminates the node goroutines (after draining pending link
// messages), closes the result queues and sends parked injectors home
// with false. It does not wait for a quiescent protocol state; call
// Quiesce first when exact results matter.
func (lv *Live[L, R]) Stop() {
	lv.stop.Store(true)
	lv.wakeInjectors()
	for k := range lv.notify {
		select {
		case lv.notify[k] <- struct{}{}:
		default:
		}
	}
	lv.wg.Wait()
}

// Stats aggregates all node counters. The counters are atomics, so the
// aggregation is race-safe mid-run; it is exact once the pipeline is
// quiescent (after Stop or Quiesce).
func (lv *Live[L, R]) Stats() core.Stats {
	var agg core.Stats
	for _, n := range lv.nodes {
		agg.Add(n.Stats())
	}
	return agg
}

// Nodes returns the node logic values (for white-box tests; access only
// when quiescent).
func (lv *Live[L, R]) Nodes() []core.NodeLogic[L, R] { return lv.nodes }
