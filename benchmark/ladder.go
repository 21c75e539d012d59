package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	hj "handshakejoin"
	"handshakejoin/internal/adapt"
	"handshakejoin/internal/clock"
	"handshakejoin/internal/collect"
	"handshakejoin/internal/core"
	"handshakejoin/internal/fault"
	"handshakejoin/internal/fifo"
	"handshakejoin/internal/kang"
	"handshakejoin/internal/order"
	"handshakejoin/internal/pipeline"
	"handshakejoin/internal/probe"
	"handshakejoin/internal/shard"
	"handshakejoin/internal/store"
	"handshakejoin/internal/stream"
	"handshakejoin/internal/wal"
)

// The layer ladder replays the workload's generated inputs through each
// layer's exported functions, one rung per layer metric, from outside:
// nothing under internal/ knows it is being measured. A rung reports the
// median of ladderReps timed repetitions; every rung is a span.

const ladderReps = 3

type (
	stup   = stream.Tuple[tup]
	msg    = core.Msg[tup, tup]
	result = core.Result[tup, tup]
)

type ladder struct {
	r   *runner
	rep *report
	// scale divides every rung's operation count (reduced test run).
	scale int
}

// measure times fn ladderReps times inside a span and returns the
// median of elapsed/ops in nanoseconds. fn returns how many operations it
// performed and may return a narrower elapsed time than the whole call
// (0 = whole call).
func (ld *ladder) measure(name string, fn func() (ops int, elapsed time.Duration)) float64 {
	ld.r.tr.enter(spanRung, name)
	v := make([]float64, ladderReps)
	for i := range v {
		t0 := time.Now()
		ops, el := fn()
		if el == 0 {
			el = time.Since(t0)
		}
		v[i] = float64(el) / float64(max(ops, 1))
	}
	ld.r.tr.leave()
	return median(v)
}

// rung measures fn and reports the result, in units of perUnit
// nanoseconds, under name.
func (ld *ladder) rung(name, unit string, perUnit float64, fn func() (ops int, elapsed time.Duration)) float64 {
	m := ld.measure(name, fn) / perUnit
	ld.rep.set(name, m, unit)
	return m
}

func (ld *ladder) n(full int) int { return max(64, full/ld.scale) }

// tuples sizes a rung that pushes tuples through the workload's probe:
// a scan inspects the whole window per tuple, an index a few entries.
func (ld *ladder) tuples(scan, indexed int) int {
	if ld.r.w.keyed {
		return ld.n(indexed)
	}
	return ld.n(scan)
}

// tuple returns tuple seq of a side as the engine would stamp it.
func (ld *ladder) tuple(side int, seq uint64) stup {
	return stup{Seq: seq, TS: int64(seq) * ld.r.w.period, Home: stream.NoHome, Payload: ld.r.pool[side][seq%poolLen]}
}

// layerShape is the engine shape the ladder reuses for its core, lane
// and probe rungs.
type layerShape struct {
	cfg      config
	adaptive bool
	shards   int
	duration bool // Duration windows (time-based expiry)
}

func (ld *ladder) shape() layerShape {
	c := ld.r.w.engineConfig(func(item) {}, "")
	return layerShape{cfg: c, adaptive: c.Adapt.Enable, shards: max(1, c.Shards), duration: c.WindowR.Duration > 0}
}

// coreConfig is a one-node pipeline configuration with the workload's
// index and predicate.
func (ld *ladder) coreConfig(sh layerShape) *core.Config[tup, tup] {
	cc := &core.Config[tup, tup]{Nodes: 1, Pred: ld.r.w.pred, KeyR: sh.cfg.KeyR, KeyS: sh.cfg.KeyS}
	switch sh.cfg.Index {
	case hj.HashIndex:
		cc.Index = core.IndexHash
	case hj.IndexAuto:
		cc.Probe = probe.NewTable(probe.Config{Groups: shard.DefaultGroups(sh.shards), Class: probe.ClassEqui, Lanes: 1, Nodes: 1})
	}
	return cc
}

// run climbs every rung and returns the reconciliation sum: the layer
// self times, in ns, that one pushed tuple pays end to end.
func (ld *ladder) run() (float64, error) {
	sh := ld.shape()
	w := ld.r.w
	ld.adaptRungs(sh)
	ld.shardRungs(sh)
	ld.pipelineRungs()
	core := ld.coreRungs(sh)
	ld.storeRungs(sh)
	ld.probeRungs(sh)
	ld.outputRungs()
	if err := ld.walRungs(); err != nil {
		return 0, err
	}
	ld.kangRung()

	// lane_self: what the lane driver adds on top of the node work and
	// the pipeline hops it causes (one arrival and one expiry message
	// per Batch tuples, one node).
	hop := ld.rep.Metrics["pipeline.hop_ns_per_msg"].Value
	msgsPerTuple := 2 / float64(sh.cfg.Batch)
	lane := ld.rep.Metrics["shard.lane_ns_per_tuple"].Value
	self := lane - core - hop*msgsPerTuple
	ld.rep.set("shard.lane_self_ns_per_tuple", self, "ns")

	// Reconciliation: the layer self times one pushed tuple pays.
	admit := ld.rep.Metrics["adapt.admit_batch_ns_per_tuple"].Value
	if w.callerBatch == 1 {
		admit = ld.rep.Metrics["adapt.admit_ns_per_tuple"].Value
	}
	if sh.shards == 1 {
		admit = 0 // single pipeline: no router
	}
	sum := admit + ld.rep.Metrics["shard.expiry_ns_per_tuple"].Value + lane
	if sh.adaptive {
		sum += ld.rep.Metrics["adapt.observe_expire_ns_per_tuple"].Value
	}
	rpt := ld.rep.Metrics["root.results_per_tuple"].Value
	sum += rpt * ld.rep.Metrics["collect.run_once_ns_per_result"].Value
	if sh.shards > 1 {
		sum += rpt * ld.rep.Metrics["shard.merge_ns_per_item"].Value
	}
	if w.ordered {
		sum += rpt * ld.rep.Metrics["order.sorter_ns_per_result"].Value
	}
	if w.durable {
		sum += ld.rep.Metrics["wal.append_ns_per_record"].Value / float64(w.callerBatch)
	}
	return sum, nil
}

func (ld *ladder) adaptRungs(sh layerShape) {
	shards := max(2, sh.shards)
	var floor int64
	newRouter := func(adaptive bool) *adapt.Router {
		return adapt.NewRouter(shard.NewPartitionerGroups(shards, shard.DefaultGroups(shards)), adaptive,
			func() int64 { return floor })
	}
	// Batch admission runs on a router as adaptive as the workload's
	// (a non-adaptive one degrades to a bulk table lookup); per-tuple
	// Admit and the count-expiry release only exist on an adaptive one —
	// a non-adaptive engine routes per tuple through Of.
	router, accounting := newRouter(sh.adaptive), newRouter(true)
	const cb = 256
	keys := make([]uint64, cb)
	tss := make([]int64, cb)
	lanes := make([]int, cb)
	groups := make([]uint32, cb)
	probes := make([]int, cb)
	batches := ld.n(4000)
	var seq uint64
	ld.rung("adapt.admit_batch_ns_per_tuple", "ns", 1, func() (int, time.Duration) {
		var el time.Duration
		for b := 0; b < batches; b++ {
			for k := range keys {
				keys[k] = ld.r.pool[0][seq%poolLen].Key
				tss[k] = int64(seq) * ld.r.w.period
				seq++
			}
			floor = tss[0]
			t0 := time.Now()
			router.AdmitBatch(stream.R, keys, true, tss, 0, lanes, groups, probes)
			el += time.Since(t0)
			if sh.adaptive { // keep the live counts bounded
				router.ObserveCountExpireBulk(stream.R, groups, tss)
			}
		}
		return batches * cb, el
	})
	n := ld.n(400000)
	gs := make([]uint32, n)
	var observe time.Duration
	ld.rung("adapt.admit_ns_per_tuple", "ns", 1, func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_, gs[i] = accounting.Admit(stream.R, ld.r.pool[0][i%poolLen].Key, true, 0, false)
		}
		t1 := time.Now()
		for i := 0; i < n; i++ {
			accounting.ObserveCountExpire(stream.R, gs[i], int64(i))
		}
		observe = time.Since(t1)
		return n, t1.Sub(t0)
	})
	ld.rep.set("adapt.observe_expire_ns_per_tuple", float64(observe)/float64(n), "ns")
	var sink int
	ld.rung("adapt.route_of_ns", "ns", 1, func() (int, time.Duration) {
		for i := 0; i < n; i++ {
			sink += router.Of(ld.r.pool[0][i%poolLen].Key)
		}
		return n, 0
	})
	part := router.Partitioner()
	ld.rung("shard.partition_ns", "ns", 1, func() (int, time.Duration) {
		for i := 0; i < n; i++ {
			sink += part.Of(ld.r.pool[1][i%poolLen].Key)
		}
		return n, 0
	})
	_ = sink
}

// countingNode wraps a node and counts the arrival batches the lane
// driver flushes into it, which the lane does not export.
type countingNode struct {
	core.NodeLogic[tup, tup]
	arrivals *uint64
}

func (c countingNode) count(m msg) {
	if m.Kind == core.KindArrival {
		*c.arrivals++
	}
}

func (c countingNode) HandleLeft(m msg, em core.Emitter[tup, tup]) {
	c.count(m)
	c.NodeLogic.HandleLeft(m, em)
}

func (c countingNode) HandleRight(m msg, em core.Emitter[tup, tup]) {
	c.count(m)
	c.NodeLogic.HandleRight(m, em)
}

func (ld *ladder) shardRungs(sh layerShape) {
	w := ld.r.w
	n := ld.tuples(6000, 300000)
	var arrivals uint64
	ld.rung("shard.lane_ns_per_tuple", "ns", 1, func() (int, time.Duration) {
		arrivals = 0
		cc := ld.coreConfig(sh)
		lane := shard.NewLane(shard.LaneConfig{
			Workers: 1, Batch: sh.cfg.Batch, MaxInFlight: 16, CollectPeriod: time.Millisecond,
			Punctuate: w.ordered, Clock: clock.NewWall(), Recycle: true,
		}, func(k int) core.NodeLogic[tup, tup] {
			// One worker: the counter is written by its goroutine only.
			return countingNode{core.NewNode(cc, k), &arrivals}
		}, func(collect.Item[tup, tup]) {})
		cb := w.callerBatch
		bufs := [2][]stup{make([]stup, cb), make([]stup, cb)}
		exp := make([]shard.ExpiryEntry, 0, cb)
		t0 := time.Now()
		for i := 0; i < n; i += cb {
			for side, buf := range bufs {
				exp = exp[:0]
				for k := range buf {
					seq := uint64(i + k)
					buf[k] = ld.tuple(side, seq)
					switch {
					case sh.duration:
						exp = append(exp, shard.ExpiryEntry{Seq: seq, Due: buf[k].TS + int64(w.window)*w.period})
					case seq >= uint64(w.window):
						exp = append(exp, shard.ExpiryEntry{Seq: seq - uint64(w.window), Due: buf[k].TS})
					}
				}
				if sh.duration {
					lane.QueueExpiryBulk(stream.Side(side), exp, nil)
				} else {
					lane.QueueExpiryBulk(stream.Side(side), nil, exp)
				}
			}
			lane.PushRBulk(bufs[0])
			lane.PushSBulk(bufs[1])
		}
		lane.Settle()
		el := time.Since(t0)
		lane.Close()
		return 2 * n, el
	})
	ld.rep.set("shard.flush_batches_per_ktuple", float64(arrivals)/float64(2*n)*1000, "count")

	ops := ld.n(400000)
	ld.rung("shard.expiry_ns_per_tuple", "ns", 1, func() (int, time.Duration) {
		q := shard.NewExpiryQueue(false)
		const cb = 256
		entries := make([]shard.ExpiryEntry, cb)
		seqs := make([]uint64, 0, cb)
		for i := 0; i < ops; i += cb {
			for k := range entries {
				entries[k] = shard.ExpiryEntry{Seq: uint64(i + k), Due: int64(i + k)}
			}
			if sh.duration {
				for _, e := range entries {
					q.PushDur(e.Seq, e.Due, false)
				}
			} else {
				q.PushBulk(nil, entries)
			}
			seqs = q.PopDueInto(int64(i+cb), uint64(i+cb), seqs[:0])
		}
		return ops, 0
	})
	ld.rung("shard.merge_ns_per_item", "ns", 1, func() (int, time.Duration) {
		m := shard.NewMerge[tup, tup](2, func(collect.Item[tup, tup]) {})
		for i := 0; i < ops; i++ {
			it := collect.Item[tup, tup]{}
			if i%64 == 63 {
				it = collect.Item[tup, tup]{Punct: true, TS: int64(i)}
			}
			m.FromShard(i&1, it)
		}
		return ops, 0
	})
}

// forwarder is the pass-through node logic of the pipeline rungs: it
// forwards every message to the far end and does nothing else.
type forwarder struct{ k, n int }

func (f forwarder) HandleLeft(m msg, em core.Emitter[tup, tup]) {
	if f.k < f.n-1 {
		em.EmitRight(m)
	}
}

func (f forwarder) HandleRight(m msg, em core.Emitter[tup, tup]) {
	if f.k > 0 {
		em.EmitLeft(m)
	}
}

func (forwarder) Stats() core.Stats { return core.Stats{} }

// pipelineNodes is the pipeline length of the hop and traverse rungs.
const pipelineNodes = 4

func (ld *ladder) pipelineRungs() {
	const depthCap = 16
	newLive := func() *pipeline.Live[tup, tup] {
		return pipeline.NewLive(pipelineNodes, func(k int) core.NodeLogic[tup, tup] {
			return forwarder{k, pipelineNodes}
		}, clock.NewWall(), pipeline.LiveConfig{DepthCap: depthCap})
	}
	msgs := ld.n(100000)
	var blocked, injected int
	ld.rung("pipeline.hop_ns_per_msg", "ns", 1, func() (int, time.Duration) {
		lv := newLive()
		t0 := time.Now()
		for i := 0; i < msgs; i++ {
			// Inject waits while the pipeline is DepthCap deep; seeing it
			// that deep just before the call is the observable proxy.
			if lv.QueueDepth() >= depthCap {
				blocked++
			}
			injected++
			lv.Inject(pipeline.LeftEnd, msg{Kind: core.KindAck})
		}
		lv.Quiesce()
		el := time.Since(t0)
		lv.Stop()
		return msgs * pipelineNodes, el
	})
	ld.rep.set("pipeline.inject_block_frac", float64(blocked)/float64(max(injected, 1)), "frac")
	one := ld.n(3000)
	ld.rung("pipeline.traverse_us", "us", 1e3, func() (int, time.Duration) {
		lv := newLive()
		t0 := time.Now()
		for i := 0; i < one; i++ {
			lv.Inject(pipeline.LeftEnd, msg{Kind: core.KindAck})
			lv.Quiesce()
		}
		el := time.Since(t0)
		lv.Stop()
		return one, el
	})
	ops := ld.n(1000000)
	ld.rung("fifo.deque_ns_per_op", "ns", 1, func() (int, time.Duration) {
		d := fifo.NewDeque[msg](64)
		for i := 0; i < ops; i++ {
			_ = d.Put(msg{}) // an open Deque never refuses
			d.TryGet()
		}
		return 2 * ops, 0
	})
	ld.rung("fifo.chan_ns_per_op", "ns", 1, func() (int, time.Duration) {
		c := fifo.NewChan[result](64)
		for i := 0; i < ops; i++ {
			_, _ = c.TryPut(result{}) // never full: drained every iteration
			c.TryGet()
		}
		return 2 * ops, 0
	})
}

// stubEmitter is the Emitter of the core rungs: it counts and drops.
type stubEmitter struct{ results int }

func (*stubEmitter) EmitLeft(msg)                       {}
func (*stubEmitter) EmitRight(msg)                      {}
func (e *stubEmitter) EmitResult(stream.Pair[tup, tup]) { e.results++ }
func (*stubEmitter) StreamEnd(stream.Side, int64)       {}
func (*stubEmitter) Cost(int)                           {}

// coreRungs drives one node with a stub emitter through the steady
// state of the workload's windows and returns arrival+expiry ns/tuple.
func (ld *ladder) coreRungs(sh layerShape) float64 {
	w := ld.r.w
	n := ld.tuples(6000, 300000)
	batch := sh.cfg.Batch
	var arrive, expire time.Duration
	var comparisons uint64
	// step pushes tuples [i, i+batch) of both streams into node, after
	// expiring the tuples they push out of the windows.
	step := func(node *core.Node[tup, tup], em *stubEmitter, i int, rs, ss []stup, exp []uint64) {
		exp = exp[:0]
		for k := 0; k < batch; k++ {
			seq := uint64(i + k)
			rs[k], ss[k] = ld.tuple(0, seq), ld.tuple(1, seq)
			if seq >= uint64(w.window) {
				exp = append(exp, seq-uint64(w.window))
			}
		}
		t0 := time.Now()
		if len(exp) > 0 {
			node.HandleLeft(msg{Kind: core.KindExpiry, Side: stream.S, Seqs: exp}, em)
			node.HandleRight(msg{Kind: core.KindExpiry, Side: stream.R, Seqs: exp}, em)
		}
		t1 := time.Now()
		node.HandleLeft(msg{Kind: core.KindArrival, Side: stream.R, R: rs}, em)
		node.HandleRight(msg{Kind: core.KindArrival, Side: stream.S, S: ss}, em)
		expire += t1.Sub(t0)
		arrive += time.Since(t1)
	}
	arriveNs := ld.rung("core.arrival_ns_per_tuple", "ns", 1, func() (int, time.Duration) {
		node := core.NewNode(ld.coreConfig(sh), 0)
		em := &stubEmitter{}
		rs, ss, exp := make([]stup, batch), make([]stup, batch), make([]uint64, 0, batch)
		i := 0
		for ; i < w.window; i += batch { // fill, not measured
			step(node, em, i, rs, ss, exp)
		}
		arrive, expire = 0, 0
		c0 := node.Stats().Comparisons
		for ; i < w.window+n; i += batch {
			step(node, em, i, rs, ss, exp)
		}
		comparisons = node.Stats().Comparisons - c0
		return 2 * n, arrive
	})
	// The last repetition's expiry time and comparison count.
	expireNs := float64(expire) / float64(2*n)
	ld.rep.set("core.expiry_ns_per_tuple", expireNs, "ns")
	ld.rep.set("core.scan_ns_per_comparison", float64(arrive)/float64(max(comparisons, 1)), "ns")
	return arriveNs + expireNs
}

func (ld *ladder) storeRungs(sh layerShape) {
	w := ld.r.w
	newWindow := func() *store.Window[tup] {
		if sh.cfg.Index == hj.ScanIndex {
			return store.NewWindow[tup]()
		}
		return store.NewWindow(store.WithHashIndex[tup](keyOf))
	}
	fill := func(win *store.Window[tup], upTo int) {
		for i := 0; i < upTo; i++ {
			win.InsertSettled(ld.tuple(0, uint64(i)))
		}
	}
	before := liveHeap()
	held := newWindow()
	fill(held, w.window)
	after := liveHeap()
	var bytes float64
	if after > before {
		bytes = float64(after-before) / float64(w.window)
	}
	ld.rep.set("store.bytes_per_tuple", bytes, "B")

	const block = 64
	n := ld.n(400000)
	var insert, remove time.Duration
	ld.rung("store.insert_ns", "ns", 1, func() (int, time.Duration) {
		win := newWindow()
		fill(win, w.window)
		insert, remove = 0, 0
		for i := w.window; i < w.window+n; i += block {
			t0 := time.Now()
			for k := 0; k < block; k++ {
				win.InsertSettled(ld.tuple(0, uint64(i+k)))
			}
			t1 := time.Now()
			for k := 0; k < block; k++ {
				win.Remove(uint64(i + k - w.window))
			}
			insert += t1.Sub(t0)
			remove += time.Since(t1)
		}
		return n, insert
	})
	ld.rep.set("store.remove_ns", float64(remove)/float64(n), "ns")
	var hits int
	count := func(stup) { hits++ }
	hashed := store.NewWindow(store.WithHashIndex[tup](keyOf))
	fill(hashed, w.window)
	// Without key equality every tuple carries the same key: one chain
	// as long as the window.
	probes := ld.tuples(3000, 400000)
	ld.rung("store.probe_hash_ns", "ns", 1, func() (int, time.Duration) {
		for i := 0; i < probes; i++ {
			hashed.Probe(ld.r.pool[1][i%poolLen].Key, false, count)
		}
		return probes, 0
	})
	scans := ld.n(2000)
	ld.rung("store.scan_ns_per_entry", "ns", 1, func() (int, time.Duration) {
		entries := 0
		for i := 0; i < scans; i++ {
			entries += held.ScanAll(count)
		}
		return entries, 0
	})
}

func (ld *ladder) probeRungs(sh layerShape) {
	tab := probe.NewTable(probe.Config{Groups: shard.DefaultGroups(sh.shards), Class: probe.ClassEqui, Lanes: sh.shards, Nodes: 1})
	n := ld.n(1000000)
	var sink int
	ld.rung("probe.dispatch_ns", "ns", 1, func() (int, time.Duration) {
		for i := 0; i < n; i++ {
			sink += int(tab.StrategyOf(tab.GroupOf(ld.r.pool[0][i%poolLen].Key)))
		}
		return n, 0
	})
	_ = sink
	ld.rung("probe.observe_ns", "ns", 1, func() (int, time.Duration) {
		for i := 0; i < n; i++ {
			tab.Observe(uint32(i)%uint32(tab.Groups()), 64, 2, 1)
		}
		return n, 0
	})
}

func (ld *ladder) outputRungs() {
	n := ld.n(400000)
	res := func(i int) result {
		return result{Pair: stream.Pair[tup, tup]{R: ld.tuple(0, uint64(i)), S: ld.tuple(1, uint64(i^3))}}
	}
	ld.rung("collect.run_once_ns_per_result", "ns", 1, func() (int, time.Duration) {
		const chunk = 4096
		q := fifo.NewChan[result](chunk)
		var hwm int64
		c := collect.New([]*fifo.Chan[result]{q}, func() (int64, int64) { return hwm, hwm },
			func(collect.Item[tup, tup]) {}, collect.Config{Punctuate: true})
		var el time.Duration
		for i := 0; i < n; i += chunk {
			for k := 0; k < chunk; k++ {
				_, _ = q.TryPut(res(i + k)) // sized to the chunk, drained below
			}
			hwm = int64(i+chunk) * ld.r.w.period
			t0 := time.Now()
			c.RunOnce()
			el += time.Since(t0)
		}
		return n, el
	})
	ld.rung("order.sorter_ns_per_result", "ns", 1, func() (int, time.Duration) {
		s := order.NewSorter(func(result) {})
		for i := 0; i < n; i++ {
			s.Push(collect.Item[tup, tup]{Result: res(i)})
			if i%64 == 63 {
				s.Push(collect.Item[tup, tup]{Punct: true, TS: int64(i-3) * ld.r.w.period})
			}
		}
		s.Flush()
		return n, 0
	})
	ld.rung("order.floor_advance_ns", "ns", 1, func() (int, time.Duration) {
		f := order.NewPunctFloor(2)
		for i := 0; i < n; i++ {
			f.Advance(i&1, int64(i))
		}
		return n, 0
	})
}

// discardFS is a filesystem that accepts every write and keeps
// nothing: the WAL through it pays framing, CRC and buffering but no
// device.
type discardFS struct{}

type discardFile struct{ name string }

func (discardFile) Write(p []byte) (int, error)         { return len(p), nil }
func (discardFile) Sync() error                         { return nil }
func (discardFile) Close() error                        { return nil }
func (discardFile) Truncate(int64) error                { return nil }
func (discardFile) Seek(int64, int) (int64, error)      { return 0, nil }
func (f discardFile) Name() string                      { return f.name }
func (discardFS) ReadFile(string) ([]byte, error)       { return nil, os.ErrNotExist }
func (discardFS) ReadDir(string) ([]os.DirEntry, error) { return nil, nil }
func (discardFS) MkdirAll(string, os.FileMode) error    { return nil }
func (discardFS) Remove(string) error                   { return nil }
func (discardFS) Rename(string, string) error           { return nil }
func (discardFS) SyncDir(string) error                  { return nil }
func (discardFS) OpenFile(name string, _ int, _ os.FileMode) (fault.File, error) {
	return discardFile{name}, nil
}

func (ld *ladder) walRungs() error {
	w := ld.r.w
	// One record is one admitted caller batch: count, then (timestamp,
	// 24-byte payload blob) per tuple — the engine's record shape.
	payload := make([]byte, 4+w.callerBatch*(8+4+24))
	records := ld.n(1500)
	if w.callerBatch == 1 {
		records = ld.n(200000)
	}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	appendAll := func(dir string, fs fault.FS) func() (int, time.Duration) {
		return func() (int, time.Duration) {
			if fs == nil {
				note(os.RemoveAll(dir))
			}
			log, err := wal.Open(dir, wal.Options{SyncEvery: durSyncEvery, AsyncSync: true, FS: fs})
			if err != nil {
				note(err)
				return 1, 0
			}
			t0 := time.Now()
			for i := 0; i < records; i++ {
				_, _, err := log.Append(wal.KindR, payload)
				note(err)
			}
			el := time.Since(t0)
			if fs == nil {
				ld.rep.set("wal.bytes_per_tuple", float64(log.Bytes())/float64(records*w.callerBatch), "B")
			}
			note(log.Close())
			return records, el
		}
	}
	dir := filepath.Join(ld.r.dir, "ladder-wal")
	ld.rung("wal.append_ns_per_record", "ns", 1, appendAll(dir, nil))
	ld.rung("wal.append_discard_ns_per_record", "ns", 1, appendAll(dir, discardFS{}))
	ld.rung("wal.replay_ns_per_record", "ns", 1, func() (int, time.Duration) {
		n, err := wal.Replay(dir, 0, func(wal.Record) error { return nil })
		note(err)
		if n != records {
			note(fmt.Errorf("wal replay delivered %d of %d records", n, records))
		}
		return n, 0
	})
	note(os.RemoveAll(dir))
	return firstErr
}

// kangRung pushes a verify-sized prefix through the single-threaded
// reference join: the sheet's single-thread baseline.
func (ld *ladder) kangRung() {
	w := ld.r.w
	n := ld.tuples(6000, 20000)
	nsPerTuple := ld.measure("kang.baseline_tps", func() (int, time.Duration) {
		j := kang.New(w.pred, func(stream.Pair[tup, tup]) {})
		for k := 0; k < n; k++ {
			seq := uint64(k)
			if k >= w.window {
				j.ExpireR(seq - uint64(w.window))
				j.ExpireS(seq - uint64(w.window))
			}
			j.ProcessR(ld.tuple(0, seq))
			j.ProcessS(ld.tuple(1, seq))
		}
		return 2 * n, 0
	})
	ld.rep.set("kang.baseline_tps", 1e9/nsPerTuple, "tuples/s")
}
