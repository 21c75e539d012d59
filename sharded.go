package handshakejoin

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"handshakejoin/internal/adapt"
	"handshakejoin/internal/clock"
	"handshakejoin/internal/collect"
	"handshakejoin/internal/core"
	"handshakejoin/internal/metrics"
	"handshakejoin/internal/obs"
	"handshakejoin/internal/order"
	"handshakejoin/internal/probe"
	"handshakejoin/internal/shard"
	"handshakejoin/internal/stream"
)

// minTS is the "no tuple seen yet" ingress timestamp.
const minTS = -1 << 62

// ShardedEngine scales an equi-join across pipelines: both streams are
// partitioned by join key (Config.KeyR/KeyS) over Shards independent
// LLHJ pipelines, each with its own driver state and collector,
// multiplying throughput while every pipeline keeps the latency and
// punctuation guarantees of the single-pipeline operator.
//
// Routing goes through a key-group indirection table (internal/adapt
// over internal/shard.Partitioner): a key hashes onto one of many
// key-groups, and the table maps groups to shards. With Adapt.Enable a
// control loop samples per-group load, detects skew, and moves groups
// off overloaded shards — cutting each move over only when the group
// provably has no joinable window state left on its old shard, so
// rebalancing never changes the result multiset nor the Ordered-mode
// sequence.
//
// # Semantics
//
// Because the predicate must imply key equality, tuples that could
// ever join are always routed to the same shard, so the sharded result
// multiset is exactly the single-pipeline one. Windows remain global:
// a Count window bounds the total number of in-window tuples across
// all shards, and expiries are routed to the shard owning the tuple.
//
// In Ordered mode, per-shard punctuation streams are merged on their
// high-water marks (internal/shard.Merge over order.PunctFloor): a
// global punctuation ⌈tp⌉ is emitted once every shard has promised tp,
// and the downstream sorter then releases results in exact global
// timestamp order — the same deterministic sequence, independent of
// shard count, scheduling and rebalancing. A shard that receives no
// traffic no longer holds the global punctuation back: a heartbeat
// ticks idle shards with the engine-wide ingress floor each collect
// period (see AdaptConfig), so their promises keep advancing; Close
// still releases everything that is buffered, in order.
//
// # Concurrency
//
// Unlike Engine, the sharded driver accepts concurrent PushR/PushS
// calls from multiple goroutines. Each side takes a short serial
// section (sequence numbers, monotonic-timestamp checks, window
// accounting and routing need a total order per stream) and then hands
// the tuple to the owning shard through a per-shard, per-side ingress
// gate: pushes to the same shard stay in stream order, while pushes to
// different shards — including one blocked on a saturated shard's
// back-pressure — proceed in parallel. The OnOutput callback is
// serialized by the merge stage but may run on any shard's collector
// goroutine.
type ShardedEngine[L, RT any] struct {
	keyR   func(L) uint64
	keyS   func(RT) uint64
	router *adapt.Router
	lanes  []*shard.Lane[L, RT]
	merge  *shard.Merge[L, RT]

	clk clock.Clock

	rmu     sync.Mutex // serializes the R side: seq, ts check, window accounting, routing
	smu     sync.Mutex // serializes the S side
	rLastTS int64
	sLastTS int64
	// rSeq/sSeq are the per-side sequence counters: written only under
	// the side lock (plain load + atomic store), read lock-free by
	// mid-run snapshots.
	rSeq, sSeq atomic.Uint64
	rWin, sWin windowTracker

	// Atomic mirrors of the per-side ingress timestamps: any load is a
	// sound lower bound on every future push of that side, which is
	// what the heartbeat floor and the cut-over protocol rely on.
	rLastAt, sLastAt atomic.Int64

	rDur, sDur int64 // duration window spans (0 when absent)
	rCnt, sCnt bool  // count bounds active

	adaptive bool
	gates    [][2]*ingressGate // per (lane, side) ingress ordering
	activity []atomic.Uint64   // pushes routed per lane (idle detection)
	laneTS   []atomic.Int64    // latest ingress ts routed per lane

	punctuate bool // Config.Punctuate: lanes punctuate, the merge keeps a floor

	// Batched-ingress state. rsc/ssc are the per-side routing and
	// expiry-schedule scratch, consumed entirely under that side's
	// stream lock; rOne/sOne back the batch-of-one per-tuple wrappers
	// (also guarded by the side locks). The fan-out plans outlive the
	// side lock — the gate walk reads them after unlock, and another
	// pusher may refill the scratch meanwhile — so they are pooled per
	// call. expireRBulk/expireSBulk are bound once so admission
	// allocates no closures.
	rsc, ssc                 admitScratch
	rPlans, sPlans           sync.Pool
	expireRBulk, expireSBulk expireFn
	expireROne, expireSOne   expireFn

	ctrl     *adapt.Controller
	hbPeriod time.Duration
	// hbMu is held by the heartbeat loop for each tick's lane walk and
	// by Checkpoint for its cut: a heartbeat flushing a lane's partial
	// batch between that lane's snapshot and the drain of its result
	// queues would put the batch's results into the snapshotted sorter
	// and leave the batch in the snapshotted buffer to produce them
	// again after Restore.
	hbMu     sync.Mutex
	watchdog time.Duration // AdaptConfig.StallWatchdog (0 = off)
	stop     chan struct{}
	bg       sync.WaitGroup

	// guard enforces Config.MaxLiveTuples at admission (nil when
	// disabled); floorStalled is the heartbeat loop's watchdog verdict.
	guard        *overloadGuard
	floorStalled atomic.Bool

	stateMigrations atomic.Uint64
	migratedTuples  atomic.Uint64
	sliceMigrations atomic.Uint64
	freezeStalls    atomic.Uint64
	maxStallNs      atomic.Int64
	sliceTuples     int

	// probeTab is the IndexAuto strategy table shared by every lane's
	// nodes (group IDs align with the router's key-groups); nil under a
	// static Index.
	probeTab *probe.Table

	sorter  *order.Sorter[L, RT]
	sortMu  sync.Mutex // sorter access: merge callbacks vs Close's final Flush
	closed  atomic.Bool
	closeMu sync.Mutex

	// dur is the durability runtime (Config.Durability): the WAL
	// handle, the replay flag, and checkpoint bookkeeping.
	dur durState[L, RT]

	// Observability layer (Config.Obs); all nil/absent when disabled.
	ring    *obs.Ring
	obsSrv  *obs.Server
	outHist *metrics.AtomicHistogram
}

// ingressGate serializes same-lane pushes of one stream side in ticket
// order. Tickets are issued under the side lock (establishing the
// stream order); the push then enters the gate outside that lock, so
// the lane append — which can block on a saturated pipeline's
// back-pressure — stalls only pushers of the same lane instead of the
// whole stream side. Waiting spins through the scheduler: the
// uncontended path is two atomic operations, and a waiter is by
// definition behind a peer that is appending — or, when that peer has
// parked on its pipeline's MaxInFlight bound (pipeline.Live.Inject
// yields only while the pipeline keeps moving, then sleeps), behind a
// peer that is asleep, in which case the waiter here still yields in a
// loop until the peer is woken and leaves the gate.
type ingressGate struct {
	tail atomic.Uint64 // tickets issued; written under the side lock
	next atomic.Uint64 // tickets completed
}

func newIngressGate() *ingressGate { return &ingressGate{} }

// issue hands out the next ticket; callers hold the side lock.
func (g *ingressGate) issue() uint64 {
	t := g.tail.Load()
	g.tail.Store(t + 1)
	return t
}

// enter blocks until ticket t's turn.
func (g *ingressGate) enter(t uint64) {
	for g.next.Load() != t {
		runtime.Gosched()
	}
}

// leave completes the current ticket.
func (g *ingressGate) leave() { g.next.Add(1) }

// drained reports whether every issued ticket has completed. Exact
// only while no new tickets can be issued; otherwise a conservative
// snapshot.
func (g *ingressGate) drained() bool { return g.next.Load() == g.tail.Load() }

// waitDrained blocks until every issued ticket has completed; callers
// must prevent new tickets (hold the side lock, or have marked the
// engine closed).
func (g *ingressGate) waitDrained() {
	for !g.drained() {
		runtime.Gosched()
	}
}

// admitScratch is one stream side's batched-admission scratch: keys,
// timestamps, per-tuple routing results, and the per-lane expiry
// entries one caller batch schedules. Everything here is written and
// consumed under the side's stream lock.
type admitScratch struct {
	keys   []uint64
	tss    []int64
	lanes  []int
	groups []uint32
	probes []int
	dur    [][]shard.ExpiryEntry // per-lane duration-bound entries
	cnt    [][]shard.ExpiryEntry // per-lane count-bound entries
	relG   []uint32              // count-release groups, batch order
	relDue []int64               // matching expiry deadlines
}

func (sc *admitScratch) ensure(n, shards int) {
	if cap(sc.keys) < n {
		sc.keys = make([]uint64, n)
		sc.tss = make([]int64, n)
		sc.lanes = make([]int, n)
		sc.groups = make([]uint32, n)
		sc.probes = make([]int, n)
	}
	sc.keys = sc.keys[:n]
	sc.tss = sc.tss[:n]
	sc.lanes = sc.lanes[:n]
	sc.groups = sc.groups[:n]
	sc.probes = sc.probes[:n]
	if sc.dur == nil {
		sc.dur = make([][]shard.ExpiryEntry, shards)
		sc.cnt = make([][]shard.ExpiryEntry, shards)
	}
}

// fanPlan is the fan-out of one caller batch: each touched lane's
// sub-batch of full arrivals, its probe-only double-read slice, and
// the gate ticket covering both. A plan outlives the side lock (the
// gate walk reads it after unlock), so plans are pooled per call; the
// tuple slices are safe to reuse once the walk completes because
// lanes copy tuples into their own buffers.
type fanPlan[T any] struct {
	full    [][]stream.Tuple[T]
	probe   [][]stream.Tuple[T]
	tickets []uint64
	used    []bool
	touched []int
}

func (p *fanPlan[T]) reset(shards int) {
	if len(p.full) != shards {
		p.full = make([][]stream.Tuple[T], shards)
		p.probe = make([][]stream.Tuple[T], shards)
		p.tickets = make([]uint64, shards)
		p.used = make([]bool, shards)
		p.touched = p.touched[:0]
		return
	}
	for _, lane := range p.touched {
		p.full[lane] = p.full[lane][:0]
		p.probe[lane] = p.probe[lane][:0]
		p.used[lane] = false
	}
	p.touched = p.touched[:0]
}

func (p *fanPlan[T]) mark(lane int) {
	if !p.used[lane] {
		p.used[lane] = true
		p.touched = append(p.touched, lane)
	}
}

// newSharded builds and starts a ShardedEngine from a validated
// configuration with cfg.Shards > 1.
func newSharded[L, RT any](cfg Config[L, RT]) (*ShardedEngine[L, RT], error) {
	groups := cfg.Adapt.KeyGroups
	if groups == 0 {
		groups = shard.DefaultGroups(cfg.Shards)
	}
	e := &ShardedEngine[L, RT]{
		keyR:     cfg.KeyR,
		keyS:     cfg.KeyS,
		clk:      clock.NewWall(),
		rLastTS:  minTS,
		sLastTS:  minTS,
		rWin:     windowTracker{spec: cfg.WindowR},
		sWin:     windowTracker{spec: cfg.WindowS},
		rDur:     int64(cfg.WindowR.Duration),
		sDur:     int64(cfg.WindowS.Duration),
		rCnt:     cfg.WindowR.Count > 0,
		sCnt:     cfg.WindowS.Count > 0,
		adaptive: cfg.Adapt.Enable,
		stop:     make(chan struct{}),

		punctuate: cfg.Punctuate,
	}
	e.sliceTuples = cfg.Adapt.Migration.SliceTuples
	if e.sliceTuples == 0 {
		e.sliceTuples = 1024
	}
	if cfg.Obs.enabled() {
		e.ring = obs.NewRing(cfg.Obs.ringSize())
		e.outHist = &metrics.AtomicHistogram{}
	}
	if err := e.dur.init(&cfg); err != nil {
		return nil, err
	}
	e.dur.ring = e.ring
	e.rLastAt.Store(minTS)
	e.sLastAt.Store(minTS)
	e.rPlans.New = func() any { return &fanPlan[L]{} }
	e.sPlans.New = func() any { return &fanPlan[RT]{} }
	// The bulk closures defer the router's count releases into the
	// side's scratch: one ObserveCountExpireBulk call per caller batch
	// locks each touched stripe once, instead of one stripe lock per
	// expired tuple (the per-entry path's cost).
	e.expireRBulk = func(lane int, group uint32, seq uint64, due int64, counted, settled bool) {
		if counted {
			e.rsc.cnt[lane] = append(e.rsc.cnt[lane], shard.ExpiryEntry{Seq: seq, Due: due, Settled: settled})
			if e.adaptive {
				e.rsc.relG = append(e.rsc.relG, group)
				e.rsc.relDue = append(e.rsc.relDue, due)
			}
		} else {
			e.rsc.dur[lane] = append(e.rsc.dur[lane], shard.ExpiryEntry{Seq: seq, Due: due, Settled: settled})
		}
	}
	e.expireSBulk = func(lane int, group uint32, seq uint64, due int64, counted, settled bool) {
		if counted {
			e.ssc.cnt[lane] = append(e.ssc.cnt[lane], shard.ExpiryEntry{Seq: seq, Due: due, Settled: settled})
			if e.adaptive {
				e.ssc.relG = append(e.ssc.relG, group)
				e.ssc.relDue = append(e.ssc.relDue, due)
			}
		} else {
			e.ssc.dur[lane] = append(e.ssc.dur[lane], shard.ExpiryEntry{Seq: seq, Due: due, Settled: settled})
		}
	}
	// The single-tuple fast path queues straight to the lane; no
	// scratch, no fan-out plan.
	e.expireROne = func(lane int, group uint32, seq uint64, due int64, counted, settled bool) {
		e.lanes[lane].QueueExpiry(stream.R, seq, due, counted, settled)
		if counted && e.adaptive {
			e.router.ObserveCountExpire(stream.R, group, due)
		}
	}
	e.expireSOne = func(lane int, group uint32, seq uint64, due int64, counted, settled bool) {
		e.lanes[lane].QueueExpiry(stream.S, seq, due, counted, settled)
		if counted && e.adaptive {
			e.router.ObserveCountExpire(stream.S, group, due)
		}
	}
	part := shard.NewPartitionerGroups(cfg.Shards, groups)
	e.router = adapt.NewRouter(part, cfg.Adapt.Enable, e.ingressFloor)
	if cfg.Index == IndexAuto {
		// The strategy table shares the router's group space, so the
		// controller can feed it the authoritative per-group window
		// cardinality it already samples.
		pcfg := probe.Config{
			Groups: groups,
			Class:  probeClass(cfg.Class),
			Band:   cfg.Band,
			Lanes:  cfg.Shards,
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
	out := cfg.OnOutput
	if cfg.Ordered {
		var sorted func(Item[L, RT])
		sorted, e.sorter = sortedOutput(cfg.OnOutput)
		out = func(it Item[L, RT]) {
			e.sortMu.Lock()
			defer e.sortMu.Unlock()
			sorted(it)
		}
	}
	if e.outHist != nil {
		out = wrapLatency(e.outHist, e.clk.Now, out)
	}
	e.merge = shard.NewMerge[L, RT](cfg.Shards, func(it collect.Item[L, RT]) { out(it) })
	e.lanes = make([]*shard.Lane[L, RT], cfg.Shards)
	e.gates = make([][2]*ingressGate, cfg.Shards)
	e.activity = make([]atomic.Uint64, cfg.Shards)
	e.laneTS = make([]atomic.Int64, cfg.Shards)
	lcfg := laneConfig(&cfg, e.clk, cfg.Punctuate)
	for i := range e.lanes {
		i := i
		// Each lane gets its own builder so the window stores' rare-path
		// trace events carry the shard they happened on.
		build, err := builderFor(&cfg, e.laneTrace(i), e.probeTab)
		if err != nil {
			return nil, err
		}
		e.lanes[i] = shard.NewLane(lcfg, build, func(it collect.Item[L, RT]) {
			e.merge.FromShard(i, it)
		})
		e.gates[i] = [2]*ingressGate{newIngressGate(), newIngressGate()}
		e.laneTS[i].Store(minTS)
	}
	if cfg.MaxLiveTuples > 0 {
		e.guard = newOverloadGuard(cfg.MaxLiveTuples, func() int64 {
			var live int64
			for _, l := range e.lanes {
				// Batch buffer before window gauges: a tuple flushed
				// between the two reads is seen by the gauge walk,
				// never dropped from both.
				live += l.Buffered()
				agg := l.PipelineStats()
				live += int64(agg.LiveWR) + int64(agg.LiveWS)
			}
			return live
		})
	}
	if !cfg.Adapt.DisableHeartbeat {
		e.hbPeriod = cfg.Adapt.HeartbeatPeriod
		if e.hbPeriod <= 0 {
			e.hbPeriod = cfg.CollectPeriod
		}
		if cfg.Punctuate {
			// Without punctuations the merged floor never advances, so
			// the watchdog would only ever cry wolf.
			e.watchdog = cfg.Adapt.StallWatchdog
		}
		e.bg.Add(1)
		go e.heartbeatLoop()
	}
	if cfg.Adapt.Enable {
		probes := make([]adapt.Probe, cfg.Shards)
		for i, l := range e.lanes {
			probes[i] = laneProbe[L, RT]{l: l}
		}
		acfg := adapt.Config{
			SamplePeriod:     cfg.Adapt.SamplePeriod,
			SkewThreshold:    cfg.Adapt.SkewThreshold,
			MaxMovesPerCycle: cfg.Adapt.MaxMovesPerCycle,
			StaleMoveCycles:  uint64(max(cfg.Adapt.StaleMoveCycles, 0)),
			EngageThreshold:  cfg.Adapt.EngageThreshold,
			DisengageRatio:   cfg.Adapt.DisengageRatio,
		}
		if e.ring != nil {
			acfg.Trace = func(kind string, a, b int64) {
				e.ring.Emit(kind, -1, -1, a, b)
			}
		}
		// The controller's sampling cycle feeds the strategy table the
		// router's per-group live cardinality (IndexAuto only).
		acfg.ProbeTable = e.probeTab
		if cfg.Adapt.Migration.Enable {
			acfg.MigrateBudget = cfg.Adapt.Migration.MaxTuplesPerCycle
			if acfg.MigrateBudget == 0 {
				acfg.MigrateBudget = 4096
			}
			acfg.MigrateAfterCycles = uint64(max(cfg.Adapt.Migration.AfterCycles, 0))
			acfg.MinMigrateLoad = cfg.Adapt.Migration.MinGroupLoad
			acfg.MinGapRatio = cfg.Adapt.Migration.MinGapRatio
			acfg.MaxMigrationsPerSec = cfg.Adapt.Migration.MaxMigrationsPerSec
			if cfg.Adapt.Migration.Freezing {
				acfg.Migrator = func(group uint32, to int, budget int) (int, bool) {
					n, err := e.migrate(group, to, budget)
					return n, err == nil
				}
			} else {
				acfg.SliceTuples = e.sliceTuples
				acfg.BeginHandoff = func(group uint32, to int) bool {
					return e.beginHandoff(group, to) == nil
				}
				acfg.AdvanceHandoff = func(group uint32, maxTuples int) (int, bool, bool) {
					n, done, err := e.advanceHandoff(group, maxTuples)
					if err != nil {
						// Closing, or the handoff is gone: drop it
						// without counting a migration.
						return 0, true, false
					}
					return n, done, done
				}
			}
		}
		e.ctrl = adapt.NewController(e.router, probes,
			func(lane int) int64 { return e.laneTS[lane].Load() },
			acfg)
		if cfg.Adapt.SamplePeriod >= 0 {
			e.bg.Add(1)
			go func() {
				defer e.bg.Done()
				e.ctrl.Run(e.stop)
			}()
		}
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

// laneTrace returns the rare-path trace sink for one lane's window
// stores (nil when tracing is off, which also disables the stores'
// callback entirely).
func (e *ShardedEngine[L, RT]) laneTrace(lane int) func(kind string, a, b int64) {
	if e.ring == nil {
		return nil
	}
	return func(kind string, a, b int64) {
		e.ring.Emit(kind, lane, -1, a, b)
	}
}

// emit records one control-plane trace event; a no-op when tracing is
// off.
func (e *ShardedEngine[L, RT]) emit(kind string, shard int, group int64, a, b int64) {
	e.ring.Emit(kind, shard, group, a, b)
}

// laneProbe adapts a Lane to the adapt.Probe sampling interface.
type laneProbe[L, RT any] struct{ l *shard.Lane[L, RT] }

func (p laneProbe[L, RT]) Results() uint64 { return p.l.Collected() }
func (p laneProbe[L, RT]) QueueDepth() int { return p.l.QueueDepth() }

// ingressFloor returns the minimum ingress timestamp over both sides:
// every future tuple of either side is stamped at or above it.
func (e *ShardedEngine[L, RT]) ingressFloor() int64 {
	r, s := e.rLastAt.Load(), e.sLastAt.Load()
	if s < r {
		r = s
	}
	return r
}

// PushR submits an R tuple. Safe for concurrent use; concurrent
// callers must still jointly respect the per-stream timestamp
// monotonicity (the driver serializes them in lock-acquisition order).
// Semantically a one-element PushRBatch, on a dedicated single-tuple
// path that skips the fan-out machinery (the oracle suites pin the
// two paths to the same results, Ordered sequence and counters).
func (e *ShardedEngine[L, RT]) PushR(payload L, ts int64) error {
	e.rmu.Lock()
	if e.closed.Load() {
		e.rmu.Unlock()
		return fmt.Errorf("handshakejoin: engine closed")
	}
	if ts < e.rLastTS {
		e.rmu.Unlock()
		return fmt.Errorf("handshakejoin: R timestamp regressed: %d after %d", ts, e.rLastTS)
	}
	// Admission control runs before the WAL append: a rejected push
	// was never logged, so replay cannot resurrect it.
	if err := e.guard.admit(1, e.dur.replaying.Load()); err != nil {
		e.rmu.Unlock()
		return err
	}
	if e.dur.active() {
		// Log before any state changes, under the side lock so the WAL
		// order of one side is the admission order.
		if err := e.dur.appendR1(payload, ts); err != nil {
			e.rmu.Unlock()
			return err
		}
	}
	e.rLastTS = ts
	e.rLastAt.Store(ts)
	var lane int
	var group uint32
	probeLane := -1
	if e.adaptive {
		lane, group = e.router.Admit(stream.R, e.keyR(payload), e.rCnt, ts+e.rDur, e.rDur > 0)
		probeLane = e.router.ProbeLane(group)
	} else {
		lane = e.router.Of(e.keyR(payload))
	}
	seq := e.rSeq.Load()
	e.rSeq.Store(seq + 1)
	t := stream.Tuple[L]{Seq: seq, TS: ts, Wall: e.clk.Now(), Home: stream.NoHome, Payload: payload}
	e.rWin.onArrival(t.Seq, ts, lane, group, e.expireROne)
	e.activity[lane].Add(1)
	raiseInt64(&e.laneTS[lane], ts)
	gate := e.gates[lane][0]
	ticket := gate.issue()
	// The group is mid-handoff: its window state is split between two
	// lanes. The arrival is stored and probed at its new lane above;
	// a probe-only double-read covers the slices still on the old one.
	// Both tickets are issued under the side lock, so ticket order on
	// every gate agrees with stream order and the two-gate walk cannot
	// deadlock. The double-read does not count as lane activity:
	// probe-only arrivals advance no high-water mark, so a source lane
	// living on double-reads alone still needs its heartbeat to keep
	// the merged punctuation floor — and Ordered-mode output — moving
	// while the handoff is open (the heartbeat's flush-and-quiesce
	// retires in-flight probes before promising, so the promise stays
	// sound), and Stats.ShardIngress keeps counting routed tuples
	// only.
	var pGate *ingressGate
	var pTicket uint64
	if probeLane >= 0 {
		pGate = e.gates[probeLane][0]
		pTicket = pGate.issue()
	}
	e.rmu.Unlock()

	gate.enter(ticket)
	e.lanes[lane].PushR(t)
	gate.leave()
	if pGate != nil {
		pGate.enter(pTicket)
		e.lanes[probeLane].ProbeR(t)
		pGate.leave()
	}
	return e.dur.maybeAutoCheckpoint(e.Checkpoint)
}

// PushS submits an S tuple. Safe for concurrent use.
func (e *ShardedEngine[L, RT]) PushS(payload RT, ts int64) error {
	e.smu.Lock()
	if e.closed.Load() {
		e.smu.Unlock()
		return fmt.Errorf("handshakejoin: engine closed")
	}
	if ts < e.sLastTS {
		e.smu.Unlock()
		return fmt.Errorf("handshakejoin: S timestamp regressed: %d after %d", ts, e.sLastTS)
	}
	// Admission control before the WAL append; see PushR.
	if err := e.guard.admit(1, e.dur.replaying.Load()); err != nil {
		e.smu.Unlock()
		return err
	}
	if e.dur.active() {
		if err := e.dur.appendS1(payload, ts); err != nil {
			e.smu.Unlock()
			return err
		}
	}
	e.sLastTS = ts
	e.sLastAt.Store(ts)
	var lane int
	var group uint32
	probeLane := -1
	if e.adaptive {
		lane, group = e.router.Admit(stream.S, e.keyS(payload), e.sCnt, ts+e.sDur, e.sDur > 0)
		probeLane = e.router.ProbeLane(group)
	} else {
		lane = e.router.Of(e.keyS(payload))
	}
	seq := e.sSeq.Load()
	e.sSeq.Store(seq + 1)
	t := stream.Tuple[RT]{Seq: seq, TS: ts, Wall: e.clk.Now(), Home: stream.NoHome, Payload: payload}
	e.sWin.onArrival(t.Seq, ts, lane, group, e.expireSOne)
	e.activity[lane].Add(1)
	raiseInt64(&e.laneTS[lane], ts)
	gate := e.gates[lane][1]
	ticket := gate.issue()
	// Probe-only double-read during a handoff; see PushR (including
	// why it must not count as lane activity).
	var pGate *ingressGate
	var pTicket uint64
	if probeLane >= 0 {
		pGate = e.gates[probeLane][1]
		pTicket = pGate.issue()
	}
	e.smu.Unlock()

	gate.enter(ticket)
	e.lanes[lane].PushS(t)
	gate.leave()
	if pGate != nil {
		pGate.enter(pTicket)
		e.lanes[probeLane].ProbeS(t)
		pGate.leave()
	}
	return e.dur.maybeAutoCheckpoint(e.Checkpoint)
}

// PushRBatch submits a batch of R tuples in non-decreasing timestamp
// order under one admission: one side-lock acquisition, one routing
// pass (adapt.Router.AdmitBatch locks each touched stripe once), one
// window-accounting pass with per-lane bulk expiry scheduling, and —
// per destination shard — one gate ticket and one bulk hand-off that
// replays the exact per-tuple flush schedule. Probe-only double-reads
// of in-handoff groups ride as one slice message per (batch, source
// lane) instead of one message per arrival. Results, and the
// Ordered-mode sequence, are exactly those of pushing the elements one
// by one; all tuples of a batch share one admission wall-clock stamp.
// Safe for concurrent use, with the same joint-monotonicity contract
// as PushR; a timestamp regression anywhere in the batch rejects the
// whole batch before any state changes.
func (e *ShardedEngine[L, RT]) PushRBatch(batch []Stamped[L]) error {
	if len(batch) == 0 {
		return nil
	}
	e.rmu.Lock()
	return e.pushRBatchLocked(batch)
}

// PushSBatch submits a batch of S tuples; see PushRBatch.
func (e *ShardedEngine[L, RT]) PushSBatch(batch []Stamped[RT]) error {
	if len(batch) == 0 {
		return nil
	}
	e.smu.Lock()
	return e.pushSBatchLocked(batch)
}

// pushRBatchLocked admits one R caller batch. The caller holds rmu;
// the method releases it before the gate walk, so a lane append
// blocked on back-pressure stalls only pushers bound for the same
// lanes, exactly like the per-tuple path.
func (e *ShardedEngine[L, RT]) pushRBatchLocked(batch []Stamped[L]) error {
	if e.closed.Load() {
		e.rmu.Unlock()
		return fmt.Errorf("handshakejoin: engine closed")
	}
	last := e.rLastTS
	for i := range batch {
		if batch[i].TS < last {
			e.rmu.Unlock()
			return fmt.Errorf("handshakejoin: R timestamp regressed: %d after %d", batch[i].TS, last)
		}
		last = batch[i].TS
	}
	// Batch-atomic admission control before the WAL append; see PushR.
	if err := e.guard.admit(len(batch), e.dur.replaying.Load()); err != nil {
		e.rmu.Unlock()
		return err
	}
	if e.dur.active() {
		// Log before any state changes; see PushR.
		if err := e.dur.appendR(batch); err != nil {
			e.rmu.Unlock()
			return err
		}
	}
	n := len(batch)
	sc := &e.rsc
	sc.ensure(n, len(e.lanes))
	for i := range batch {
		sc.keys[i] = e.keyR(batch[i].Payload)
		sc.tss[i] = batch[i].TS
	}
	e.rLastTS = last
	// The atomic ingress mirror advances only to the batch's first
	// timestamp here: it must stay a lower bound on every tuple not
	// yet inside a lane, and this batch's earlier tuples are about to
	// spend time in the gate walk (with only the first timestamp
	// published, a heartbeat that races the walk can promise nothing
	// the in-flight tuples would violate). It catches up to the last
	// timestamp once the walk completes.
	e.rLastAt.Store(sc.tss[0])
	e.router.AdmitBatch(stream.R, sc.keys, e.rCnt, sc.tss, e.rDur, sc.lanes, sc.groups, sc.probes)
	seq0 := e.rSeq.Load()
	e.rSeq.Store(seq0 + uint64(n))
	e.rWin.onArrivalBulk(seq0, sc.tss, sc.lanes, sc.groups, e.expireRBulk)
	if len(sc.relG) > 0 {
		e.router.ObserveCountExpireBulk(stream.R, sc.relG, sc.relDue)
		sc.relG = sc.relG[:0]
		sc.relDue = sc.relDue[:0]
	}
	for lane := range e.lanes {
		if len(sc.dur[lane]) > 0 || len(sc.cnt[lane]) > 0 {
			e.lanes[lane].QueueExpiryBulk(stream.R, sc.dur[lane], sc.cnt[lane])
			sc.dur[lane] = sc.dur[lane][:0]
			sc.cnt[lane] = sc.cnt[lane][:0]
		}
	}
	now := e.clk.Now()
	plan := e.rPlans.Get().(*fanPlan[L])
	plan.reset(len(e.lanes))
	for i := range batch {
		t := stream.Tuple[L]{Seq: seq0 + uint64(i), TS: sc.tss[i], Wall: now, Home: stream.NoHome, Payload: batch[i].Payload}
		lane := sc.lanes[i]
		plan.mark(lane)
		plan.full[lane] = append(plan.full[lane], t)
		// The tuple's group is mid-handoff: its window state is split
		// between two lanes. The arrival is stored and probed at its
		// new lane; the probe-only slice covers the window slices still
		// on the old one. Double-reads count neither as lane activity
		// nor toward Stats.ShardIngress (probe-only arrivals advance no
		// high-water mark, so the source lane still needs its heartbeat
		// while the handoff is open).
		if p := sc.probes[i]; p >= 0 {
			plan.mark(p)
			plan.probe[p] = append(plan.probe[p], t)
		}
	}
	// One ticket per touched lane, all issued under the side lock, so
	// ticket order on every gate agrees with stream order: the pusher
	// with the earliest serial section precedes later pushers on every
	// shared gate, and the multi-gate walk cannot deadlock.
	sort.Ints(plan.touched)
	for _, lane := range plan.touched {
		if nf := len(plan.full[lane]); nf > 0 {
			e.activity[lane].Add(uint64(nf))
			raiseInt64(&e.laneTS[lane], plan.full[lane][nf-1].TS)
		}
		plan.tickets[lane] = e.gates[lane][0].issue()
	}
	e.rmu.Unlock()

	for _, lane := range plan.touched {
		g := e.gates[lane][0]
		g.enter(plan.tickets[lane])
		e.lanes[lane].IngestR(plan.full[lane], plan.probe[lane])
		g.leave()
	}
	raiseInt64(&e.rLastAt, last)
	e.rPlans.Put(plan)
	return e.dur.maybeAutoCheckpoint(e.Checkpoint)
}

// pushSBatchLocked is the S-side mirror of pushRBatchLocked.
func (e *ShardedEngine[L, RT]) pushSBatchLocked(batch []Stamped[RT]) error {
	if e.closed.Load() {
		e.smu.Unlock()
		return fmt.Errorf("handshakejoin: engine closed")
	}
	last := e.sLastTS
	for i := range batch {
		if batch[i].TS < last {
			e.smu.Unlock()
			return fmt.Errorf("handshakejoin: S timestamp regressed: %d after %d", batch[i].TS, last)
		}
		last = batch[i].TS
	}
	// Batch-atomic admission control before the WAL append; see PushR.
	if err := e.guard.admit(len(batch), e.dur.replaying.Load()); err != nil {
		e.smu.Unlock()
		return err
	}
	if e.dur.active() {
		if err := e.dur.appendS(batch); err != nil {
			e.smu.Unlock()
			return err
		}
	}
	n := len(batch)
	sc := &e.ssc
	sc.ensure(n, len(e.lanes))
	for i := range batch {
		sc.keys[i] = e.keyS(batch[i].Payload)
		sc.tss[i] = batch[i].TS
	}
	e.sLastTS = last
	e.sLastAt.Store(sc.tss[0]) // see pushRBatchLocked
	e.router.AdmitBatch(stream.S, sc.keys, e.sCnt, sc.tss, e.sDur, sc.lanes, sc.groups, sc.probes)
	seq0 := e.sSeq.Load()
	e.sSeq.Store(seq0 + uint64(n))
	e.sWin.onArrivalBulk(seq0, sc.tss, sc.lanes, sc.groups, e.expireSBulk)
	if len(sc.relG) > 0 {
		e.router.ObserveCountExpireBulk(stream.S, sc.relG, sc.relDue)
		sc.relG = sc.relG[:0]
		sc.relDue = sc.relDue[:0]
	}
	for lane := range e.lanes {
		if len(sc.dur[lane]) > 0 || len(sc.cnt[lane]) > 0 {
			e.lanes[lane].QueueExpiryBulk(stream.S, sc.dur[lane], sc.cnt[lane])
			sc.dur[lane] = sc.dur[lane][:0]
			sc.cnt[lane] = sc.cnt[lane][:0]
		}
	}
	now := e.clk.Now()
	plan := e.sPlans.Get().(*fanPlan[RT])
	plan.reset(len(e.lanes))
	for i := range batch {
		t := stream.Tuple[RT]{Seq: seq0 + uint64(i), TS: sc.tss[i], Wall: now, Home: stream.NoHome, Payload: batch[i].Payload}
		lane := sc.lanes[i]
		plan.mark(lane)
		plan.full[lane] = append(plan.full[lane], t)
		if p := sc.probes[i]; p >= 0 {
			plan.mark(p)
			plan.probe[p] = append(plan.probe[p], t)
		}
	}
	sort.Ints(plan.touched)
	for _, lane := range plan.touched {
		if nf := len(plan.full[lane]); nf > 0 {
			e.activity[lane].Add(uint64(nf))
			raiseInt64(&e.laneTS[lane], plan.full[lane][nf-1].TS)
		}
		plan.tickets[lane] = e.gates[lane][1].issue()
	}
	e.smu.Unlock()

	for _, lane := range plan.touched {
		g := e.gates[lane][1]
		g.enter(plan.tickets[lane])
		e.lanes[lane].IngestS(plan.full[lane], plan.probe[lane])
		g.leave()
	}
	raiseInt64(&e.sLastAt, last)
	e.sPlans.Put(plan)
	return e.dur.maybeAutoCheckpoint(e.Checkpoint)
}

// raiseInt64 lifts an atomic to ts if larger (lane watermarks are fed
// by both sides, whose timestamps are only monotonic separately).
func raiseInt64(a *atomic.Int64, ts int64) {
	for {
		cur := a.Load()
		if ts <= cur || a.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// heartbeatLoop ticks idle lanes with the engine-wide ingress floor so
// their punctuation promises — and their windows — keep advancing
// without traffic. The floor is snapshotted before the per-lane
// activity counters: a push that slips past the activity check was
// necessarily admitted after the snapshot, so its timestamp is >= the
// floor and the heartbeat's promise stays sound.
func (e *ShardedEngine[L, RT]) heartbeatLoop() {
	defer e.bg.Done()
	t := time.NewTicker(e.hbPeriod)
	defer t.Stop()
	prev := make([]uint64, len(e.lanes))
	stalled := make([]bool, len(e.lanes))
	// Watchdog state (AdaptConfig.StallWatchdog): the merged floor's
	// last observed value and how many consecutive ticks it has failed
	// to advance while ingress was ahead of it.
	wdTicks := 0
	wdThreshold := 0
	if e.watchdog > 0 {
		wdThreshold = int((e.watchdog + e.hbPeriod - 1) / e.hbPeriod)
		if wdThreshold < 1 {
			wdThreshold = 1
		}
	}
	lastFloor := int64(math.MinInt64)
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
		}
		floor := e.ingressFloor()
		if wdThreshold > 0 {
			e.watchFloor(floor, &lastFloor, &wdTicks, wdThreshold)
		}
		if floor == minTS {
			continue // a side has not pushed yet: no promise possible
		}
		e.hbMu.Lock()
		for i, l := range e.lanes {
			if cur := e.activity[i].Load(); cur != prev[i] {
				prev[i] = cur // lane saw traffic this period
				stalled[i] = false
				continue
			}
			if !e.gates[i][0].drained() || !e.gates[i][1].drained() {
				continue // an admitted push is still entering the lane
			}
			l.Heartbeat(floor)
			// An idle lane started needing heartbeats to keep the
			// punctuation floor moving — the stall signal operators watch
			// when Ordered output seems stuck. Edge-triggered: one event
			// per stall episode, not one per heartbeat tick, so a long
			// idle period cannot wash the handoff history out of the
			// bounded trace ring.
			if !stalled[i] {
				stalled[i] = true
				e.emit("heartbeat_stall", i, -1, floor, 0)
			}
		}
		e.hbMu.Unlock()
	}
}

// watchFloor is the heartbeat loop's stall watchdog: one tick of
// comparing the merged punctuation floor against ingress. The floor
// advancing (or nothing being owed — ingress at or behind the floor)
// resets the stall count; threshold consecutive stalled ticks set
// Health().FloorStalled and emit floor_stalled, both edge-triggered
// and cleared with a floor_recovered event when the floor moves again.
func (e *ShardedEngine[L, RT]) watchFloor(ingress int64, lastFloor *int64, ticks *int, threshold int) {
	merged := e.merge.Floor()
	if merged > *lastFloor {
		*lastFloor = merged
		*ticks = 0
		if e.floorStalled.Swap(false) {
			e.emit("floor_recovered", -1, -1, merged, 0)
		}
		return
	}
	if ingress == minTS || merged >= ingress {
		*ticks = 0 // nothing admitted beyond the floor: no promise owed
		return
	}
	*ticks++
	if *ticks >= threshold && !e.floorStalled.Swap(true) {
		e.emit("floor_stalled", -1, -1, merged, ingress)
	}
}

// Rebalance runs one adaptive control cycle synchronously — sample,
// plan, attempt pending cut-overs, and (with Adapt.Migration) escalate
// stalled moves to state migrations — and reports how many key-group
// moves it proposed and applied. It is a no-op unless Adapt.Enable is
// set; with a negative Adapt.SamplePeriod it is the only driver of the
// control loop, which makes rebalancing points deterministic for tests
// and batch loads.
func (e *ShardedEngine[L, RT]) Rebalance() (proposed, applied int) {
	if e.ctrl == nil || e.closed.Load() {
		return 0, 0
	}
	return e.ctrl.Step()
}

// Migrate moves key-group group to shard to by live state migration,
// without waiting for the group to drain: both ingress sides are
// frozen, the group's window tuples and pending expiries leave the old
// shard's pipeline under a consistent cut, the routing table is
// swapped, and the state replays into the new shard's pipeline as
// store-only arrivals. It returns the number of window tuples moved.
// The result multiset and the Ordered-mode sequence are unaffected.
//
// Migrate is deterministic given the push schedule — the cut happens
// exactly between the pushes that surround the call — which is what
// the oracle test suites rely on. The adaptive control loop performs
// the same operation autonomously when Adapt.Migration is enabled.
func (e *ShardedEngine[L, RT]) Migrate(group uint32, to int) (int, error) {
	return e.migrate(group, to, 0)
}

// migrate implements Migrate under an optional tuple budget (max > 0):
// a group holding more than max live tuples is refused before any
// state is touched, so the control loop's per-cycle budget bounds the
// ingress stall.
func (e *ShardedEngine[L, RT]) migrate(group uint32, to int, max int) (int, error) {
	if err := e.checkMigrationTarget(group, to); err != nil {
		return 0, err
	}
	e.rmu.Lock()
	defer e.rmu.Unlock()
	e.smu.Lock()
	defer e.smu.Unlock()
	if e.closed.Load() {
		return 0, fmt.Errorf("handshakejoin: engine closed")
	}
	if e.router.InHandoff(group) {
		return 0, fmt.Errorf("handshakejoin: Migrate: group %d has an incremental handoff in flight", group)
	}
	from := e.router.Partitioner().ShardOfGroup(group)
	if from == to {
		return 0, nil
	}
	defer e.recordStall(time.Now())
	// Freeze: with both side locks held no tuple can be admitted;
	// drain the ingress gates so in-flight pushes have fully entered
	// their lanes before the cut.
	e.drainGates()
	matchR := func(p L) bool { return e.router.GroupOf(e.keyR(p)) == group }
	matchS := func(p RT) bool { return e.router.GroupOf(e.keyS(p)) == group }
	st, n, err := e.lanes[from].Extract(matchR, matchS, max)
	if err != nil {
		return n, err
	}
	// Swap the route. A concurrent drain cut-over of the same group
	// cannot interleave destructively: Relocate serializes on the
	// router's control mutex and cancels the pending move.
	e.router.Relocate(group, to)
	if n > 0 {
		e.rebindAndInject(st, to)
	}
	e.stateMigrations.Add(1)
	e.migratedTuples.Add(uint64(n))
	e.freezeStalls.Add(1)
	e.emit("migrate_freeze", to, int64(group), int64(n), int64(from))
	return n, nil
}

// checkMigrationTarget validates a migration's group and shard.
func (e *ShardedEngine[L, RT]) checkMigrationTarget(group uint32, to int) error {
	if int(group) >= e.router.Groups() {
		return fmt.Errorf("handshakejoin: Migrate: group %d out of range [0,%d)", group, e.router.Groups())
	}
	if to < 0 || to >= len(e.lanes) {
		return fmt.Errorf("handshakejoin: Migrate: shard %d out of range [0,%d)", to, len(e.lanes))
	}
	return nil
}

// rebindAndInject re-attributes the moved tuples' future count-bound
// expiries to their new lane and replays the state there. Callers hold
// both side locks.
func (e *ShardedEngine[L, RT]) rebindAndInject(st *shard.GroupState[L, RT], to int) {
	rSeqs := make(map[uint64]struct{}, len(st.R))
	for _, t := range st.R {
		rSeqs[t.Seq] = struct{}{}
	}
	sSeqs := make(map[uint64]struct{}, len(st.S))
	for _, t := range st.S {
		sSeqs[t.Seq] = struct{}{}
	}
	e.rWin.rebind(rSeqs, to)
	e.sWin.rebind(sSeqs, to)
	e.lanes[to].InjectSlice(st)
}

// recordStall folds one migration operation's ingress-freeze duration
// into the stall high-water mark; call via defer with the instant the
// freeze began.
func (e *ShardedEngine[L, RT]) recordStall(start time.Time) {
	ns := time.Since(start).Nanoseconds()
	for {
		cur := e.maxStallNs.Load()
		if ns <= cur || e.maxStallNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// BeginMigration commits an incremental (non-freezing) migration of
// key-group group to shard to: the routing table swaps — every arrival
// of the group admitted afterwards lands on the new shard as an
// ordinary full arrival — and until the migration finishes each of the
// group's arrivals is additionally duplicated as a probe-only read to
// the old shard, so pairs against the window slices still parked there
// are found exactly once (the probe-only copy stores nothing and the
// slices move atomically between probe visibility on the two lanes).
// The group's window tuples then move in bounded hops via
// AdvanceMigration; MigrateIncremental wraps the whole protocol.
//
// The commit itself freezes ingress only long enough to flush and
// settle the old shard's in-flight arrivals — work bounded by the
// batch size and the pipeline's in-flight cap, independent of the
// group's window footprint. Requires Adapt.Enable (the probe
// duplication runs on the adaptive admission path).
func (e *ShardedEngine[L, RT]) BeginMigration(group uint32, to int) error {
	return e.beginHandoff(group, to)
}

func (e *ShardedEngine[L, RT]) beginHandoff(group uint32, to int) error {
	if err := e.checkMigrationTarget(group, to); err != nil {
		return err
	}
	if !e.adaptive {
		return fmt.Errorf("handshakejoin: incremental migration requires Adapt.Enable")
	}
	e.rmu.Lock()
	defer e.rmu.Unlock()
	e.smu.Lock()
	defer e.smu.Unlock()
	if e.closed.Load() {
		return fmt.Errorf("handshakejoin: engine closed")
	}
	if e.router.InHandoff(group) {
		return fmt.Errorf("handshakejoin: group %d already has a handoff in flight", group)
	}
	from := e.router.Partitioner().ShardOfGroup(group)
	if from == to {
		return fmt.Errorf("handshakejoin: group %d already lives on shard %d", group, to)
	}
	defer e.recordStall(time.Now())
	e.drainGates()
	// Settle the source once: the group's pre-handoff arrivals leave
	// the batch buffers and the in-flight links, their expedition
	// flags clear and the IWS empties — from here on, probe-only
	// double-reads see exactly the group's settled window state, and
	// no full arrival of the group ever enters this lane again.
	e.lanes[from].Settle()
	if _, ok := e.router.BeginHandoff(group, to); !ok {
		return fmt.Errorf("handshakejoin: group %d handoff refused", group)
	}
	e.emit("handoff_begin", to, int64(group), int64(from), 0)
	return nil
}

// AdvanceMigration moves one bounded slice — at most
// Adapt.Migration.SliceTuples of the group's oldest window tuples —
// from the old shard to the new one, returning the number moved and
// whether the migration is complete (the old shard holds none of the
// group's state; the probe duplication has been switched off). Each
// call freezes ingress only for its one slice plus two bounded
// pipeline settles, so a mega-group relocates without ever stalling
// the source shard for the whole copy.
func (e *ShardedEngine[L, RT]) AdvanceMigration(group uint32) (moved int, done bool, err error) {
	return e.advanceHandoff(group, e.sliceTuples)
}

func (e *ShardedEngine[L, RT]) advanceHandoff(group uint32, maxTuples int) (moved int, done bool, err error) {
	e.rmu.Lock()
	defer e.rmu.Unlock()
	e.smu.Lock()
	defer e.smu.Unlock()
	if e.closed.Load() {
		return 0, false, fmt.Errorf("handshakejoin: engine closed")
	}
	from := e.router.ProbeLane(group)
	if from < 0 {
		return 0, false, fmt.Errorf("handshakejoin: group %d has no handoff in flight", group)
	}
	to := e.router.Partitioner().ShardOfGroup(group)
	defer e.recordStall(time.Now())
	e.drainGates()
	matchR := func(p L) bool { return e.router.GroupOf(e.keyR(p)) == group }
	matchS := func(p RT) bool { return e.router.GroupOf(e.keyS(p)) == group }
	// ExtractSlice retires the in-flight probe-only double-reads (they
	// must finish probing the tuples about to leave), then removes the
	// oldest slice.
	st, remaining, err := e.lanes[from].ExtractSlice(matchR, matchS, maxTuples)
	if err != nil {
		return 0, false, err
	}
	moved = st.Tuples()
	if moved > 0 {
		// Settle the destination before the copies land: an in-flight
		// full arrival of the group already saw this slice through its
		// probe-only double-read on the source, so it must finish
		// probing the destination while the slice is still absent — or
		// a pair would be emitted twice.
		e.lanes[to].Settle()
		e.rebindAndInject(st, to)
		e.sliceMigrations.Add(1)
		e.migratedTuples.Add(uint64(moved))
		e.emit("slice_hop", to, int64(group), int64(moved), int64(remaining))
	}
	if remaining == 0 {
		e.router.FinishHandoff(group)
		e.stateMigrations.Add(1)
		e.emit("handoff_settle", to, int64(group), int64(moved), int64(from))
		return moved, true, nil
	}
	return moved, false, nil
}

// MigrateIncremental relocates key-group group to shard to by
// incremental slice migration, running BeginMigration and then
// AdvanceMigration to completion. Unlike Migrate it never freezes
// ingress for the whole group: between hops both lanes serve arrivals
// live, with the router double-reading the group's probes. It returns
// the number of window tuples moved. The result multiset and the
// Ordered-mode sequence are unaffected, and the cut points are
// deterministic given the push schedule.
func (e *ShardedEngine[L, RT]) MigrateIncremental(group uint32, to int) (int, error) {
	if err := e.checkMigrationTarget(group, to); err != nil {
		return 0, err
	}
	if e.adaptive && !e.router.InHandoff(group) && e.router.Partitioner().ShardOfGroup(group) == to {
		return 0, nil
	}
	if err := e.beginHandoff(group, to); err != nil {
		return 0, err
	}
	total := 0
	for {
		n, done, err := e.advanceHandoff(group, e.sliceTuples)
		total += n
		if err != nil {
			return total, err
		}
		if done {
			return total, nil
		}
	}
}

// drainGates waits until every issued ingress ticket has completed.
// Callers must prevent new tickets from being issued (hold both side
// locks, or have marked the engine closed).
func (e *ShardedEngine[L, RT]) drainGates() {
	for i := range e.gates {
		e.gates[i][0].waitDrained()
		e.gates[i][1].waitDrained()
	}
}

// Tick advances stream time to ts on every shard without submitting a
// tuple: partial batches are flushed, the pipelines settle, and
// expiries due by ts are injected. Safe for concurrent use with
// pushes.
func (e *ShardedEngine[L, RT]) Tick(ts int64) {
	e.rmu.Lock()
	defer e.rmu.Unlock()
	e.smu.Lock()
	defer e.smu.Unlock()
	if e.closed.Load() {
		return
	}
	e.drainGates() // in-flight pushes precede the tick in stream order
	if e.dur.active() {
		// Both side locks are held, so the tick's WAL position matches
		// its stream position. Tick cannot report errors; a failed
		// append surfaces on the next push or checkpoint.
		e.dur.appendTick(ts) //nolint:errcheck
	}
	for _, l := range e.lanes {
		l.Tick(ts)
	}
}

// Close flushes buffered batches on every shard, waits for the
// pipelines to quiesce, stops the control loops and all goroutines,
// and releases remaining ordered output. The engine cannot be reused
// afterwards.
func (e *ShardedEngine[L, RT]) Close() error {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.closed.Load() {
		return nil
	}
	e.rmu.Lock()
	e.smu.Lock()
	e.closed.Store(true)
	e.rmu.Unlock()
	e.smu.Unlock()
	e.drainGates()
	close(e.stop)
	e.bg.Wait() // heartbeat and controller must not touch closing lanes
	for _, l := range e.lanes {
		l.Close()
	}
	if e.sorter != nil {
		e.sortMu.Lock()
		e.sorter.Flush()
		e.sortMu.Unlock()
	}
	if e.obsSrv != nil {
		e.obsSrv.Close()
	}
	e.dur.closeLog()
	return nil
}

// Checkpoint implements Joiner.Checkpoint: it freezes admission just
// long enough to capture a consistent cut — both side locks, gates
// drained, every lane snapshotted under its own quiesce, result queues
// drained into the sorter, and the routing table read under the same
// cut — then releases the locks and writes the files off the ingress
// path. Safe to call from any goroutine, concurrently with pushes.
func (e *ShardedEngine[L, RT]) Checkpoint(dir string) error {
	if e.dur.log == nil {
		return fmt.Errorf("handshakejoin: Checkpoint requires Config.Durability.WALDir")
	}
	root := dir
	if root == "" {
		root = e.dur.cfg.WALDir
	}
	e.dur.ckptMu.Lock()
	defer e.dur.ckptMu.Unlock()
	start := e.clk.Now()
	e.rmu.Lock()
	e.smu.Lock()
	if e.closed.Load() {
		e.smu.Unlock()
		e.rmu.Unlock()
		return fmt.Errorf("handshakejoin: engine closed")
	}
	e.drainGates()
	e.emit("checkpoint_begin", -1, -1, int64(e.dur.log.Next()), 0)
	// No heartbeat may flush a lane between its snapshot and the sorter
	// snapshot below (see hbMu).
	e.hbMu.Lock()
	snap := engineSnap[L, RT]{
		rSeq:      e.rSeq.Load(),
		sSeq:      e.sSeq.Load(),
		rLastTS:   e.rLastTS,
		sLastTS:   e.sLastTS,
		rWin:      e.rWin.entries(),
		sWin:      e.sWin.entries(),
		lastPunct: -1,
		sharded:   true,
	}
	for _, l := range e.lanes {
		ls, err := l.SnapshotState()
		if err != nil {
			e.hbMu.Unlock()
			e.smu.Unlock()
			e.rmu.Unlock()
			return err
		}
		snap.lanes = append(snap.lanes, ls)
	}
	// Drain the result queues through the merge into the sorter so
	// every result produced before the cut is either already delivered
	// or sitting in the sorter about to be snapshotted.
	for _, l := range e.lanes {
		l.CollectOnce()
	}
	e.sortMu.Lock()
	if e.sorter != nil {
		snap.ordered = true
		snap.sorter = e.sorter.Snapshot()
		snap.lastPunct = snap.sorter.LastPunct
	}
	// The WAL resume point is read under sortMu, atomically with the
	// sorter snapshot: any output released after this instant has a
	// timestamp >= the manifest's punctuation floor, which is exactly
	// what makes the recovery filter sound.
	walFrom := e.dur.log.Next()
	e.sortMu.Unlock()
	e.hbMu.Unlock()
	snap.router = e.router.SnapshotState()
	// A checkpoint against a failed or shed WAL re-arms logging under
	// root. It must happen before the side locks release: the first
	// push admitted after the cut already logs to the new log, so the
	// snapshot plus a replay from walFrom is complete. While the WAL
	// was down nothing was appended, so re-reading walFrom from the
	// fresh log keeps it atomic with the sorter snapshot above.
	rearmed := false
	if e.dur.walFailed() {
		if err := e.dur.rearm(root); err != nil {
			e.smu.Unlock()
			e.rmu.Unlock()
			return err
		}
		rearmed = true
		walFrom = e.dur.log.Next()
	}
	e.smu.Unlock()
	e.rmu.Unlock()
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
	e.emit("checkpoint_complete", -1, -1, durNs, int64(stateBytes))
	return nil
}

// Restore implements Joiner.Restore: it loads the checkpoint under dir
// (dir "" selects Config.Durability.WALDir) into this freshly built
// engine and replays the WAL tail through the ordinary push paths. No
// pushes may run concurrently.
func (e *ShardedEngine[L, RT]) Restore(dir string) error {
	if e.dur.cfg.DecodeR == nil || e.dur.cfg.DecodeS == nil {
		return fmt.Errorf("handshakejoin: Restore requires the Durability payload codecs")
	}
	if dir == "" {
		dir = e.dur.cfg.WALDir
	}
	if dir == "" {
		return fmt.Errorf("handshakejoin: Restore requires a directory (or Config.Durability.WALDir)")
	}
	if e.ctrl != nil {
		// The control loop has been running since New; keep it out while
		// the router's counters and table are replaced underneath it.
		// Taken before the side locks, the order a control cycle's own
		// migration callbacks use.
		e.ctrl.Pause()
		defer e.ctrl.Resume()
	}
	e.rmu.Lock()
	e.smu.Lock()
	if e.closed.Load() {
		e.smu.Unlock()
		e.rmu.Unlock()
		return fmt.Errorf("handshakejoin: engine closed")
	}
	if e.rSeq.Load() != 0 || e.sSeq.Load() != 0 || e.rLastTS != minTS || e.sLastTS != minTS {
		e.smu.Unlock()
		e.rmu.Unlock()
		return fmt.Errorf("handshakejoin: Restore requires a fresh engine")
	}
	man, snap, err := e.dur.readCheckpoint(dir)
	if err != nil {
		e.smu.Unlock()
		e.rmu.Unlock()
		return err
	}
	if err := e.router.RestoreState(snap.router); err != nil {
		e.smu.Unlock()
		e.rmu.Unlock()
		return err
	}
	for i, l := range e.lanes {
		l.RestoreState(snap.lanes[i])
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
	e.smu.Unlock()
	e.rmu.Unlock()
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
		// in the lane pipelines, where the window gauges cannot see
		// them, so quiesce every lane first — otherwise the sampled
		// base undercounts by up to the whole replay volume and the
		// guard admits past the cap.
		for _, ln := range e.lanes {
			ln.Quiesce()
		}
		e.guard.resample()
	}
	e.emit("restore_replay", -1, -1, int64(n), e.clk.Now()-start)
	return nil
}

// Health implements Joiner.Health; safe to call mid-run from any
// goroutine.
func (e *ShardedEngine[L, RT]) Health() Health {
	return Health{
		WALFailed:    e.dur.walFailed(),
		Overloaded:   e.guard.overloaded(),
		FloorStalled: e.floorStalled.Load(),
	}
}

// Stats aggregates run counters across shards. Safe to call mid-run
// from any goroutine: every counter is an atomic, so the read is
// race-free; cumulative totals lag concurrent pushers by at most the
// in-flight batches, and are exact once the engine is closed.
func (e *ShardedEngine[L, RT]) Stats() Stats {
	var agg core.Stats
	var injectParks uint64
	for _, l := range e.lanes {
		a := l.PipelineStats()
		agg.Add(a)
		injectParks += l.InjectParks()
	}
	// Read the per-lane routing counters before the admission counters:
	// every push path stores the seq counter first and adds lane
	// activity second, so this read order keeps the conservation
	// invariant Σ ShardIngress <= RIn+SIn visible in every mid-run
	// snapshot (with equality once the engine is quiescent).
	shardIngress := make([]uint64, len(e.lanes))
	for i := range e.activity {
		shardIngress[i] = e.activity[i].Load()
	}
	st := Stats{
		RIn:                 e.rSeq.Load(),
		SIn:                 e.sSeq.Load(),
		Results:             e.merge.Results(),
		Punctuations:        e.merge.Punctuations(),
		Comparisons:         agg.Comparisons,
		ProbeScan:           agg.ProbeScan,
		ProbeHash:           agg.ProbeHash,
		ProbeBTree:          agg.ProbeBTree,
		PendingExpiries:     agg.PendingExpiries,
		ShardResults:        e.merge.ShardResults(),
		Rebalances:          e.router.Rebalances(),
		KeyGroupMoves:       e.router.Applied(),
		StateMigrations:     e.stateMigrations.Load(),
		MigratedTuples:      e.migratedTuples.Load(),
		SliceMigrations:     e.sliceMigrations.Load(),
		SourceFreezeStalls:  e.freezeStalls.Load(),
		MaxMigrationStallNs: e.maxStallNs.Load(),
		StoreSpills:         agg.StoreSpills,
		StoreReanchors:      agg.StoreReanchors,
		StoreCompactions:    agg.StoreCompactions,
		StoreParks:          agg.StoreParks,
		StoreOverflow:       agg.StoreOverflow,
		WALRetries:          e.dur.walRetries.Load(),
		WALSheds:            e.dur.sheds.Load(),
		AdmissionRejects:    e.guard.rejected(),
		InjectParks:         injectParks,
	}
	st.ShardIngress = shardIngress
	if e.probeTab != nil {
		st.StrategySwitches = e.probeTab.Switches()
	}
	if e.sorter != nil {
		e.sortMu.Lock()
		st.MaxSortBuffer = e.sorter.MaxBuffer()
		e.sortMu.Unlock()
	}
	return st
}

// StatsSnapshot returns a race-safe mid-run view: the cumulative Stats
// plus the live gauges (floor lag, in-flight handoffs, per-shard window
// footprints and expiry depths). Safe to call concurrently with pushes
// from any goroutine.
func (e *ShardedEngine[L, RT]) StatsSnapshot() Snapshot {
	snap := Snapshot{
		Stats:            e.Stats(),
		InFlightHandoffs: e.router.Handoffs(),
		FloorLagNs:       -1,
		FloorHolder:      -1,
		LiveWindowR:      make([]int64, len(e.lanes)),
		LiveWindowS:      make([]int64, len(e.lanes)),
		ExpiryDepth:      make([]int64, len(e.lanes)),
		CollectorPasses:  make([]uint64, len(e.lanes)),
		CollectorWakeups: make([]uint64, len(e.lanes)),
	}
	for i, l := range e.lanes {
		ps := l.PipelineStats()
		snap.LiveWindowR[i] = int64(ps.LiveWR)
		snap.LiveWindowS[i] = int64(ps.LiveWS)
		snap.ExpiryDepth[i] = int64(l.ExpiryDepth())
		snap.CollectorPasses[i] = l.CollectorPasses()
		snap.CollectorWakeups[i] = l.CollectorWakeups()
	}
	if e.punctuate {
		snap.FloorHolder = e.merge.FloorHolder()
	}
	newest := e.rLastAt.Load()
	if s := e.sLastAt.Load(); s > newest {
		newest = s
	}
	floor := e.merge.Floor()
	if newest != minTS && floor != math.MinInt64 {
		snap.FloorLagNs = newest - floor
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
// oldest first. The ring is bounded: events older than the buffer's
// capacity are overwritten; a caller polling with the previous
// snapshot's NextEventSeq sees every event the ring still holds. Nil
// when tracing is disabled (zero Config.Obs).
func (e *ShardedEngine[L, RT]) Events(since uint64) []TraceEvent {
	if e.ring == nil {
		return nil
	}
	return e.ring.Drain(since)
}

// ObsAddr returns the bound address of the observability endpoint
// ("host:port", useful with Config.Obs.Addr ":0"), or "" when the
// server is disabled.
func (e *ShardedEngine[L, RT]) ObsAddr() string {
	if e.obsSrv == nil {
		return ""
	}
	return e.obsSrv.Addr()
}

// Shards returns the shard count.
func (e *ShardedEngine[L, RT]) Shards() int { return e.router.Shards() }

// KeyGroups returns the size of the routing indirection table.
func (e *ShardedEngine[L, RT]) KeyGroups() int { return e.router.Groups() }
