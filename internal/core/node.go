package core

import (
	"fmt"

	"handshakejoin/internal/probe"
	"handshakejoin/internal/store"
	"handshakejoin/internal/stream"
)

// IndexKind selects a static access path for node-local window scans;
// Config.Probe replaces it with per-key-group runtime dispatch.
type IndexKind uint8

const (
	// IndexNone scans node-local windows linearly (the paper's default
	// configuration).
	IndexNone IndexKind = iota
	// IndexHash probes a node-local hash table on the equi-join key
	// (§7.6, Table 2). Config.KeyR/KeyS must be set; the predicate is
	// still applied to candidates as a residual.
	IndexHash
	// IndexBTree probes a node-local B-tree with the band
	// [key−Band, key+Band] (the index-acceleration direction named as
	// future work in §9, applied to the benchmark's band predicate).
	IndexBTree
)

// Config parameterizes a low-latency handshake join pipeline. The zero
// value is not usable; use Validate to check a configuration.
type Config[L, R any] struct {
	// Nodes is the number of processing nodes (CPU cores in the paper).
	Nodes int
	// Pred is the join predicate p(r, s).
	Pred stream.Predicate[L, R]

	// Index selects a static node-local access path, fixed for the
	// pipeline's lifetime. Ignored when Probe is set.
	Index IndexKind
	// Probe, when set, makes the access path a per-arrival decision:
	// each probe consults the shared strategy table for the tuple's
	// key-group and dispatches to scan, hash, or B-tree accordingly,
	// with the node-local indexes built lazily on first demand and
	// dropped when a group's strategy stops using them. Requires KeyR
	// and KeyS; Index is ignored.
	Probe *probe.Table
	// KeyR and KeyS extract the join key for IndexHash / IndexBTree /
	// Probe dispatch.
	KeyR stream.KeyFunc[L]
	// KeyS extracts the S-side key.
	KeyS stream.KeyFunc[R]
	// Band is the half-width of the key range probed by IndexBTree.
	// (Adaptive dispatch takes its band from the strategy table's
	// predicate class instead.)
	Band uint64

	// DisableAck turns off the acknowledgement mechanism of §4.2.2
	// (no IWS buffer, no ack messages). Used only by ablation
	// experiments: without it, tuples that cross "in flight" miss each
	// other.
	DisableAck bool
	// DisableExpEnd turns off expedition-end messages (§4.2.3).
	// Used only by ablation experiments: stored copies then stay
	// flagged forever and S arrivals can never match them.
	DisableExpEnd bool

	// Trace, when set, receives the window stores' rare-path events
	// ("ring_spill", "ring_reanchor", "window_compact") with their
	// kind-specific integer arguments. It is called from the node's
	// worker on cold paths only; nil disables tracing.
	Trace func(kind string, a, b int64)
}

// Validate reports whether the configuration is self-consistent.
func (c *Config[L, R]) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("core: Nodes must be >= 1, got %d", c.Nodes)
	}
	if c.Pred == nil {
		return fmt.Errorf("core: Pred must be set")
	}
	if c.Index != IndexNone && (c.KeyR == nil || c.KeyS == nil) {
		return fmt.Errorf("core: Index %d requires KeyR and KeyS", c.Index)
	}
	if c.Probe != nil && (c.KeyR == nil || c.KeyS == nil) {
		return fmt.Errorf("core: Probe dispatch requires KeyR and KeyS")
	}
	return nil
}

// HomeOf returns the home node assigned to the tuple with the given
// sequence number. Home nodes are assigned round-robin "to ensure even
// load balancing" (§4.3); making the assignment a pure function of the
// sequence number lets expiry and expedition-end handlers route
// deterministically.
func (c *Config[L, R]) HomeOf(seq uint64) int { return int(seq % uint64(c.Nodes)) }

// Stats are per-node counters, aggregated by the runtimes.
type Stats struct {
	RArrivals   uint64 // R tuples processed at this node
	SArrivals   uint64 // S tuples processed at this node
	Comparisons uint64 // window entries inspected during scans/probes
	Results     uint64 // join pairs emitted by this node
	// PendingExpiries counts expiry messages that arrived at the home
	// node before the tuple itself. This only happens when the window
	// is shorter than the pipeline transit time — a pathological
	// configuration; a non-zero value flags it.
	PendingExpiries uint64
	// StoreOnly counts store-only tuples stored at this node (state
	// migration hand-offs into this pipeline).
	StoreOnly uint64
	MaxWR     int // high-water mark of the node-local R window
	MaxWS     int // high-water mark of the node-local S window
	MaxIWS    int // high-water mark of the in-flight S buffer
	LiveWR    int // current size of the node-local R window (gauge)
	LiveWS    int // current size of the node-local S window (gauge)

	// Strategy-mix counters: window probes by the access path actually
	// taken. In static Index modes exactly one moves; under adaptive
	// dispatch their sum equals the probe count.
	ProbeScan  uint64
	ProbeHash  uint64
	ProbeBTree uint64

	// Ring-store rare-path counters, aggregated from the node's two
	// windows. A pathological workload (huge sequence gaps, heavy
	// deletion churn) exercises these silently-degrading paths; the
	// counters make a spill storm visible from a live snapshot.
	StoreSpills      uint64 // whole-ring spills of the slot directory
	StoreReanchors   uint64 // below-base directory re-anchors
	StoreCompactions uint64 // entry-slab compactions
	StoreParks       uint64 // entries parked in the overflow map
	StoreOverflow    int    // current overflow-map entries (gauge)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.RArrivals += other.RArrivals
	s.SArrivals += other.SArrivals
	s.Comparisons += other.Comparisons
	s.Results += other.Results
	s.PendingExpiries += other.PendingExpiries
	s.StoreOnly += other.StoreOnly
	if other.MaxWR > s.MaxWR {
		s.MaxWR = other.MaxWR
	}
	if other.MaxWS > s.MaxWS {
		s.MaxWS = other.MaxWS
	}
	if other.MaxIWS > s.MaxIWS {
		s.MaxIWS = other.MaxIWS
	}
	s.LiveWR += other.LiveWR
	s.LiveWS += other.LiveWS
	s.ProbeScan += other.ProbeScan
	s.ProbeHash += other.ProbeHash
	s.ProbeBTree += other.ProbeBTree
	s.StoreSpills += other.StoreSpills
	s.StoreReanchors += other.StoreReanchors
	s.StoreCompactions += other.StoreCompactions
	s.StoreParks += other.StoreParks
	s.StoreOverflow += other.StoreOverflow
}

// Node is one processing core of the LLHJ pipeline, holding the
// node-local windows WRk and WSk, the in-flight buffer IWSk, and the
// pending-expiry sets. A Node is driven by exactly one runtime thread;
// it is not safe for concurrent use.
type Node[L, R any] struct {
	cfg *Config[L, R]
	k   int // position in the pipeline, 0-based

	wR  *store.Window[L]  // node-local window of R (with expedition flags)
	wS  *store.Window[R]  // node-local window of S
	iwS []stream.Tuple[R] // forwarded-but-unacknowledged S tuples (tiny)

	pendExpR map[uint64]struct{} // expiries that raced ahead of their tuple
	pendExpS map[uint64]struct{}

	// Reusable index-probe contexts: the match callbacks passed to the
	// hash and B-tree probes are bound once at construction and read the
	// current arrival from these fields, so a probe allocates nothing — a
	// per-arrival closure over (r, em, results) would escape on every
	// tuple.
	curR   stream.Tuple[L]
	curS   stream.Tuple[R]
	curEm  Emitter[L, R]
	curRes int
	emitS  func(stream.Tuple[R]) // probe callback for R arrivals probing wS
	emitR  func(stream.Tuple[L]) // probe callback for S arrivals probing wR

	// Block-scan scratch, reused by every message: the packed payloads of
	// the run being scanned, the hit buffers, and under adaptive dispatch
	// the key-group of each tuple of the run whose probe feeds the
	// strategy table (noObserve for the others). All of it is sized by
	// the message, never by the window.
	probesR []L
	probesS []R
	scan    store.BlockScratch
	obs     []uint32

	// Adaptive-dispatch bookkeeping (Probe mode): arrivals counts
	// tuples processed, the *At stamps record the arrival count at each
	// index's last use, and an index idle for dropIndexAfter arrivals is
	// dropped — its maintenance is pure waste once every group probing
	// this window has moved off it.
	arrivals                  uint64
	wrHashAt, wrTreeAt        uint64
	wsHashAt, wsTreeAt        uint64
	mixScan, mixHash, mixTree uint64 // per-message scratch, published in batch
	obsTick                   uint64 // probe counter driving the 1-in-4 Observe sample

	stats StatsCell
}

// dropIndexAfter is how many arrivals an adaptively built index may sit
// unused before the node drops it (rebuilding is O(live), so the
// threshold is set high enough that strategy hysteresis cannot thrash
// a build/drop cycle).
const dropIndexAfter = 4096

// NewNode returns node k of an n-node pipeline configured by cfg.
func NewNode[L, R any](cfg *Config[L, R], k int) *Node[L, R] {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if k < 0 || k >= cfg.Nodes {
		panic(fmt.Sprintf("core: node index %d out of range [0,%d)", k, cfg.Nodes))
	}
	// Node k only ever stores seqs with HomeOf(seq) == k, so its windows
	// declare the pipeline width as their ring stride: one directory slot
	// per owned seq instead of one per global seq.
	optsR := []store.Option[L]{store.WithStride[L](cfg.Nodes)}
	optsS := []store.Option[R]{store.WithStride[R](cfg.Nodes)}
	if cfg.Trace != nil {
		optsR = append(optsR, store.WithTrace[L](cfg.Trace))
		optsS = append(optsS, store.WithTrace[R](cfg.Trace))
	}
	if cfg.Probe != nil {
		// Adaptive dispatch: start every window in scan mode with the
		// key declared, and let the per-group strategies build indexes
		// lazily on first demand.
		optsR = append(optsR, store.WithKeyFunc(cfg.KeyR))
		optsS = append(optsS, store.WithKeyFunc(cfg.KeyS))
	} else {
		switch cfg.Index {
		case IndexHash:
			optsR = append(optsR, store.WithHashIndex(cfg.KeyR))
			optsS = append(optsS, store.WithHashIndex(cfg.KeyS))
		case IndexBTree:
			optsR = append(optsR, store.WithBTreeIndex(cfg.KeyR))
			optsS = append(optsS, store.WithBTreeIndex(cfg.KeyS))
		}
	}
	n := &Node[L, R]{
		cfg:      cfg,
		k:        k,
		wR:       store.NewWindow(optsR...),
		wS:       store.NewWindow(optsS...),
		pendExpR: make(map[uint64]struct{}),
		pendExpS: make(map[uint64]struct{}),
	}
	n.emitS = func(s stream.Tuple[R]) {
		if n.cfg.Pred(n.curR.Payload, s.Payload) {
			n.curRes++
			n.curEm.EmitResult(stream.Pair[L, R]{R: n.curR, S: s})
		}
	}
	n.emitR = func(r stream.Tuple[L]) {
		if n.cfg.Pred(r.Payload, n.curS.Payload) {
			n.curRes++
			n.curEm.EmitResult(stream.Pair[L, R]{R: r, S: n.curS})
		}
	}
	return n
}

// Stats returns a snapshot of the node's counters. It is safe to call
// from any goroutine while the node is running: the counters are
// single-writer atomics, so the snapshot is exact at read time (skewed
// by at most the batch in flight).
func (n *Node[L, R]) Stats() Stats {
	s := n.stats.Snapshot()
	rr, sr := n.wR.Rare(), n.wS.Rare()
	s.StoreSpills = rr.Spills.Load() + sr.Spills.Load()
	s.StoreReanchors = rr.Reanchors.Load() + sr.Reanchors.Load()
	s.StoreCompactions = rr.Compactions.Load() + sr.Compactions.Load()
	s.StoreParks = rr.Parks.Load() + sr.Parks.Load()
	s.StoreOverflow = int(rr.Overflow.Load() + sr.Overflow.Load())
	return s
}

// WindowSizes returns the current sizes of the node-local windows.
func (n *Node[L, R]) WindowSizes() (wr, ws int) { return n.wR.Len(), n.wS.Len() }

func (n *Node[L, R]) leftmost() bool  { return n.k == 0 }
func (n *Node[L, R]) rightmost() bool { return n.k == n.cfg.Nodes-1 }

// HandleLeft processes one message received from the left neighbour
// (or, at node 0, from the driver): R arrivals, S acknowledgements and
// S expiries (Figure 13).
func (n *Node[L, R]) HandleLeft(m Msg[L, R], em Emitter[L, R]) {
	switch m.Kind {
	case KindArrival:
		n.handleArrivalR(m, em)
	case KindAck:
		n.handleAckS(m)
	case KindExpiry:
		n.handleExpiryS(m, em)
	default:
		panic(fmt.Sprintf("core: node %d: unexpected %v from the left", n.k, m.Kind))
	}
}

// HandleRight processes one message received from the right neighbour
// (or, at node n−1, from the driver): S arrivals, R expedition-end
// messages and R expiries (Figure 14).
func (n *Node[L, R]) HandleRight(m Msg[L, R], em Emitter[L, R]) {
	switch m.Kind {
	case KindArrival:
		n.handleArrivalS(m, em)
	case KindExpEnd:
		n.handleExpEndR(m, em)
	case KindExpiry:
		n.handleExpiryR(m, em)
	default:
		panic(fmt.Sprintf("core: node %d: unexpected %v from the right", n.k, m.Kind))
	}
}

// handleArrivalR implements the arrival branch of Figure 13: tag home
// nodes at the entry node, expedite (forward before scanning), scan
// WSk and IWSk, store at the home node, and at the pipeline end update
// the high-water mark and emit the expedition-end message.
//
// Store-only arrivals (state migration) skip the scan and store
// settled — their past joins were emitted on the pipeline they came
// from, and with no probing copy in flight the expedition flag would
// protect against a double match that cannot happen. Probe-only
// arrivals skip the store and everything that exists to manage stored
// copies. Neither advances the high-water mark: they are not stream
// progress.
func (n *Node[L, R]) handleArrivalR(m Msg[L, R], em Emitter[L, R]) {
	rs := m.R
	mode := m.Mode
	if n.leftmost() && mode != ArriveProbeOnly {
		for i := range rs {
			rs[i].Home = n.cfg.HomeOf(rs[i].Seq)
		}
	}
	// Expedition: forward the batch immediately, before any local work
	// (Figure 13 forwards on line 7, before the scan on line 8).
	if !n.rightmost() {
		em.EmitRight(m)
	}
	// Counter updates accumulate in locals and publish once per
	// message: even a fence-light atomic store per tuple is measurable
	// at the admission-bound throughput ceiling, one per batch is not.
	var expEnds []uint64
	var comparisons, results, storeOnly uint64
	stored := false
	src, pooled := em.(SeqBufSource[L, R])
	// The message's probes run first, all of them: they read WSk and
	// IWSk, which nothing below writes (R arrivals store into WRk), so
	// every tuple of the message sees the same S state whether it is
	// probed before or after its predecessors are stored — and probed
	// together, the scans share one pass over the window.
	if mode != ArriveStoreOnly {
		comparisons, results = n.probeR(rs, em)
	}
	for i := range rs {
		r := rs[i]
		if mode != ArriveProbeOnly && r.Home == n.k {
			if _, pending := n.pendExpR[r.Seq]; pending {
				// The expiry overtook the tuple (pathological window);
				// honour it by never storing the copy.
				delete(n.pendExpR, r.Seq)
			} else {
				if mode == ArriveStoreOnly {
					storeOnly++
					n.wR.InsertSettled(r)
				} else {
					n.wR.Insert(r)
				}
				stored = true
			}
		}
		if n.rightmost() && mode == ArriveFull {
			em.StreamEnd(stream.R, r.TS)
			if !n.cfg.DisableExpEnd {
				if r.Home == n.k {
					// Self-delivery of the expedition-end message
					// (Figure 13 line 12) resolves locally.
					n.wR.ClearExpedition(r.Seq)
				} else {
					if pooled && expEnds == nil {
						expEnds = src.TakeSeqBuf()
					}
					expEnds = append(expEnds, r.Seq)
				}
			}
		}
	}
	n.arrivals += uint64(len(rs))
	Inc(&n.stats.RArrivals, uint64(len(rs)))
	if comparisons > 0 {
		Inc(&n.stats.Comparisons, comparisons)
	}
	if results > 0 {
		Inc(&n.stats.Results, results)
	}
	if storeOnly > 0 {
		Inc(&n.stats.StoreOnly, storeOnly)
	}
	n.publishMix()
	n.maybeDropIndexes()
	if stored {
		// The window only grew inside the loop, so the final length is
		// the message's high-water mark.
		wl := int64(n.wR.Len())
		n.stats.LiveWR.Store(wl)
		Raise(&n.stats.MaxWR, wl)
	}
	if len(expEnds) > 0 {
		fm := Msg[L, R]{Kind: KindExpEnd, Side: stream.R, Seqs: expEnds}
		if pooled {
			fm.Free = src.NewSeqFree()
		}
		em.EmitLeft(fm)
	}
}

// noObserve marks, in Node.obs, a scanned tuple whose probe is not part
// of the strategy table's 1-in-4 sample.
const noObserve = ^uint32(0)

// staticStrategy is the access path a static Config.Index names.
func (c *Config[L, R]) staticStrategy() probe.Strategy {
	switch c.Index {
	case IndexHash:
		return probe.UseHash
	case IndexBTree:
		return probe.UseBTree
	default:
		return probe.UseScan
	}
}

// probeR finds the matches of every tuple of an R arrival message in
// the node-local S window and the in-flight buffer (Figure 13 line 8)
// and emits, tuple by tuple in message order, the tuple's window
// matches, its IWSk matches, then its Cost. It returns the message's
// entry and result counts for the caller to publish.
//
// Each tuple's access path is the configured one or, under adaptive
// dispatch, whatever the strategy table says for its key-group when the
// message is dispatched. Scans do not run per tuple: each maximal run of
// consecutive scan-dispatched tuples is one block scan (scanBlockR), a
// per-tuple push being a block of one. Hash and B-tree probes stay per
// tuple, through the reusable context (n.curR/n.emitS), and end the run
// before them, so the emission order is the message order throughout.
// A strategy flip decided on a tuple's observation therefore takes
// effect at the next run, not at the next tuple.
func (n *Node[L, R]) probeR(rs []stream.Tuple[L], em Emitter[L, R]) (inspected, results uint64) {
	t := n.cfg.Probe
	if t == nil && n.cfg.Index == IndexNone {
		n.mixScan += uint64(len(rs))
		return n.scanBlockR(rs, nil, em)
	}
	static := n.cfg.staticStrategy()
	n.obs = n.obs[:0]
	run := 0 // rs[run:i] is the open run of scan-dispatched tuples
	for i := range rs {
		key := n.cfg.KeyR(rs[i].Payload)
		strat, g, observe := static, uint32(0), false
		if t != nil {
			g = t.GroupOf(key)
			strat = t.StrategyOf(g)
			// Sampled observation: the table's counters live on shared cache
			// lines, and feeding every probe from every node turns them into
			// a line ping-pong between workers that costs more than the
			// probes themselves. 1-in-4 keeps the sample unbiased and the
			// decision cadence at 4x DecideEvery probes per group.
			observe = n.obsTick&3 == 0
			n.obsTick++
		}
		if strat == probe.UseScan {
			n.mixScan++
			if !observe {
				g = noObserve
			}
			n.obs = append(n.obs, g)
			continue
		}
		if run < i {
			ins, res := n.scanBlockR(rs[run:i], n.obs, em)
			inspected, results = inspected+ins, results+res
			n.obs = n.obs[:0]
		}
		run = i + 1

		n.curR, n.curEm, n.curRes = rs[i], em, 0
		var seen int
		if strat == probe.UseHash {
			if !n.wS.HasHash() {
				n.wS.EnableHash()
			}
			n.wsHashAt = n.arrivals
			seen = n.wS.Probe(key, false, n.emitS)
			n.mixHash++
		} else {
			if !n.wS.HasBTree() {
				n.wS.EnableBTree()
			}
			n.wsTreeAt = n.arrivals
			lo, hi := n.cfg.bandAround(key)
			if t != nil {
				lo, hi = t.RangeFromR(key)
			}
			seen = n.wS.RangeProbe(lo, hi, false, n.emitS)
			n.mixTree++
		}
		if observe {
			t.Observe(g, n.wS.Len(), seen, n.curRes)
		}
		for _, s := range n.iwS {
			seen++
			n.emitS(s)
		}
		em.Cost(seen)
		inspected, results = inspected+uint64(seen), results+uint64(n.curRes)
	}
	ins, res := n.scanBlockR(rs[run:], n.obs, em)
	return inspected + ins, results + res
}

// bandAround is the key range a static IndexBTree probe covers.
func (c *Config[L, R]) bandAround(key uint64) (lo, hi uint64) {
	if key > c.Band {
		lo = key - c.Band
	}
	return lo, key + c.Band
}

// scanBlockR scans the S window once per tile of the run rs instead of
// once per tuple (store.ScanBlock: window entry in the outer loop, the
// run's packed payloads in the inner one, Pred called directly), then
// emits what the per-tuple loop would have, in its order: for each
// tuple its window matches in arrival order, its IWSk matches, its Cost.
// obs, when non-nil, names per tuple the key-group to report the window
// probe to (or noObserve).
func (n *Node[L, R]) scanBlockR(rs []stream.Tuple[L], obs []uint32, em Emitter[L, R]) (inspected, results uint64) {
	if len(rs) == 0 {
		return 0, 0
	}
	n.probesR = n.probesR[:0]
	for i := range rs {
		n.probesR = append(n.probesR, rs[i].Payload)
	}
	hits, visited := store.ScanBlock(n.wS, n.probesR, n.cfg.Pred, &n.scan)
	k := 0
	for i := range rs {
		matched := 0
		for ; k < len(hits) && int(hits[k].Probe) == i; k++ {
			matched++
			em.EmitResult(stream.Pair[L, R]{R: rs[i], S: n.wS.At(hits[k].Slot)})
		}
		if obs != nil && obs[i] != noObserve {
			n.cfg.Probe.Observe(obs[i], n.wS.Len(), visited, matched)
		}
		for j := range n.iwS {
			if n.cfg.Pred(rs[i].Payload, n.iwS[j].Payload) {
				matched++
				em.EmitResult(stream.Pair[L, R]{R: rs[i], S: n.iwS[j]})
			}
		}
		em.Cost(visited + len(n.iwS))
		results += uint64(matched)
	}
	return uint64(len(rs)) * uint64(visited+len(n.iwS)), results
}

// handleArrivalS implements the arrival branch of Figure 14: tag homes
// at the entry node, forward immediately, scan only non-expedited WRk
// entries (avoiding stored/stored double matches), keep fresh tuples in
// IWSk until acknowledged (avoiding stored/fresh misses), store at the
// home node, and acknowledge the batch to the sender.
func (n *Node[L, R]) handleArrivalS(m Msg[L, R], em Emitter[L, R]) {
	ss := m.S
	mode := m.Mode
	if n.rightmost() && mode != ArriveProbeOnly {
		for i := range ss {
			ss[i].Home = n.cfg.HomeOf(ss[i].Seq)
		}
	}
	if !n.leftmost() {
		em.EmitLeft(m)
	}
	// Per-message counter accumulation, as in handleArrivalR.
	var comparisons, results, storeOnly uint64
	stored, retained := false, false
	// Probes first, as in handleArrivalR: they read settled WRk entries,
	// and S arrivals write only WSk and IWSk.
	if mode != ArriveStoreOnly {
		comparisons, results = n.probeS(ss, em)
	}
	for i := range ss {
		s := ss[i]
		if mode == ArriveFull && !n.cfg.DisableAck && n.k > s.Home {
			// s is fresh here: keep it visible until the left
			// neighbour confirms receipt (Figure 14 lines 9–10).
			// Store-only tuples need no IWS retention: they probe
			// nothing and, under the quiescent-injection contract, no
			// in-flight arrival can be crossing them.
			n.iwS = append(n.iwS, s)
			retained = true
		}
		if mode != ArriveProbeOnly && s.Home == n.k {
			if _, pending := n.pendExpS[s.Seq]; pending {
				delete(n.pendExpS, s.Seq)
			} else {
				if mode == ArriveStoreOnly {
					storeOnly++
				}
				n.wS.InsertSettled(s)
				stored = true
			}
		}
		if n.leftmost() && mode == ArriveFull {
			em.StreamEnd(stream.S, s.TS)
		}
	}
	n.arrivals += uint64(len(ss))
	Inc(&n.stats.SArrivals, uint64(len(ss)))
	if comparisons > 0 {
		Inc(&n.stats.Comparisons, comparisons)
	}
	if results > 0 {
		Inc(&n.stats.Results, results)
	}
	if storeOnly > 0 {
		Inc(&n.stats.StoreOnly, storeOnly)
	}
	n.publishMix()
	n.maybeDropIndexes()
	if retained {
		// iwS only grows inside the loop; acks shrink it in a separate
		// message, so the final length is this message's high-water mark.
		Raise(&n.stats.MaxIWS, int64(len(n.iwS)))
	}
	if stored {
		wl := int64(n.wS.Len())
		n.stats.LiveWS.Store(wl)
		Raise(&n.stats.MaxWS, wl)
	}
	if mode == ArriveFull && !n.cfg.DisableAck && !n.rightmost() && len(ss) > 0 {
		// Acknowledge the whole batch to the sender (Figure 14 line 13).
		// The rightmost node received the batch from the driver, which
		// needs no acknowledgement.
		var seqs []uint64
		am := Msg[L, R]{Kind: KindAck, Side: stream.S}
		if src, ok := em.(SeqBufSource[L, R]); ok {
			seqs = src.TakeSeqBuf()
			am.Free = src.NewSeqFree()
		} else {
			seqs = make([]uint64, 0, len(ss))
		}
		for i := range ss {
			seqs = append(seqs, ss[i].Seq)
		}
		am.Seqs = seqs
		em.EmitRight(am)
	}
}

// probeS finds the matches of every tuple of an S arrival message among
// the *non-expedited* entries of the node-local R window (Figure 14
// line 8). Mirrors probeR: block scans for runs of scan-dispatched
// tuples, per-tuple index probes in between, emission in message order.
func (n *Node[L, R]) probeS(ss []stream.Tuple[R], em Emitter[L, R]) (inspected, results uint64) {
	t := n.cfg.Probe
	if t == nil && n.cfg.Index == IndexNone {
		n.mixScan += uint64(len(ss))
		return n.scanBlockS(ss, nil, em)
	}
	static := n.cfg.staticStrategy()
	n.obs = n.obs[:0]
	run := 0 // ss[run:i] is the open run of scan-dispatched tuples
	for i := range ss {
		key := n.cfg.KeyS(ss[i].Payload)
		strat, g, observe := static, uint32(0), false
		if t != nil {
			g = t.GroupOf(key)
			strat = t.StrategyOf(g)
			// Sampled 1-in-4, as in probeR.
			observe = n.obsTick&3 == 0
			n.obsTick++
		}
		if strat == probe.UseScan {
			n.mixScan++
			if !observe {
				g = noObserve
			}
			n.obs = append(n.obs, g)
			continue
		}
		if run < i {
			ins, res := n.scanBlockS(ss[run:i], n.obs, em)
			inspected, results = inspected+ins, results+res
			n.obs = n.obs[:0]
		}
		run = i + 1

		n.curS, n.curEm, n.curRes = ss[i], em, 0
		var seen int
		if strat == probe.UseHash {
			if !n.wR.HasHash() {
				n.wR.EnableHash()
			}
			n.wrHashAt = n.arrivals
			seen = n.wR.Probe(key, true, n.emitR)
			n.mixHash++
		} else {
			if !n.wR.HasBTree() {
				n.wR.EnableBTree()
			}
			n.wrTreeAt = n.arrivals
			lo, hi := n.cfg.bandAround(key)
			if t != nil {
				lo, hi = t.RangeFromS(key)
			}
			seen = n.wR.RangeProbe(lo, hi, true, n.emitR)
			n.mixTree++
		}
		if observe {
			t.Observe(g, n.wR.Len(), seen, n.curRes)
		}
		em.Cost(seen)
		inspected, results = inspected+uint64(seen), results+uint64(n.curRes)
	}
	ins, res := n.scanBlockS(ss[run:], n.obs, em)
	return inspected + ins, results + res
}

// scanBlockS is scanBlockR for a run of S tuples: one pass per tile over
// the R window, comparing settled entries only, with the predicate's
// arguments the other way round (store.ScanBlockSettled).
func (n *Node[L, R]) scanBlockS(ss []stream.Tuple[R], obs []uint32, em Emitter[L, R]) (inspected, results uint64) {
	if len(ss) == 0 {
		return 0, 0
	}
	n.probesS = n.probesS[:0]
	for i := range ss {
		n.probesS = append(n.probesS, ss[i].Payload)
	}
	hits, visited := store.ScanBlockSettled(n.wR, n.probesS, n.cfg.Pred, &n.scan)
	k := 0
	for i := range ss {
		matched := 0
		for ; k < len(hits) && int(hits[k].Probe) == i; k++ {
			matched++
			em.EmitResult(stream.Pair[L, R]{R: n.wR.At(hits[k].Slot), S: ss[i]})
		}
		if obs != nil && obs[i] != noObserve {
			n.cfg.Probe.Observe(obs[i], n.wR.Len(), visited, matched)
		}
		em.Cost(visited)
		results += uint64(matched)
	}
	return uint64(len(ss)) * uint64(visited), results
}

// publishMix flushes the per-message strategy-mix scratch counters into
// the stats cell — one atomic store per path used, per message.
func (n *Node[L, R]) publishMix() {
	if n.mixScan > 0 {
		Inc(&n.stats.ProbeScan, n.mixScan)
		n.mixScan = 0
	}
	if n.mixHash > 0 {
		Inc(&n.stats.ProbeHash, n.mixHash)
		n.mixHash = 0
	}
	if n.mixTree > 0 {
		Inc(&n.stats.ProbeBTree, n.mixTree)
		n.mixTree = 0
	}
}

// maybeDropIndexes drops adaptively built indexes that have sat unused
// for dropIndexAfter arrivals: once every group probing a window has
// moved off a path, its per-insert maintenance is pure waste. Static
// Index modes never drop (the configuration promised the index).
func (n *Node[L, R]) maybeDropIndexes() {
	if n.cfg.Probe == nil {
		return
	}
	if n.wS.HasHash() && n.arrivals-n.wsHashAt > dropIndexAfter {
		n.wS.DisableHash()
	}
	if n.wS.HasBTree() && n.arrivals-n.wsTreeAt > dropIndexAfter {
		n.wS.DisableBTree()
	}
	if n.wR.HasHash() && n.arrivals-n.wrHashAt > dropIndexAfter {
		n.wR.DisableHash()
	}
	if n.wR.HasBTree() && n.arrivals-n.wrTreeAt > dropIndexAfter {
		n.wR.DisableBTree()
	}
}

// handleAckS removes acknowledged tuples from the in-flight buffer
// (Figure 13 lines 13–14).
func (n *Node[L, R]) handleAckS(m Msg[L, R]) {
	for _, seq := range m.Seqs {
		for i := range n.iwS {
			if n.iwS[i].Seq == seq {
				n.iwS = append(n.iwS[:i], n.iwS[i+1:]...)
				break
			}
		}
	}
}

// handleExpEndR clears expedition flags at each tuple's home node
// (Figure 14 lines 14–19). Deterministic home assignment lets every
// node decide locally whether to consume or forward each entry.
func (n *Node[L, R]) handleExpEndR(m Msg[L, R], em Emitter[L, R]) {
	// Seqs homed further left are re-batched into a fresh message per
	// hop (the incoming buffer is the sender's; the runtime releases it
	// when this handler returns). A leftmost node would emit the
	// remainder into the pipeline exit, so it skips collecting one.
	var forward []uint64
	src, pooled := em.(SeqBufSource[L, R])
	canFwd := !n.leftmost()
	for _, seq := range m.Seqs {
		if n.cfg.HomeOf(seq) == n.k {
			// Consume even if the copy is gone (already expired).
			n.wR.ClearExpedition(seq)
		} else if canFwd {
			if pooled && forward == nil {
				forward = src.TakeSeqBuf()
			}
			forward = append(forward, seq)
		}
	}
	if len(forward) > 0 {
		fm := Msg[L, R]{Kind: KindExpEnd, Side: stream.R, Seqs: forward}
		if pooled {
			fm.Free = src.NewSeqFree()
		}
		em.EmitLeft(fm)
	}
}

// handleExpiryR removes expired R tuples from their home node
// (Figure 14 lines 20–25, with deterministic routing).
func (n *Node[L, R]) handleExpiryR(m Msg[L, R], em Emitter[L, R]) {
	var forward []uint64
	src, pooled := em.(SeqBufSource[L, R])
	canFwd := !n.leftmost()
	var pending uint64
	for _, seq := range m.Seqs {
		if n.cfg.HomeOf(seq) == n.k {
			if _, ok := n.wR.Remove(seq); !ok {
				n.pendExpR[seq] = struct{}{}
				pending++
			}
		} else if canFwd {
			if pooled && forward == nil {
				forward = src.TakeSeqBuf()
			}
			forward = append(forward, seq)
		}
	}
	if pending > 0 {
		Inc(&n.stats.PendingExpiries, pending)
	}
	n.stats.LiveWR.Store(int64(n.wR.Len()))
	if len(forward) > 0 {
		fm := Msg[L, R]{Kind: KindExpiry, Side: stream.R, Seqs: forward}
		if pooled {
			fm.Free = src.NewSeqFree()
		}
		em.EmitLeft(fm)
	}
}

// handleExpiryS removes expired S tuples from their home node
// (Figure 13 lines 15–20, with deterministic routing).
func (n *Node[L, R]) handleExpiryS(m Msg[L, R], em Emitter[L, R]) {
	var forward []uint64
	src, pooled := em.(SeqBufSource[L, R])
	canFwd := !n.rightmost()
	var pending uint64
	for _, seq := range m.Seqs {
		if n.cfg.HomeOf(seq) == n.k {
			if _, ok := n.wS.Remove(seq); !ok {
				n.pendExpS[seq] = struct{}{}
				pending++
			}
		} else if canFwd {
			if pooled && forward == nil {
				forward = src.TakeSeqBuf()
			}
			forward = append(forward, seq)
		}
	}
	if pending > 0 {
		Inc(&n.stats.PendingExpiries, pending)
	}
	n.stats.LiveWS.Store(int64(n.wS.Len()))
	if len(forward) > 0 {
		fm := Msg[L, R]{Kind: KindExpiry, Side: stream.S, Seqs: forward}
		if pooled {
			fm.Free = src.NewSeqFree()
		}
		em.EmitRight(fm)
	}
}

// CountMatching reports how many live window tuples on each side match
// the given payload predicates, without modifying any state. Call only
// on a quiescent pipeline (migration drivers count before extracting,
// so an over-budget move can be refused without touching anything).
func (n *Node[L, R]) CountMatching(matchR func(L) bool, matchS func(R) bool) (nr, ns int) {
	n.wR.ScanAll(func(t stream.Tuple[L]) {
		if matchR(t.Payload) {
			nr++
		}
	})
	n.wS.ScanAll(func(t stream.Tuple[R]) {
		if matchS(t.Payload) {
			ns++
		}
	})
	return nr, ns
}

// ExtractMatching removes and returns every live window tuple whose
// payload matches the given predicate — the node-side half of a state
// migration. Call only on a quiescent pipeline: all expedition flags
// are then settled and the in-flight buffer is empty, so the returned
// tuples are exactly the group's joinable state at this node, and every
// pair among them has already been emitted. The extracted tuples keep
// their sequence numbers and home assignment (homes are a pure function
// of the sequence number, identical across equal-length pipelines), so
// they can re-enter another pipeline as store-only arrivals.
func (n *Node[L, R]) ExtractMatching(matchR func(L) bool, matchS func(R) bool) (rs []stream.Tuple[L], ss []stream.Tuple[R]) {
	var rSeqs, sSeqs []uint64
	n.wR.ScanAll(func(t stream.Tuple[L]) {
		if matchR(t.Payload) {
			rSeqs = append(rSeqs, t.Seq)
		}
	})
	n.wS.ScanAll(func(t stream.Tuple[R]) {
		if matchS(t.Payload) {
			sSeqs = append(sSeqs, t.Seq)
		}
	})
	for _, seq := range rSeqs {
		if t, ok := n.wR.Remove(seq); ok {
			rs = append(rs, t)
		}
	}
	for _, seq := range sSeqs {
		if t, ok := n.wS.Remove(seq); ok {
			ss = append(ss, t)
		}
	}
	n.syncLiveGauges()
	return rs, ss
}

// syncLiveGauges republishes the live window-size gauges after a
// quiescent extraction (which bypasses the arrival/expiry paths that
// normally keep them fresh).
func (n *Node[L, R]) syncLiveGauges() {
	n.stats.LiveWR.Store(int64(n.wR.Len()))
	n.stats.LiveWS.Store(int64(n.wS.Len()))
}

// PeekOldestMatching returns up to max of the node's oldest live
// matching window tuples per side, plus the per-side totals, without
// modifying any state — the read half of a slice cursor over
// ExtractMatching. Windows scan in arrival order, so the first max
// matches are the oldest; the scan still visits every live entry (the
// totals tell the driver how much group state remains), but the
// collected — and later sorted — candidates stay bounded by the slice
// size. Call only on a quiescent pipeline; incremental migration
// peeks all nodes, merges a bounded oldest-first subset across the
// pipeline, and removes it with ExtractSeqs.
func (n *Node[L, R]) PeekOldestMatching(matchR func(L) bool, matchS func(R) bool, max int) (rs []stream.Tuple[L], ss []stream.Tuple[R], nr, ns int) {
	n.wR.ScanAll(func(t stream.Tuple[L]) {
		if matchR(t.Payload) {
			if nr < max {
				rs = append(rs, t)
			}
			nr++
		}
	})
	n.wS.ScanAll(func(t stream.Tuple[R]) {
		if matchS(t.Payload) {
			if ns < max {
				ss = append(ss, t)
			}
			ns++
		}
	})
	return rs, ss, nr, ns
}

// ExtractSeqs removes and returns the live window tuples with the
// given sequence numbers — the write half of a slice cursor. Sequence
// numbers stored on other nodes (or already expired) are ignored, so a
// slice driver may offer the same set to every node of the pipeline.
// The quiescence contract of ExtractMatching applies.
func (n *Node[L, R]) ExtractSeqs(rSeqs, sSeqs map[uint64]struct{}) (rs []stream.Tuple[L], ss []stream.Tuple[R]) {
	for seq := range rSeqs {
		if t, ok := n.wR.Remove(seq); ok {
			rs = append(rs, t)
		}
	}
	for seq := range sSeqs {
		if t, ok := n.wS.Remove(seq); ok {
			ss = append(ss, t)
		}
	}
	n.syncLiveGauges()
	return rs, ss
}

// IWSLen returns the current size of the in-flight S buffer; it must be
// zero whenever the pipeline is quiescent (every forwarded tuple has
// been acknowledged).
func (n *Node[L, R]) IWSLen() int { return len(n.iwS) }

// PendingExpiryLen returns how many expiries are parked waiting for
// their tuple (non-zero only in pathological window configurations).
func (n *Node[L, R]) PendingExpiryLen() int { return len(n.pendExpR) + len(n.pendExpS) }
