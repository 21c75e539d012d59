package core

import (
	"fmt"
	"testing"

	"handshakejoin/internal/kang"
	"handshakejoin/internal/probe"
	"handshakejoin/internal/stream"
	"handshakejoin/internal/workload"
)

// The exactness suite of the block-scan arrival path: a pipeline of real
// nodes and a pipeline of reference nodes — the per-tuple arrival loop
// the block path replaced, kept below — are driven through the same
// schedule, and everything a node hands its emitter while probing must
// come out the same, call for call.

// lp and sp are the R- and S-stream payloads. They are distinct types so
// the compiler, too, objects to a predicate called the wrong way round.
type (
	lp struct {
		key uint64
		v   int
	}
	sp struct {
		key uint64
		v   int
	}
)

// bandLS is asymmetric: swapping the sides changes the answer.
func bandLS(l lp, s sp) bool { d := l.v - s.v; return d >= 0 && d <= 2 }
func equiLS(l lp, s sp) bool { return l.key == s.key }
func keyL(l lp) uint64       { return l.key }
func keyS(s sp) uint64       { return s.key }

// probeEvent is one emitter call of a probe: a result pair, or a Cost.
type probeEvent struct {
	node       int
	cost       int  // Cost argument when !result
	result     bool // EmitResult
	rSeq, sSeq uint64
}

type endEvent struct {
	node int
	side stream.Side
	ts   int64
}

// bench is a synchronous n-node pipeline: FIFO links, nodes polled left
// input then right input in index order until nothing moves — the live
// runtime's node loop, single-threaded and so repeatable.
type bench struct {
	nodes  []NodeLogic[lp, sp]
	left   [][]Msg[lp, sp] // left[k]: travelling rightward into node k
	right  [][]Msg[lp, sp] // right[k]: travelling leftward into node k
	probes []probeEvent
	ends   []endEvent
}

type benchEmitter struct {
	b *bench
	k int
}

func (e benchEmitter) EmitLeft(m Msg[lp, sp]) {
	if e.k > 0 {
		e.b.right[e.k-1] = append(e.b.right[e.k-1], m)
	}
}

func (e benchEmitter) EmitRight(m Msg[lp, sp]) {
	if e.k < len(e.b.nodes)-1 {
		e.b.left[e.k+1] = append(e.b.left[e.k+1], m)
	}
}

func (e benchEmitter) EmitResult(p stream.Pair[lp, sp]) {
	e.b.probes = append(e.b.probes, probeEvent{node: e.k, result: true, rSeq: p.R.Seq, sSeq: p.S.Seq})
}

func (e benchEmitter) StreamEnd(side stream.Side, ts int64) {
	e.b.ends = append(e.b.ends, endEvent{e.k, side, ts})
}

func (e benchEmitter) Cost(n int) { e.b.probes = append(e.b.probes, probeEvent{node: e.k, cost: n}) }

func newBench(nodes []NodeLogic[lp, sp]) *bench {
	return &bench{nodes: nodes, left: make([][]Msg[lp, sp], len(nodes)), right: make([][]Msg[lp, sp], len(nodes))}
}

func (b *bench) injectLeft(m Msg[lp, sp]) { b.left[0] = append(b.left[0], m) }
func (b *bench) injectRight(m Msg[lp, sp]) {
	b.right[len(b.nodes)-1] = append(b.right[len(b.nodes)-1], m)
}

// run delivers messages until every link is empty.
func (b *bench) run() {
	for moved := true; moved; {
		moved = false
		for k, n := range b.nodes {
			if len(b.left[k]) > 0 {
				m := b.left[k][0]
				b.left[k] = b.left[k][1:]
				n.HandleLeft(m, benchEmitter{b, k})
				moved = true
			}
			if len(b.right[k]) > 0 {
				m := b.right[k][0]
				b.right[k] = b.right[k][1:]
				n.HandleRight(m, benchEmitter{b, k})
				moved = true
			}
		}
	}
}

// refNode is a Node whose arrival handlers are the per-tuple loop: scan
// (or index-probe) one tuple, do its store/ack bookkeeping, go on to the
// next. Its scans are store.Window.ScanAll passes into the node's match
// closures. ScanAll does not show expedition flags, so the reference
// keeps its own record of which of its stored R copies are still
// flagged: set where the loop inserts an expedited copy, cleared where
// an expedition end (or an expiry) reaches it.
type refNode struct {
	*Node[lp, sp]
	flagged map[uint64]bool
}

func newRefNode(c *Config[lp, sp], k int) *refNode {
	return &refNode{Node: NewNode(c, k), flagged: make(map[uint64]bool)}
}

func (n *refNode) HandleLeft(m Msg[lp, sp], em Emitter[lp, sp]) {
	if m.Kind == KindArrival {
		n.arrivalR(m, em)
		return
	}
	n.Node.HandleLeft(m, em)
}

func (n *refNode) HandleRight(m Msg[lp, sp], em Emitter[lp, sp]) {
	switch m.Kind {
	case KindArrival:
		n.arrivalS(m, em)
		return
	case KindExpEnd, KindExpiry:
		for _, seq := range m.Seqs {
			if n.cfg.HomeOf(seq) == n.k {
				delete(n.flagged, seq)
			}
		}
	}
	n.Node.HandleRight(m, em)
}

// scanSettled is what store.Window.ScanSettled was: visit every live
// entry, hand the settled ones to fn, report the visits.
func (n *refNode) scanSettled(fn func(stream.Tuple[lp])) int {
	return n.wR.ScanAll(func(t stream.Tuple[lp]) {
		if !n.flagged[t.Seq] {
			fn(t)
		}
	})
}

// arrivalR is handleArrivalR as it stood before the block scan, less
// the seq-buffer pooling the bench emitter does not offer.
func (n *refNode) arrivalR(m Msg[lp, sp], em Emitter[lp, sp]) {
	rs := m.R
	mode := m.Mode
	if n.leftmost() && mode != ArriveProbeOnly {
		for i := range rs {
			rs[i].Home = n.cfg.HomeOf(rs[i].Seq)
		}
	}
	if !n.rightmost() {
		em.EmitRight(m)
	}
	var expEnds []uint64
	var comparisons, results, storeOnly uint64
	stored := false
	for i := range rs {
		r := rs[i]
		if mode != ArriveStoreOnly {
			ins, res := n.scanForR(r, em)
			comparisons += uint64(ins)
			results += uint64(res)
		}
		if mode != ArriveProbeOnly && r.Home == n.k {
			if _, pending := n.pendExpR[r.Seq]; pending {
				delete(n.pendExpR, r.Seq)
			} else {
				if mode == ArriveStoreOnly {
					storeOnly++
					n.wR.InsertSettled(r)
					delete(n.flagged, r.Seq)
				} else {
					n.wR.Insert(r)
					n.flagged[r.Seq] = true
				}
				stored = true
			}
		}
		if n.rightmost() && mode == ArriveFull {
			em.StreamEnd(stream.R, r.TS)
			if !n.cfg.DisableExpEnd {
				if r.Home == n.k {
					n.wR.ClearExpedition(r.Seq)
					delete(n.flagged, r.Seq)
				} else {
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
		wl := int64(n.wR.Len())
		n.stats.LiveWR.Store(wl)
		Raise(&n.stats.MaxWR, wl)
	}
	if len(expEnds) > 0 {
		em.EmitLeft(Msg[lp, sp]{Kind: KindExpEnd, Side: stream.R, Seqs: expEnds})
	}
}

// scanForR is the per-tuple probe of an R arrival as it stood.
func (n *refNode) scanForR(r stream.Tuple[lp], em Emitter[lp, sp]) (int, int) {
	n.curR, n.curEm, n.curRes = r, em, 0
	inspected := 0
	if t := n.cfg.Probe; t != nil {
		key := n.cfg.KeyR(r.Payload)
		g := t.GroupOf(key)
		switch t.StrategyOf(g) {
		case probe.UseHash:
			if !n.wS.HasHash() {
				n.wS.EnableHash()
			}
			n.wsHashAt = n.arrivals
			inspected += n.wS.Probe(key, false, n.emitS)
			n.mixHash++
		case probe.UseBTree:
			if !n.wS.HasBTree() {
				n.wS.EnableBTree()
			}
			n.wsTreeAt = n.arrivals
			lo, hi := t.RangeFromR(key)
			inspected += n.wS.RangeProbe(lo, hi, false, n.emitS)
			n.mixTree++
		default:
			inspected += n.wS.ScanAll(n.emitS)
			n.mixScan++
		}
		if n.obsTick&3 == 0 {
			t.Observe(g, n.wS.Len(), inspected, n.curRes)
		}
		n.obsTick++
	} else {
		switch n.cfg.Index {
		case IndexHash:
			inspected += n.wS.Probe(n.cfg.KeyR(r.Payload), false, n.emitS)
			n.mixHash++
		case IndexBTree:
			key := n.cfg.KeyR(r.Payload)
			lo := uint64(0)
			if key > n.cfg.Band {
				lo = key - n.cfg.Band
			}
			inspected += n.wS.RangeProbe(lo, key+n.cfg.Band, false, n.emitS)
			n.mixTree++
		default:
			inspected += n.wS.ScanAll(n.emitS)
			n.mixScan++
		}
	}
	for _, s := range n.iwS {
		inspected++
		n.emitS(s)
	}
	em.Cost(inspected)
	return inspected, n.curRes
}

// arrivalS is handleArrivalS as it stood before the block scan.
func (n *refNode) arrivalS(m Msg[lp, sp], em Emitter[lp, sp]) {
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
	var comparisons, results, storeOnly uint64
	stored, retained := false, false
	for i := range ss {
		s := ss[i]
		if mode != ArriveStoreOnly {
			ins, res := n.scanForS(s, em)
			comparisons += uint64(ins)
			results += uint64(res)
		}
		if mode == ArriveFull && !n.cfg.DisableAck && n.k > s.Home {
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
		Raise(&n.stats.MaxIWS, int64(len(n.iwS)))
	}
	if stored {
		wl := int64(n.wS.Len())
		n.stats.LiveWS.Store(wl)
		Raise(&n.stats.MaxWS, wl)
	}
	if mode == ArriveFull && !n.cfg.DisableAck && !n.rightmost() && len(ss) > 0 {
		seqs := make([]uint64, 0, len(ss))
		for i := range ss {
			seqs = append(seqs, ss[i].Seq)
		}
		em.EmitRight(Msg[lp, sp]{Kind: KindAck, Side: stream.S, Seqs: seqs})
	}
}

// scanForS is the per-tuple probe of an S arrival as it stood.
func (n *refNode) scanForS(s stream.Tuple[sp], em Emitter[lp, sp]) (int, int) {
	n.curS, n.curEm, n.curRes = s, em, 0
	inspected := 0
	if t := n.cfg.Probe; t != nil {
		key := n.cfg.KeyS(s.Payload)
		g := t.GroupOf(key)
		switch t.StrategyOf(g) {
		case probe.UseHash:
			if !n.wR.HasHash() {
				n.wR.EnableHash()
			}
			n.wrHashAt = n.arrivals
			inspected += n.wR.Probe(key, true, n.emitR)
			n.mixHash++
		case probe.UseBTree:
			if !n.wR.HasBTree() {
				n.wR.EnableBTree()
			}
			n.wrTreeAt = n.arrivals
			lo, hi := t.RangeFromS(key)
			inspected += n.wR.RangeProbe(lo, hi, true, n.emitR)
			n.mixTree++
		default:
			inspected += n.scanSettled(n.emitR)
			n.mixScan++
		}
		if n.obsTick&3 == 0 {
			t.Observe(g, n.wR.Len(), inspected, n.curRes)
		}
		n.obsTick++
	} else {
		switch n.cfg.Index {
		case IndexHash:
			inspected += n.wR.Probe(n.cfg.KeyS(s.Payload), true, n.emitR)
			n.mixHash++
		case IndexBTree:
			key := n.cfg.KeyS(s.Payload)
			lo := uint64(0)
			if key > n.cfg.Band {
				lo = key - n.cfg.Band
			}
			inspected += n.wR.RangeProbe(lo, key+n.cfg.Band, true, n.emitR)
			n.mixTree++
		default:
			inspected += n.scanSettled(n.emitR)
			n.mixScan++
		}
	}
	em.Cost(inspected)
	return inspected, n.curRes
}

// blockCase is one pipeline shape under test; build returns a fresh
// configuration (and strategy table, if any) per pipeline, so the real
// and the reference pipeline share nothing.
type blockCase struct {
	name  string
	pred  stream.Predicate[lp, sp]
	build func(nodes int) (*Config[lp, sp], *probe.Table)
}

var blockCases = []blockCase{
	{"scan", bandLS, func(nodes int) (*Config[lp, sp], *probe.Table) {
		return &Config[lp, sp]{Nodes: nodes, Pred: bandLS}, nil
	}},
	{"hash", equiLS, func(nodes int) (*Config[lp, sp], *probe.Table) {
		return &Config[lp, sp]{Nodes: nodes, Pred: equiLS, Index: IndexHash, KeyR: keyL, KeyS: keyS}, nil
	}},
	{"dispatch", equiLS, func(nodes int) (*Config[lp, sp], *probe.Table) {
		// The table never decides on its own (the epoch is out of reach):
		// every flip in this case is one the schedule forces, on both
		// pipelines alike.
		t := probe.NewTable(probe.Config{Groups: 8, Class: probe.ClassEqui, Nodes: nodes, DecideEvery: 1 << 30})
		return &Config[lp, sp]{Nodes: nodes, Pred: equiLS, Probe: t, KeyR: keyL, KeyS: keyS}, t
	}},
}

// TestBlockScanMatchesPerTupleLoop drives the real and the reference
// pipeline, 1–3 nodes wide, through one random schedule per shape and
// batch size: full arrivals of both sides in flight together (so S
// tuples sit in IWSk while R tuples cross them), lone batches,
// probe-only runs, expiries, and key-group hand-offs that take tuples
// out and put them back store-only. Under adaptive dispatch the
// schedule re-deals the groups' strategies before every step, so scan,
// hash and B-tree tuples alternate inside the messages and block runs
// of every length form between them. The two pipelines must make the
// same EmitResult and Cost calls in the same order, raise the same
// stream ends, and end with the same counters; and the result multiset
// must be the sequential oracle's.
func TestBlockScanMatchesPerTupleLoop(t *testing.T) {
	for _, bc := range blockCases {
		for nodes := 1; nodes <= 3; nodes++ {
			for _, batch := range []int{1, 4, 64, 200} {
				t.Run(fmt.Sprintf("%s/nodes=%d/batch=%d", bc.name, nodes, batch), func(t *testing.T) {
					runBlockCase(t, bc, nodes, batch)
				})
			}
		}
	}
}

func runBlockCase(t *testing.T, bc blockCase, nodes, batch int) {
	realCfg, realTab := bc.build(nodes)
	refCfg, refTab := bc.build(nodes)
	var realNodes, refNodes []NodeLogic[lp, sp]
	var extractors [2][]StateExtractor[lp, sp]
	for k := 0; k < nodes; k++ {
		rn, fn := NewNode(realCfg, k), newRefNode(refCfg, k)
		realNodes, refNodes = append(realNodes, rn), append(refNodes, fn)
		extractors[0], extractors[1] = append(extractors[0], rn), append(extractors[1], fn)
	}
	pipes := [2]*bench{newBench(realNodes), newBench(refNodes)}

	oracleGot := make(map[stream.PairKey]int)
	oracle := kang.New(bc.pred, func(p stream.Pair[lp, sp]) { oracleGot[p.Key()]++ })

	rnd := workload.NewRand(uint64(nodes*1000 + batch))
	var liveR, liveS []uint64 // live seqs per side, oldest first
	var nextR, nextS uint64
	window := 3*batch + 60
	draw := func() (uint64, int) { return uint64(rnd.Intn(40)), rnd.Intn(60) }
	newR := func(n int) []stream.Tuple[lp] {
		out := make([]stream.Tuple[lp], n)
		for i := range out {
			k, v := draw()
			out[i] = stream.Tuple[lp]{Seq: nextR, TS: int64(nextR), Home: stream.NoHome, Payload: lp{k, v}}
			nextR++
		}
		return out
	}
	newS := func(n int) []stream.Tuple[sp] {
		out := make([]stream.Tuple[sp], n)
		for i := range out {
			k, v := draw()
			out[i] = stream.Tuple[sp]{Seq: nextS, TS: int64(nextS), Home: stream.NoHome, Payload: sp{k, v}}
			nextS++
		}
		return out
	}
	// Each pipeline gets its own copy of a batch: the entry node tags
	// homes in place.
	both := func(inject func(b *bench, rs []stream.Tuple[lp], ss []stream.Tuple[sp]), rs []stream.Tuple[lp], ss []stream.Tuple[sp]) {
		for _, b := range pipes {
			inject(b, append([]stream.Tuple[lp](nil), rs...), append([]stream.Tuple[sp](nil), ss...))
		}
	}
	// arrive cuts both sides into messages of at most batch tuples and
	// queues all of them before the pipeline moves, so later R messages
	// meet S tuples still waiting in IWSk for their acknowledgement.
	arrive := func(mode ArrivalMode) func(*bench, []stream.Tuple[lp], []stream.Tuple[sp]) {
		return func(b *bench, rs []stream.Tuple[lp], ss []stream.Tuple[sp]) {
			for ; len(rs) > 0; rs = rs[min(batch, len(rs)):] {
				b.injectLeft(Msg[lp, sp]{Kind: KindArrival, Side: stream.R, Mode: mode, R: rs[:min(batch, len(rs))]})
			}
			for ; len(ss) > 0; ss = ss[min(batch, len(ss)):] {
				b.injectRight(Msg[lp, sp]{Kind: KindArrival, Side: stream.S, Mode: mode, S: ss[:min(batch, len(ss))]})
			}
			b.run()
		}
	}

	for step, steps := 0, 16+400/batch; step < steps; step++ {
		if realTab != nil {
			for g := uint32(0); g < 8; g++ {
				if rnd.Intn(3) == 0 {
					s := probe.Strategy(rnd.Intn(3))
					realTab.SetStrategy(g, s)
					refTab.SetStrategy(g, s)
				}
			}
		}
		switch x := rnd.Intn(20); {
		case x < 12: // both sides in flight together
			rs, ss := newR(1+rnd.Intn(3*batch)), newS(1+rnd.Intn(3*batch))
			if rnd.Intn(2) == 0 {
				rs, ss = newR(2*batch), newS(2*batch)
			}
			both(arrive(ArriveFull), rs, ss)
			// Sequentially: every R of the step, then every S. Tuples of
			// one step cross inside the pipeline and meet exactly once.
			for _, r := range rs {
				oracle.ProcessR(r)
				liveR = append(liveR, r.Seq)
			}
			for _, s := range ss {
				oracle.ProcessS(s)
				liveS = append(liveS, s.Seq)
			}
		case x < 14:
			rs := newR(batch)
			both(arrive(ArriveFull), rs, nil)
			for _, r := range rs {
				oracle.ProcessR(r)
				liveR = append(liveR, r.Seq)
			}
		case x < 16:
			ss := newS(batch)
			both(arrive(ArriveFull), nil, ss)
			for _, s := range ss {
				oracle.ProcessS(s)
				liveS = append(liveS, s.Seq)
			}
		case x < 18: // probe-only: match, never enter a window
			rs, ss := newR(1+rnd.Intn(batch)), newS(1+rnd.Intn(batch))
			both(arrive(ArriveProbeOnly), rs, ss)
			for _, r := range rs {
				oracle.ProcessR(r)
				oracle.ExpireR(r.Seq)
			}
			for _, s := range ss {
				oracle.ProcessS(s)
				oracle.ExpireS(s.Seq)
			}
		default: // hand a key range off and back: out, then in store-only
			lo := uint64(rnd.Intn(40))
			matchL := func(l lp) bool { return l.key >= lo && l.key < lo+10 }
			matchS := func(s sp) bool { return s.key >= lo && s.key < lo+10 }
			for i, b := range pipes {
				var rs []stream.Tuple[lp]
				var ss []stream.Tuple[sp]
				for _, ex := range extractors[i] {
					xr, xs := ex.ExtractMatching(matchL, matchS)
					rs, ss = append(rs, xr...), append(ss, xs...)
				}
				arrive(ArriveStoreOnly)(b, rs, ss)
			}
		}
		// Slide the windows: expiries enter at the far end of their side.
		for _, b := range pipes {
			if n := len(liveR) - window; n > 0 {
				b.injectRight(Msg[lp, sp]{Kind: KindExpiry, Side: stream.R, Seqs: append([]uint64(nil), liveR[:n]...)})
			}
			if n := len(liveS) - window; n > 0 {
				b.injectLeft(Msg[lp, sp]{Kind: KindExpiry, Side: stream.S, Seqs: append([]uint64(nil), liveS[:n]...)})
			}
			b.run()
		}
		if n := len(liveR) - window; n > 0 {
			for _, seq := range liveR[:n] {
				oracle.ExpireR(seq)
			}
			liveR = liveR[n:]
		}
		if n := len(liveS) - window; n > 0 {
			for _, seq := range liveS[:n] {
				oracle.ExpireS(seq)
			}
			liveS = liveS[n:]
		}
	}

	got, want := pipes[0], pipes[1]
	if len(got.probes) != len(want.probes) {
		t.Fatalf("block path made %d EmitResult/Cost calls, per-tuple loop %d", len(got.probes), len(want.probes))
	}
	results := 0
	for i := range got.probes {
		if got.probes[i] != want.probes[i] {
			t.Fatalf("call %d differs: block path %+v, per-tuple loop %+v", i, got.probes[i], want.probes[i])
		}
		if got.probes[i].result {
			results++
		}
	}
	if results == 0 {
		t.Fatal("schedule produced no results")
	}
	if nodes > 1 && batch > 1 {
		// The schedule is only worth its name if R probes found fresh S
		// tuples in IWSk (one-tuple messages rarely hold a matching pair
		// in flight). A pair emitted on a node that is home to neither
		// tuple, right of the S tuple's home, can only be one.
		crossed := false
		for _, e := range got.probes {
			crossed = crossed || e.result && realCfg.HomeOf(e.sSeq) < e.node && realCfg.HomeOf(e.rSeq) != e.node
		}
		if !crossed {
			t.Fatal("no R probe met a fresh S tuple in IWSk")
		}
	}
	if len(got.ends) != len(want.ends) {
		t.Fatalf("block path raised %d stream ends, per-tuple loop %d", len(got.ends), len(want.ends))
	}
	for i := range got.ends {
		if got.ends[i] != want.ends[i] {
			t.Fatalf("stream end %d differs: block path %+v, per-tuple loop %+v", i, got.ends[i], want.ends[i])
		}
	}
	for k := range got.nodes {
		if g, w := got.nodes[k].Stats(), want.nodes[k].Stats(); g != w {
			t.Fatalf("node %d counters differ:\nblock path     %+v\nper-tuple loop %+v", k, g, w)
		}
	}
	if realTab != nil {
		var st Stats
		for _, n := range got.nodes {
			st.Add(n.Stats())
		}
		if st.ProbeScan == 0 || st.ProbeHash == 0 || st.ProbeBTree == 0 {
			t.Fatalf("dispatch never mixed the paths: scan %d hash %d btree %d", st.ProbeScan, st.ProbeHash, st.ProbeBTree)
		}
	}
	gotSet := make(map[stream.PairKey]int)
	for _, e := range got.probes {
		if e.result {
			gotSet[stream.PairKey{RSeq: e.rSeq, SSeq: e.sSeq}]++
		}
	}
	if len(gotSet) != len(oracleGot) {
		t.Fatalf("%d distinct pairs, oracle %d", len(gotSet), len(oracleGot))
	}
	for k, n := range oracleGot {
		if gotSet[k] != n {
			t.Fatalf("pair %+v emitted %d times, oracle %d", k, gotSet[k], n)
		}
	}
}
