package handshakejoin

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"handshakejoin/internal/workload"
)

// The tests in this file establish the durability subsystem's oracle
// contract: kill an engine at a push boundary, build a fresh engine,
// Restore the checkpoint, replay the WAL tail, continue the schedule —
// and the combined output (the killed run's results below the
// checkpoint's punctuation floor, then everything the restored run
// emits) is exactly the uninterrupted run's Ordered sequence. The
// uninterrupted engine itself is the reference, so the claim covers
// window boundaries, partial batch buffers, pending expiries, the
// sorter, and (sharded) the routing table including handoffs held open
// across the kill.

// Payload codecs for the oracle workloads' okR/okS types.
func encOKR(r okR) []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint64(b, r.Key)
	binary.LittleEndian.PutUint32(b[8:], uint32(r.Val))
	return b
}

func decOKR(b []byte) (okR, error) {
	if len(b) != 12 {
		return okR{}, fmt.Errorf("okR payload is %d bytes, want 12", len(b))
	}
	return okR{Key: binary.LittleEndian.Uint64(b), Val: int32(binary.LittleEndian.Uint32(b[8:]))}, nil
}

func encOKS(s okS) []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint64(b, s.Key)
	binary.LittleEndian.PutUint32(b[8:], uint32(s.Val))
	return b
}

func decOKS(b []byte) (okS, error) {
	if len(b) != 12 {
		return okS{}, fmt.Errorf("okS payload is %d bytes, want 12", len(b))
	}
	return okS{Key: binary.LittleEndian.Uint64(b), Val: int32(binary.LittleEndian.Uint32(b[8:]))}, nil
}

func okCodecs(dir string, syncEvery, ckptEvery int) Durability[okR, okS] {
	return Durability[okR, okS]{
		WALDir:                 dir,
		SyncEvery:              syncEvery,
		CheckpointEveryBatches: ckptEvery,
		EncodeR:                encOKR,
		DecodeR:                decOKR,
		EncodeS:                encOKS,
		DecodeS:                decOKS,
	}
}

// durOut collects the non-punctuation output sequence under a mutex so
// a "kill" can cut it at an exact length.
type durOut struct {
	mu  sync.Mutex
	seq []orderedKey
}

func (o *durOut) cb(it Item[okR, okS]) {
	if it.Punct {
		return
	}
	o.mu.Lock()
	p := it.Result.Pair
	o.seq = append(o.seq, orderedKey{TS: p.TS(), RSeq: p.R.Seq, SSeq: p.S.Seq})
	o.mu.Unlock()
}

func (o *durOut) len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.seq)
}

func (o *durOut) snap() []orderedKey {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]orderedKey(nil), o.seq...)
}

// durOp is one step of a precomputed driver schedule, applicable to any
// engine so the uninterrupted, killed and restored runs see identical
// push boundaries.
type durOp struct {
	kind byte // 'r' push R, 's' push S, 't' tick
	r    okR
	s    okS
	ts   int64
}

func buildDurOps(seed uint64, n int) []durOp {
	rnd := workload.NewRand(seed)
	const step = int64(1e6)
	ts := int64(0)
	ops := make([]durOp, 0, n)
	for i := 0; i < n; i++ {
		ts += int64(rnd.Intn(3)) * step / 2
		switch {
		case i%97 == 96:
			ts += 20 * step
			ops = append(ops, durOp{kind: 't', ts: ts})
		case i%3 == 2:
			ops = append(ops, durOp{kind: 's', s: okS{Key: uint64(rnd.Intn(48)), Val: int32(rnd.Intn(8))}, ts: ts})
		default:
			ops = append(ops, durOp{kind: 'r', r: okR{Key: uint64(rnd.Intn(48)), Val: int32(rnd.Intn(8))}, ts: ts})
		}
	}
	return ops
}

func applyDurOp(t *testing.T, eng Joiner[okR, okS], op durOp) {
	t.Helper()
	switch op.kind {
	case 'r':
		if err := eng.PushR(op.r, op.ts); err != nil {
			t.Fatalf("PushR: %v", err)
		}
	case 's':
		if err := eng.PushS(op.s, op.ts); err != nil {
			t.Fatalf("PushS: %v", err)
		}
	case 't':
		eng.Tick(op.ts)
	}
}

// runKillRestore drives the full oracle: an uninterrupted reference
// run, a durable run killed after ops[:killAt], and a restored run
// completing the schedule; then checks the recovery contract exactly.
func runKillRestore(t *testing.T, seed uint64, shards, batch int, winR, winS Window, handoff bool) {
	t.Helper()
	ops := buildDurOps(seed, 1200)
	rnd := workload.NewRand(seed ^ 0xD00D)
	killAt := len(ops)/3 + rnd.Intn(len(ops)/3)

	base := Config[okR, okS]{
		Workers:       1 + rnd.Intn(3),
		Shards:        shards,
		Predicate:     shardedEqui,
		WindowR:       winR,
		WindowS:       winS,
		Batch:         batch,
		MaxInFlight:   2,
		KeyR:          okRKey,
		KeyS:          okSKey,
		Ordered:       true,
		CollectPeriod: 200 * time.Microsecond,
		Adapt:         AdaptConfig{DisableHeartbeat: true},
	}
	if handoff {
		base.Adapt = AdaptConfig{
			Enable:           true,
			SamplePeriod:     -1, // the schedule is the only control driver
			SkewThreshold:    1.05,
			MaxMovesPerCycle: 16,
			KeyGroups:        8 * shards,
			Migration:        MigrationConfig{SliceTuples: 16},
			DisableHeartbeat: true,
		}
	}

	// Reference: the same schedule, uninterrupted, without durability.
	var want durOut
	refCfg := base
	refCfg.OnOutput = want.cb
	ref, err := New(refCfg)
	if err != nil {
		t.Fatalf("seed %d: reference engine: %v", seed, err)
	}
	for _, op := range ops {
		applyDurOp(t, ref, op)
	}
	if err := ref.Close(); err != nil {
		t.Fatalf("seed %d: reference close: %v", seed, err)
	}

	// Killed run: durable, abandoned mid-schedule. Close only tears the
	// goroutines down; everything it emits past killLen is discarded, as
	// a real crash would have discarded it.
	dir := t.TempDir()
	var outB durOut
	cfgB := base
	cfgB.OnOutput = outB.cb
	cfgB.Durability = okCodecs(dir, 64, 120+rnd.Intn(80))
	engB, err := New(cfgB)
	if err != nil {
		t.Fatalf("seed %d: durable engine: %v", seed, err)
	}
	var hg uint32
	handoffBegun := false
	for i, op := range ops[:killAt] {
		applyDurOp(t, engB, op)
		if handoff && !handoffBegun && i == killAt/2 {
			se := engB.(*ShardedEngine[okR, okS])
			hg = uint32(rnd.Intn(se.KeyGroups()))
			from := se.router.Partitioner().ShardOfGroup(hg)
			to := (from + 1) % shards
			if err := se.BeginMigration(hg, to); err != nil {
				t.Fatalf("seed %d: BeginMigration(%d, %d): %v", seed, hg, to, err)
			}
			// Cut a checkpoint with the handoff held open, so the
			// restored router must carry it.
			if err := engB.Checkpoint(""); err != nil {
				t.Fatalf("seed %d: Checkpoint: %v", seed, err)
			}
			handoffBegun = true
		}
	}
	st, err := CheckpointInfo(dir)
	if err != nil {
		t.Fatalf("seed %d: no checkpoint committed before the kill: %v", seed, err)
	}
	killLen := outB.len()
	if err := engB.Close(); err != nil {
		t.Fatalf("seed %d: killed close: %v", seed, err)
	}

	// Restored run: fresh engine, same config, Restore + WAL replay,
	// then the rest of the schedule.
	var outC durOut
	cfgC := cfgB
	cfgC.OnOutput = outC.cb
	engC, err := New(cfgC)
	if err != nil {
		t.Fatalf("seed %d: restored engine: %v", seed, err)
	}
	if err := engC.Restore(""); err != nil {
		t.Fatalf("seed %d: Restore: %v", seed, err)
	}
	if handoff && handoffBegun {
		se := engC.(*ShardedEngine[okR, okS])
		if !se.router.InHandoff(hg) {
			t.Fatalf("seed %d: restored engine lost the open handoff of group %d", seed, hg)
		}
	}
	for _, op := range ops[killAt:] {
		applyDurOp(t, engC, op)
	}
	if handoff && handoffBegun {
		se := engC.(*ShardedEngine[okR, okS])
		for {
			_, done, err := se.AdvanceMigration(hg)
			if err != nil {
				t.Fatalf("seed %d: AdvanceMigration(%d): %v", seed, hg, err)
			}
			if done {
				break
			}
		}
	}
	if err := engC.Close(); err != nil {
		t.Fatalf("seed %d: restored close: %v", seed, err)
	}

	assertRecovered(t, fmt.Sprintf("seed %d (shards=%d batch=%d handoff=%v killAt=%d/%d)", seed, shards, batch, handoff, killAt, len(ops)),
		outB.snap()[:killLen], st.LastPunct, outC.snap(), want.snap())
}

// assertRecovered checks the recovery contract: the killed run's output
// below the checkpoint's punctuation floor, then the restored run's
// output, is the reference sequence exactly.
func assertRecovered(t *testing.T, label string, killed []orderedKey, floor int64, restored, want []orderedKey) {
	t.Helper()
	var combined []orderedKey
	for _, k := range killed {
		if k.TS < floor {
			combined = append(combined, k)
		}
	}
	combined = append(combined, restored...)
	if len(combined) != len(want) {
		t.Fatalf("%s, floor %d: recovered %d results, reference has %d", label, floor, len(combined), len(want))
	}
	for i := range want {
		if combined[i] != want[i] {
			t.Fatalf("%s: position %d: got %+v, want %+v", label, i, combined[i], want[i])
		}
	}
}

// TestKillRestoreOracle is the acceptance matrix: shard counts 1, 4
// and 8, per-tuple and batched admission, and — sharded — an
// incremental handoff held open across the kill.
func TestKillRestoreOracle(t *testing.T) {
	winR := Window{Duration: 150 * time.Millisecond, Count: 200}
	winS := Window{Duration: 130 * time.Millisecond}
	cases := []struct {
		name    string
		shards  int
		batch   int
		handoff bool
	}{
		{"shards=1", 1, 1, false},
		{"shards=1/batch=3", 1, 3, false},
		{"shards=4", 4, 1, false},
		{"shards=4/handoff", 4, 1, true},
		{"shards=8/batch=3", 8, 3, false},
		{"shards=8/handoff", 8, 1, true},
	}
	for i, tc := range cases {
		tc := tc
		seed := uint64(0xD0C5 + i*7919)
		t.Run(tc.name, func(t *testing.T) {
			runKillRestore(t, seed, tc.shards, tc.batch, winR, winS, tc.handoff)
		})
	}
}

// TestDurabilityValidation pins the configuration contract: WALDir
// demands all four codecs and the LLHJ algorithm.
func TestDurabilityValidation(t *testing.T) {
	base := Config[okR, okS]{
		Workers:   1,
		Predicate: shardedEqui,
		WindowR:   Window{Count: 16},
		WindowS:   Window{Count: 16},
		KeyR:      okRKey,
		KeyS:      okSKey,
		OnOutput:  func(Item[okR, okS]) {},
	}

	cfg := base
	cfg.Durability = Durability[okR, okS]{WALDir: t.TempDir()}
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted Durability.WALDir without codecs")
	}

	cfg = base
	cfg.Algorithm = HSJ
	cfg.Durability = okCodecs(t.TempDir(), 0, 0)
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted durability on the HSJ pipeline")
	}

	cfg = base
	cfg.Durability = okCodecs(t.TempDir(), 0, 0)
	eng, err := New(cfg)
	if err != nil {
		t.Fatalf("valid durable config rejected: %v", err)
	}
	eng.Close()
}

// TestRestoreFingerprintMismatch: a checkpoint binds to the window,
// shard and ordering configuration that produced it; loading it into a
// differently-shaped engine must fail loudly.
func TestRestoreFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := Config[okR, okS]{
		Workers:    1,
		Predicate:  shardedEqui,
		WindowR:    Window{Count: 32},
		WindowS:    Window{Count: 32},
		KeyR:       okRKey,
		KeyS:       okSKey,
		OnOutput:   func(Item[okR, okS]) {},
		Durability: okCodecs(dir, 0, 0),
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := eng.PushR(okR{Key: uint64(i)}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Checkpoint(""); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	cfg2 := cfg
	cfg2.WindowR = Window{Count: 64} // different window shape
	eng2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if err := eng2.Restore(""); err == nil {
		t.Fatal("Restore accepted a checkpoint from a different window configuration")
	}

	// A non-fresh engine must refuse Restore too.
	cfg3 := cfg
	eng3, err := New(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	defer eng3.Close()
	if err := eng3.PushR(okR{Key: 1}, 1); err != nil {
		t.Fatal(err)
	}
	if err := eng3.Restore(""); err == nil {
		t.Fatal("Restore accepted an engine that had already admitted tuples")
	}
}

// TestCheckpointObservability: the checkpoint and restore paths emit
// their trace events and feed the WAL/checkpoint metrics.
func TestCheckpointObservability(t *testing.T) {
	dir := t.TempDir()
	cfg := Config[okR, okS]{
		Workers:    1,
		Shards:     2,
		Predicate:  shardedEqui,
		WindowR:    Window{Count: 32},
		WindowS:    Window{Count: 32},
		KeyR:       okRKey,
		KeyS:       okSKey,
		OnOutput:   func(Item[okR, okS]) {},
		Obs:        ObsConfig{EventBuffer: 256},
		Durability: okCodecs(dir, 0, 0),
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := eng.PushR(okR{Key: uint64(i % 8)}, int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := eng.PushS(okS{Key: uint64(i % 8)}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Checkpoint(""); err != nil {
		t.Fatal(err)
	}
	snap := eng.StatsSnapshot()
	if snap.WALBytes == 0 {
		t.Error("Snapshot.WALBytes is zero after 100 logged pushes")
	}
	if snap.Checkpoints != 1 {
		t.Errorf("Snapshot.Checkpoints = %d, want 1", snap.Checkpoints)
	}
	if snap.LastCheckpointNs <= 0 {
		t.Errorf("Snapshot.LastCheckpointNs = %d, want > 0", snap.LastCheckpointNs)
	}
	kinds := map[string]int{}
	for _, ev := range eng.Events(0) {
		kinds[ev.Kind]++
	}
	if kinds["checkpoint_begin"] == 0 || kinds["checkpoint_complete"] == 0 {
		t.Errorf("missing checkpoint trace events, got %v", kinds)
	}
	eng.Close()

	eng2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Restore(""); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range eng2.Events(0) {
		if ev.Kind == "restore_replay" {
			found = true
		}
	}
	if !found {
		t.Error("restore emitted no restore_replay event")
	}
	eng2.Close()
}

// TestCheckpointTruncatesWAL: a checkpoint whose cut covers the whole
// log advances Restore's replay start to the log head, so the replay
// after a checkpoint-then-crash run touches only the tail.
func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := Config[okR, okS]{
		Workers:    1,
		Predicate:  shardedEqui,
		WindowR:    Window{Count: 16},
		WindowS:    Window{Count: 16},
		KeyR:       okRKey,
		KeyS:       okSKey,
		OnOutput:   func(Item[okR, okS]) {},
		Durability: okCodecs(dir, 0, 0),
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 30; i++ {
		if err := eng.PushR(okR{Key: uint64(i)}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Checkpoint(""); err != nil {
		t.Fatal(err)
	}
	st, err := CheckpointInfo(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.WALFrom != 30 {
		t.Fatalf("checkpoint covers %d WAL records, want 30", st.WALFrom)
	}
	// Ten more records, a second checkpoint: the manifest must move on.
	for i := 30; i < 40; i++ {
		if err := eng.PushR(okR{Key: uint64(i)}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Checkpoint(""); err != nil {
		t.Fatal(err)
	}
	st2, err := CheckpointInfo(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.WALFrom != 40 {
		t.Fatalf("second checkpoint covers %d WAL records, want 40", st2.WALFrom)
	}
}

// TestCheckpointExcludesHeartbeatFlush pins the cut against the
// heartbeat loop: with Batch 4, Ordered and heartbeats on, a Checkpoint
// taken while tuples sit in partial lane batches — no Tick before it —
// must not let a heartbeat flush a lane between that lane's snapshot
// and the drain of its result queues. When it did, the batch's results
// were in the snapshotted sorter and the batch in the snapshotted
// buffer, and the restored engine emitted those pairs twice.
//
// Windows never expire here, so the result set is every key-equal pair
// whatever the wall-clock flush points were, and Ordered output makes
// the sequence a function of the set: the recovered output must be the
// oracle's sequence exactly. The windows are big enough that the second
// lane's snapshot outlasts two heartbeat ticks, which is what it takes
// for the loop to call the first lane idle inside the cut.
func TestCheckpointExcludesHeartbeatFlush(t *testing.T) {
	iters, fill := 8, 8000
	if testing.Short() || raceEnabled {
		iters, fill = 5, 6000
	}
	const tail = 40
	const step = int64(1000)
	for it := 0; it < iters; it++ {
		seed := uint64(0xBEA7 + it*104729)
		rnd := workload.NewRand(seed)
		cfg := Config[okR, okS]{
			Workers:     1,
			Shards:      2,
			Predicate:   shardedEqui,
			WindowR:     Window{Count: 1 << 20},
			WindowS:     Window{Count: 1 << 20},
			Batch:       4,
			MaxInFlight: 2,
			KeyR:        okRKey,
			KeyS:        okSKey,
			Ordered:     true,
			Adapt:       AdaptConfig{HeartbeatPeriod: 50 * time.Microsecond},
		}
		o := newOracleEngine(cfg, shardedEqui)
		dir := t.TempDir()
		var outB durOut
		cfgB := cfg
		cfgB.OnOutput = outB.cb
		cfgB.Durability = okCodecs(dir, 64, 0)
		engB, err := New(cfgB)
		if err != nil {
			t.Fatalf("seed %d: durable engine: %v", seed, err)
		}
		push := func(eng Joiner[okR, okS], i int) {
			// An odd number of pushes per pair of lanes and a key drawn
			// per tuple leave partial batches behind at any cut.
			ts := int64(i) * step
			key := uint64(rnd.Intn(fill / 6))
			if i%2 == 0 {
				o.pushR(okR{Key: key}, ts)
				if err := eng.PushR(okR{Key: key}, ts); err != nil {
					t.Fatalf("seed %d: PushR: %v", seed, err)
				}
			} else {
				o.pushS(okS{Key: key}, ts)
				if err := eng.PushS(okS{Key: key}, ts); err != nil {
					t.Fatalf("seed %d: PushS: %v", seed, err)
				}
			}
		}
		for i := 0; i < fill; i++ {
			push(engB, i)
		}
		if err := engB.Checkpoint(""); err != nil { // no Tick first
			t.Fatalf("seed %d: Checkpoint: %v", seed, err)
		}
		for i := fill; i < fill+tail; i++ {
			push(engB, i)
		}
		st, err := CheckpointInfo(dir)
		if err != nil {
			t.Fatalf("seed %d: CheckpointInfo: %v", seed, err)
		}
		killLen := outB.len()
		if err := engB.Close(); err != nil {
			t.Fatalf("seed %d: killed close: %v", seed, err)
		}

		var outC durOut
		cfgC := cfgB
		cfgC.OnOutput = outC.cb
		engC, err := New(cfgC)
		if err != nil {
			t.Fatalf("seed %d: restored engine: %v", seed, err)
		}
		if err := engC.Restore(""); err != nil {
			t.Fatalf("seed %d: Restore: %v", seed, err)
		}
		if err := engC.Close(); err != nil {
			t.Fatalf("seed %d: restored close: %v", seed, err)
		}
		o.close()

		restored := outC.snap()
		seen := make(map[[2]uint64]bool, len(restored))
		for _, k := range restored {
			id := [2]uint64{k.RSeq, k.SSeq}
			if seen[id] {
				t.Fatalf("seed %d (iteration %d): pair (R %d, S %d) emitted twice after Restore", seed, it, k.RSeq, k.SSeq)
			}
			seen[id] = true
		}
		assertRecovered(t, fmt.Sprintf("seed %d (iteration %d)", seed, it),
			outB.snap()[:killLen], st.LastPunct, restored, o.orderedResults())
	}
}

// TestRestoreWithControlLoopRunning restores an adaptive engine whose
// control loop has been cycling since New. Restore replaces the
// router's load counters and table wholesale; a cycle sampling them at
// the same time is a data race (run under -race, where this test is
// the regression), and the restored output must still be the oracle's
// sequence with the loop moving groups underneath the replay.
func TestRestoreWithControlLoopRunning(t *testing.T) {
	const n, tail = 1600, 300
	const step = int64(1000)
	cfg := Config[okR, okS]{
		Workers:     1,
		Shards:      4,
		Predicate:   shardedEqui,
		WindowR:     Window{Count: 1 << 20},
		WindowS:     Window{Count: 1 << 20},
		Batch:       4,
		MaxInFlight: 2,
		KeyR:        okRKey,
		KeyS:        okSKey,
		Ordered:     true,
		Adapt: AdaptConfig{
			Enable:        true,
			SamplePeriod:  100 * time.Microsecond,
			SkewThreshold: 1.05,
			Migration:     MigrationConfig{Enable: true, SliceTuples: 64},
		},
	}
	rnd := workload.NewRand(0xC0FFEE)
	o := newOracleEngine(cfg, shardedEqui)
	push := func(eng Joiner[okR, okS], i int) {
		ts := int64(i) * step
		// Skewed keys give the planner something to move.
		key := uint64(rnd.Intn(8))
		if rnd.Intn(4) == 0 {
			key = uint64(rnd.Intn(512))
		}
		if i%2 == 0 {
			o.pushR(okR{Key: key}, ts)
			if err := eng.PushR(okR{Key: key}, ts); err != nil {
				t.Fatalf("PushR: %v", err)
			}
		} else {
			o.pushS(okS{Key: key}, ts)
			if err := eng.PushS(okS{Key: key}, ts); err != nil {
				t.Fatalf("PushS: %v", err)
			}
		}
	}
	// cycled waits until the engine's control loop has completed a cycle.
	cycled := func(eng Joiner[okR, okS]) {
		se := eng.(*ShardedEngine[okR, okS])
		for deadline := time.Now().Add(10 * time.Second); len(se.ctrl.LastSample()) == 0; {
			if time.Now().After(deadline) {
				t.Fatal("control loop never completed a cycle")
			}
			runtime.Gosched()
		}
	}

	dir := t.TempDir()
	var outB durOut
	cfgB := cfg
	cfgB.OnOutput = outB.cb
	cfgB.Durability = okCodecs(dir, 64, 0)
	engB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		push(engB, i)
	}
	cycled(engB)
	if err := engB.Checkpoint(""); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := n; i < n+tail; i++ {
		push(engB, i)
	}
	st, err := CheckpointInfo(dir)
	if err != nil {
		t.Fatalf("CheckpointInfo: %v", err)
	}
	killLen := outB.len()
	if err := engB.Close(); err != nil {
		t.Fatalf("killed close: %v", err)
	}

	var outC durOut
	cfgC := cfgB
	cfgC.OnOutput = outC.cb
	engC, err := New(cfgC)
	if err != nil {
		t.Fatal(err)
	}
	cycled(engC) // the loop is live before the state underneath it is replaced
	if err := engC.Restore(""); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for i := n + tail; i < n+2*tail; i++ {
		push(engC, i)
	}
	if err := engC.Close(); err != nil {
		t.Fatalf("restored close: %v", err)
	}
	o.close()

	assertRecovered(t, "adaptive restore", outB.snap()[:killLen], st.LastPunct, outC.snap(), o.orderedResults())
}
