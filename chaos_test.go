package handshakejoin

import (
	"errors"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"handshakejoin/internal/fault"
	"handshakejoin/internal/workload"
)

// The tests in this file extend the kill/restore oracle of
// durability_test.go with injected disk faults: instead of killing the
// durable run at a precomputed boundary, a seeded fault plan makes the
// disk fail mid-schedule — a dead fsync, ENOSPC, a torn write — and
// the point where the failure surfaces (a failing push under DurFail)
// becomes the crash. The recovery contract is unchanged and exact: the
// killed run's output below the checkpoint floor plus the restored
// run's output is the uninterrupted reference sequence. The DurDegrade
// tests check the opposite promise: the engine keeps serving exactly,
// flags the shed through Health, and a checkpoint to a healthy
// directory re-arms logging with full recoverability.

// applyDurOpErr applies one schedule op and returns the push error
// instead of failing the test — chaos runs expect pushes to fail.
func applyDurOpErr(eng Joiner[okR, okS], op durOp) error {
	switch op.kind {
	case 'r':
		return eng.PushR(op.r, op.ts)
	case 's':
		return eng.PushS(op.s, op.ts)
	case 't':
		eng.Tick(op.ts)
	}
	return nil
}

// chaosBase builds the shared oracle configuration (identical driver
// schedule semantics to runKillRestore).
func chaosBase(rnd *workload.Rand, shards, batch int, handoff bool) Config[okR, okS] {
	base := Config[okR, okS]{
		Workers:       1 + rnd.Intn(3),
		Shards:        shards,
		Predicate:     shardedEqui,
		WindowR:       Window{Duration: 150 * time.Millisecond, Count: 200},
		WindowS:       Window{Duration: 130 * time.Millisecond},
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
	return base
}

// chaosDurability is the oracle's durability shape: sync-blocking with
// a per-record fsync, so a disk fault surfaces on the failing push
// itself and acknowledged == durable exactly.
func chaosDurability(dir string, fs fault.FS) Durability[okR, okS] {
	d := okCodecs(dir, 1, 0)
	d.SyncBlocking = true
	d.SegmentBytes = 4096 // rotate often: faults land on rotation paths too
	d.RetryAttempts = 2
	d.RetryBackoff = 50 * time.Microsecond
	d.FS = fs
	return d
}

// runChaosOracle drives the fault-kill oracle for one fault rule: a
// reference run, a durable run whose disk dies mid-schedule (the first
// failing push is the crash point), and a restored run on a clean
// filesystem completing the schedule; then checks the recovery
// contract exactly.
func runChaosOracle(t *testing.T, seed uint64, shards, batch int, handoff bool, mkRule func(walDir string) fault.Rule) {
	t.Helper()
	ops := buildDurOps(seed, 1200)
	rnd := workload.NewRand(seed ^ 0xFA17)
	base := chaosBase(rnd, shards, batch, handoff)
	ckptAt := len(ops) / 4

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

	// Chaos run: durable, DurFail, fault plan armed on the WAL files.
	dir := t.TempDir()
	rule := mkRule(filepath.Join(dir, "wal") + string(filepath.Separator))
	plan := fault.NewPlan(rule)
	var outB durOut
	cfgB := base
	cfgB.OnOutput = outB.cb
	cfgB.Durability = chaosDurability(dir, fault.Inject(nil, plan))
	engB, err := New(cfgB)
	if err != nil {
		t.Fatalf("seed %d: durable engine: %v", seed, err)
	}
	var hg uint32
	killAt := -1
	for i, op := range ops {
		err := applyDurOpErr(engB, op)
		if err == nil && !engB.Health().WALFailed {
			if i == ckptAt {
				if handoff {
					se := engB.(*ShardedEngine[okR, okS])
					hg = uint32(rnd.Intn(se.KeyGroups()))
					from := se.router.Partitioner().ShardOfGroup(hg)
					to := (from + 1) % shards
					if err := se.BeginMigration(hg, to); err != nil {
						t.Fatalf("seed %d: BeginMigration(%d, %d): %v", seed, hg, to, err)
					}
				}
				// Cut a checkpoint before the disk dies (with the handoff
				// held open, so the restored router must carry it across
				// the fault).
				if err := engB.Checkpoint(""); err != nil {
					t.Fatalf("seed %d: Checkpoint: %v", seed, err)
				}
			}
			continue
		}
		// The crash point: either the push failed (its record was taken
		// back), or a Tick hit the fault (its record never landed and
		// Tick cannot report it — Health does). Either way ops[i:] are
		// not in the log and the restored run must re-apply them.
		if err != nil && !errors.Is(err, rule.Err) {
			t.Fatalf("seed %d: push failed with %v, want the injected %v", seed, err, rule.Err)
		}
		killAt = i
		break
	}
	if killAt < 0 {
		t.Fatalf("seed %d: fault plan never surfaced a failure (injections=%d)", seed, plan.Injections())
	}
	if killAt <= ckptAt {
		t.Fatalf("seed %d: fault fired at op %d, before the checkpoint at %d", seed, killAt, ckptAt)
	}
	if plan.Injections() == 0 {
		t.Fatalf("seed %d: kill without an injection, log: %v", seed, plan.Log())
	}
	if !engB.Health().WALFailed {
		t.Fatalf("seed %d: push failed but Health().WALFailed is false", seed)
	}
	// DurFail is sticky: the next push must fail too.
	for _, op := range ops[killAt:] {
		if op.kind == 't' {
			continue
		}
		if err := applyDurOpErr(engB, op); err == nil {
			t.Fatalf("seed %d: push after a permanent WAL failure succeeded", seed)
		}
		break
	}
	killLen := outB.len()
	engB.Close() //nolint:errcheck // the log is on a dead disk; Close is best-effort

	st, err := CheckpointInfo(dir)
	if err != nil {
		t.Fatalf("seed %d: no checkpoint committed before the kill: %v", seed, err)
	}

	// Restored run: clean filesystem, same directory, rest of the
	// schedule.
	var outC durOut
	cfgC := cfgB
	cfgC.OnOutput = outC.cb
	cfgC.Durability.FS = nil
	engC, err := New(cfgC)
	if err != nil {
		t.Fatalf("seed %d: restored engine: %v", seed, err)
	}
	if err := engC.Restore(""); err != nil {
		t.Fatalf("seed %d: Restore: %v", seed, err)
	}
	if handoff {
		se := engC.(*ShardedEngine[okR, okS])
		if !se.router.InHandoff(hg) {
			t.Fatalf("seed %d: restored engine lost the open handoff of group %d", seed, hg)
		}
	}
	for _, op := range ops[killAt:] {
		applyDurOp(t, engC, op)
	}
	if handoff {
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

	var combined []orderedKey
	for _, k := range outB.snap()[:killLen] {
		if k.TS < st.LastPunct {
			combined = append(combined, k)
		}
	}
	combined = append(combined, outC.snap()...)
	wantSeq := want.snap()
	if len(combined) != len(wantSeq) {
		t.Fatalf("seed %d (shards=%d batch=%d handoff=%v killAt=%d floor=%d injections=%d): recovered %d results, reference emitted %d",
			seed, shards, batch, handoff, killAt, st.LastPunct, plan.Injections(), len(combined), len(wantSeq))
	}
	for i := range wantSeq {
		if combined[i] != wantSeq[i] {
			t.Fatalf("seed %d (shards=%d batch=%d handoff=%v): position %d: got %+v, want %+v",
				seed, shards, batch, handoff, i, combined[i], wantSeq[i])
		}
	}
}

// TestChaosOracle is the fault-kill acceptance matrix: shard counts 1,
// 4 and 8, three disk-failure modes, and — sharded — a handoff held
// open across the fault. The Nth counts place every fault well past
// the op-300 checkpoint; the kill point itself is detected, not
// assumed.
func TestChaosOracle(t *testing.T) {
	fsyncDead := func(walDir string) fault.Rule {
		return fault.Rule{Op: fault.OpSync, Path: walDir, Nth: 700, Repeat: true, Err: fault.ErrInjected}
	}
	enospc := func(walDir string) fault.Rule {
		return fault.Rule{Op: fault.OpWrite, Path: walDir, Nth: 700, Repeat: true, Err: syscall.ENOSPC}
	}
	torn := func(walDir string) fault.Rule {
		return fault.Rule{Op: fault.OpWrite, Path: walDir, Nth: 700, Repeat: true, TornBytes: 9, Err: syscall.EIO}
	}
	cases := []struct {
		name    string
		shards  int
		batch   int
		handoff bool
		rule    func(string) fault.Rule
	}{
		{"shards=1/fsync", 1, 1, false, fsyncDead},
		{"shards=1/enospc", 1, 1, false, enospc},
		{"shards=1/torn/batch=3", 1, 3, false, torn},
		{"shards=4/fsync/handoff", 4, 1, true, fsyncDead},
		{"shards=4/torn", 4, 3, false, torn},
		{"shards=8/enospc/handoff", 8, 1, true, enospc},
	}
	for i, tc := range cases {
		tc := tc
		seed := uint64(0xC405 + i*6151)
		t.Run(tc.name, func(t *testing.T) {
			runChaosOracle(t, seed, tc.shards, tc.batch, tc.handoff, tc.rule)
		})
	}
}

// TestChaosRotationFaultKeepsServing: a dead segment-create (ENOSPC at
// rotation) is not fatal — the active segment keeps accepting durable
// appends, every push succeeds, Health stays Ok, and recovery from the
// over-full segment is exact.
func TestChaosRotationFaultKeepsServing(t *testing.T) {
	seed := uint64(0xA0BE)
	ops := buildDurOps(seed, 1200)
	rnd := workload.NewRand(seed ^ 0xFA17)
	base := chaosBase(rnd, 4, 1, false)
	ckptAt, killAt := len(ops)/4, 3*len(ops)/4

	var want durOut
	refCfg := base
	refCfg.OnOutput = want.cb
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		applyDurOp(t, ref, op)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal") + string(filepath.Separator)
	plan := fault.NewPlan(fault.Rule{Op: fault.OpCreate, Path: walDir, Nth: 3, Repeat: true, Err: syscall.ENOSPC})
	var outB durOut
	cfgB := base
	cfgB.OnOutput = outB.cb
	cfgB.Durability = chaosDurability(dir, fault.Inject(nil, plan))
	cfgB.Durability.SegmentBytes = 2048
	engB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops[:killAt] {
		if err := applyDurOpErr(engB, op); err != nil {
			t.Fatalf("op %d: push failed under a rotation-only fault: %v", i, err)
		}
		if i == ckptAt {
			if err := engB.Checkpoint(""); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	if plan.Injections() == 0 {
		t.Fatal("the rotation fault never fired")
	}
	if h := engB.Health(); !h.Ok() {
		t.Fatalf("Health = %s under a survivable rotation fault, want ok", h)
	}
	killLen := outB.len()
	engB.Close() //nolint:errcheck

	st, err := CheckpointInfo(dir)
	if err != nil {
		t.Fatal(err)
	}
	var outC durOut
	cfgC := cfgB
	cfgC.OnOutput = outC.cb
	cfgC.Durability.FS = nil
	engC, err := New(cfgC)
	if err != nil {
		t.Fatal(err)
	}
	if err := engC.Restore(""); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for _, op := range ops[killAt:] {
		applyDurOp(t, engC, op)
	}
	if err := engC.Close(); err != nil {
		t.Fatal(err)
	}

	var combined []orderedKey
	for _, k := range outB.snap()[:killLen] {
		if k.TS < st.LastPunct {
			combined = append(combined, k)
		}
	}
	combined = append(combined, outC.snap()...)
	wantSeq := want.snap()
	if len(combined) != len(wantSeq) {
		t.Fatalf("recovered %d results, reference emitted %d (injections=%d)", len(combined), len(wantSeq), plan.Injections())
	}
	for i := range wantSeq {
		if combined[i] != wantSeq[i] {
			t.Fatalf("position %d: got %+v, want %+v", i, combined[i], wantSeq[i])
		}
	}
}

// runChaosDegrade drives the DurDegrade contract: a persistent fsync
// fault sheds durability instead of failing pushes; the live run stays
// exact, Health and the trace report the shed, and a Checkpoint to a
// healthy directory re-arms logging so a crash after it recovers
// exactly from the new root.
func runChaosDegrade(t *testing.T, seed uint64, shards int) {
	t.Helper()
	ops := buildDurOps(seed, 1200)
	rnd := workload.NewRand(seed ^ 0xFA17)
	base := chaosBase(rnd, shards, 1, false)
	rearmAt := 3 * len(ops) / 4

	var want durOut
	refCfg := base
	refCfg.OnOutput = want.cb
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		applyDurOp(t, ref, op)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	dir1, dir2 := t.TempDir(), t.TempDir()
	wal1 := filepath.Join(dir1, "wal") + string(filepath.Separator)
	plan := fault.NewPlan(fault.Rule{Op: fault.OpSync, Path: wal1, Nth: 400, Repeat: true, Err: fault.ErrInjected})
	var outB durOut
	cfgB := base
	cfgB.OnOutput = outB.cb
	cfgB.Obs = ObsConfig{EventBuffer: 512}
	cfgB.Durability = chaosDurability(dir1, fault.Inject(nil, plan))
	cfgB.Durability.OnError = DurDegrade
	engB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	shedAt := -1
	for i, op := range ops {
		if err := applyDurOpErr(engB, op); err != nil {
			t.Fatalf("op %d: DurDegrade push failed: %v", i, err)
		}
		if shedAt < 0 && engB.Health().WALFailed {
			shedAt = i
		}
		if i == rearmAt {
			if shedAt < 0 {
				t.Fatalf("fault never shed durability by op %d (injections=%d)", i, plan.Injections())
			}
			// Re-arm onto the healthy directory: the checkpoint captures
			// everything served so far, the fresh log takes over from it.
			if err := engB.Checkpoint(dir2); err != nil {
				t.Fatalf("Checkpoint(%s): %v", dir2, err)
			}
			if h := engB.Health(); h.WALFailed {
				t.Fatalf("Health = %s after a successful re-arm, want ok", h)
			}
		}
	}
	stats := engB.Stats()
	if stats.WALSheds != 1 {
		t.Fatalf("Stats().WALSheds = %d, want 1", stats.WALSheds)
	}
	if stats.WALRetries == 0 {
		t.Fatal("Stats().WALRetries = 0: the shed should have cost retry attempts")
	}
	kinds := map[string]int{}
	for _, ev := range engB.Events(0) {
		kinds[ev.Kind]++
	}
	if kinds["wal_degraded"] != 1 || kinds["wal_rearmed"] != 1 {
		t.Fatalf("trace events = %v, want one wal_degraded and one wal_rearmed", kinds)
	}
	killLen := outB.len()
	if err := engB.Close(); err != nil {
		t.Fatalf("degraded close: %v", err)
	}

	// The live run must be exact end to end — shedding durability never
	// perturbs serving.
	liveSeq, wantSeq := outB.snap(), want.snap()
	if len(liveSeq) != len(wantSeq) {
		t.Fatalf("degraded run emitted %d results, reference %d (shedAt=%d)", len(liveSeq), len(wantSeq), shedAt)
	}
	for i := range wantSeq {
		if liveSeq[i] != wantSeq[i] {
			t.Fatalf("degraded run diverged at position %d: got %+v, want %+v", i, liveSeq[i], wantSeq[i])
		}
	}

	// Recovery from the re-armed root: a fresh engine restoring dir2
	// (checkpoint + the post-re-arm log) re-emits exactly the reference
	// tail at or above the checkpoint floor.
	st, err := CheckpointInfo(dir2)
	if err != nil {
		t.Fatalf("no checkpoint committed under the re-arm root: %v", err)
	}
	var outC durOut
	cfgC := base
	cfgC.OnOutput = outC.cb
	cfgC.Durability = chaosDurability(dir2, nil)
	cfgC.Durability.OnError = DurDegrade
	engC, err := New(cfgC)
	if err != nil {
		t.Fatal(err)
	}
	if err := engC.Restore(""); err != nil {
		t.Fatalf("Restore from the re-arm root: %v", err)
	}
	if err := engC.Close(); err != nil {
		t.Fatal(err)
	}
	var combined []orderedKey
	for _, k := range liveSeq[:killLen] {
		if k.TS < st.LastPunct {
			combined = append(combined, k)
		}
	}
	combined = append(combined, outC.snap()...)
	if len(combined) != len(wantSeq) {
		t.Fatalf("re-arm recovery: %d results, reference emitted %d (floor=%d)", len(combined), len(wantSeq), st.LastPunct)
	}
	for i := range wantSeq {
		if combined[i] != wantSeq[i] {
			t.Fatalf("re-arm recovery diverged at position %d: got %+v, want %+v", i, combined[i], wantSeq[i])
		}
	}
}

// TestChaosDegrade runs the shed/re-arm contract on both engine kinds.
func TestChaosDegrade(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) { runChaosDegrade(t, 0xDE6A, 1) })
	t.Run("shards=4", func(t *testing.T) { runChaosDegrade(t, 0xDE6B, 4) })
}

// runOverload drives Config.MaxLiveTuples: pushes past the bound are
// rejected batch-atomically with ErrOverloaded before any state
// change, Health().Overloaded tracks the rejection, and admission
// resumes once the windows drain.
func runOverload(t *testing.T, shards int) {
	t.Helper()
	cfg := Config[okR, okS]{
		Workers:       1,
		Shards:        shards,
		Predicate:     shardedEqui,
		WindowR:       Window{Duration: time.Second},
		WindowS:       Window{Duration: time.Second},
		MaxInFlight:   2,
		KeyR:          okRKey,
		KeyS:          okSKey,
		MaxLiveTuples: 50,
		OnOutput:      func(Item[okR, okS]) {},
		Adapt:         AdaptConfig{DisableHeartbeat: true},
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Fill to the bound with non-matching keys, then settle so the live
	// gauges are exact.
	for i := 0; i < 50; i++ {
		if err := eng.PushR(okR{Key: uint64(1000 + i)}, int64(i)); err != nil {
			t.Fatalf("push %d within the bound: %v", i, err)
		}
	}
	eng.Tick(50)
	if h := eng.Health(); h.Overloaded {
		t.Fatal("Health().Overloaded before any rejection")
	}

	before := eng.Stats()
	err = eng.PushR(okR{Key: 2000}, 51)
	if err == nil {
		t.Fatal("push 51 past MaxLiveTuples=50 succeeded")
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overload rejection = %v, not ErrOverloaded", err)
	}
	if !eng.Health().Overloaded {
		t.Fatal("Health().Overloaded is false right after a rejection")
	}

	// Batch atomicity: an over-bound batch is rejected whole, leaving
	// no trace in the admission counters.
	batch := make([]Stamped[okR], 10)
	for i := range batch {
		batch[i] = Stamped[okR]{Payload: okR{Key: uint64(3000 + i)}, TS: 52}
	}
	if err := eng.PushRBatch(batch); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-bound batch: %v, want ErrOverloaded", err)
	}
	after := eng.Stats()
	if after.RIn != before.RIn {
		t.Fatalf("rejected pushes changed RIn: %d -> %d", before.RIn, after.RIn)
	}
	if after.AdmissionRejects < 2 {
		t.Fatalf("Stats().AdmissionRejects = %d, want >= 2", after.AdmissionRejects)
	}

	// Drain the windows (duration 1s in stream time) and admission
	// resumes; the overload flag clears with the next accepted push.
	// The first Tick injects the due expiries, the second quiesces
	// behind them so the live gauges the guard resamples are settled.
	eng.Tick(3 * int64(time.Second))
	eng.Tick(3*int64(time.Second) + 1)
	if err := eng.PushR(okR{Key: 4000}, 3*int64(time.Second)); err != nil {
		t.Fatalf("push after the windows drained: %v", err)
	}
	if h := eng.Health(); h.Overloaded {
		t.Fatal("Health().Overloaded still set after admission resumed")
	}
}

// TestOverloadAdmission runs the MaxLiveTuples contract on both engine
// kinds.
func TestOverloadAdmission(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) { runOverload(t, 1) })
	t.Run("shards=2", func(t *testing.T) { runOverload(t, 2) })
}

// TestOverloadReplayBypassesGuard: WAL replay re-admits acknowledged
// records even when they exceed MaxLiveTuples — the bound gates new
// work, never recovery — and the guard re-seeds from the restored
// footprint afterwards.
func TestOverloadReplayBypassesGuard(t *testing.T) {
	dir := t.TempDir()
	cfg := Config[okR, okS]{
		Workers:       1,
		Predicate:     shardedEqui,
		WindowR:       Window{Duration: time.Second},
		WindowS:       Window{Duration: time.Second},
		KeyR:          okRKey,
		KeyS:          okSKey,
		MaxLiveTuples: 40,
		OnOutput:      func(Item[okR, okS]) {},
		Durability:    okCodecs(dir, 0, 0),
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the checkpoint before any pushes: every record then reaches
	// the restored engine through WAL replay — the path that must
	// bypass the admission guard.
	if err := eng.Checkpoint(""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := eng.PushR(okR{Key: uint64(1000 + i)}, int64(i)); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	eng.Close()

	eng2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if err := eng2.Restore(""); err != nil {
		t.Fatalf("Restore rejected a replay at the admission bound: %v", err)
	}
	eng2.Tick(40)
	// The restored footprint fills the bound exactly, so new admissions
	// must hit ErrOverloaded within the guard's documented in-flight
	// slack (the bound re-seeds lazily from settled pipeline gauges).
	rejected := false
	for i := 0; i < 10; i++ {
		err := eng2.PushR(okR{Key: uint64(5000 + i)}, int64(41+i))
		if errors.Is(err, ErrOverloaded) {
			rejected = true
			break
		}
		if err != nil {
			t.Fatalf("push %d after restore: %v", i, err)
		}
		eng2.Tick(int64(41 + i)) // settle so the next lazy resample is exact
	}
	if !rejected {
		t.Fatal("guard never rejected past the restored footprint: Restore did not re-seed the admission bound")
	}
}

// TestFloorStallWatchdog: with punctuations armed but each lane fed on
// one side only, no lane can promise anything — a lane's punctuation is
// the smaller of its two high-water marks — so ingress runs ahead of a
// frozen merged floor and the heartbeat watchdog must raise
// Health().FloorStalled plus the floor_stalled trace event.
func TestFloorStallWatchdog(t *testing.T) {
	cfg := Config[okR, okS]{
		Workers:     1,
		Shards:      2,
		Predicate:   shardedEqui,
		WindowR:     Window{Duration: time.Hour},
		WindowS:     Window{Duration: time.Hour},
		MaxInFlight: 4,
		KeyR:        okRKey,
		KeyS:        okSKey,
		Punctuate:   true,
		Obs:         ObsConfig{EventBuffer: 256},
		Adapt: AdaptConfig{
			HeartbeatPeriod: time.Millisecond,
			StallWatchdog:   20 * time.Millisecond,
		},
		OnOutput: func(Item[okR, okS]) {},
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// The two fixed keys live on different lanes, one fed only R tuples
	// and the other only S. Both stay visibly active, so neither gets an
	// idle-shard heartbeat promise, and neither can promise itself: its
	// other high-water mark never moves. The collectors run on every
	// arrival and still have nothing to punctuate, so the merged floor
	// (the minimum over lanes) is frozen by construction while ingress
	// advances: exactly the stall the watchdog watches.
	deadline := time.Now().Add(10 * time.Second)
	ts := int64(0)
	for !eng.Health().FloorStalled {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never raised FloorStalled")
		}
		ts += int64(time.Millisecond)
		if err := eng.PushR(okR{Key: 1}, ts); err != nil {
			t.Fatal(err)
		}
		if err := eng.PushS(okS{Key: 2}, ts); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	found := false
	for _, ev := range eng.Events(0) {
		if ev.Kind == "floor_stalled" {
			found = true
		}
	}
	if !found {
		t.Fatal("FloorStalled set without a floor_stalled trace event")
	}
	if snap := eng.StatsSnapshot(); !snap.Health.FloorStalled {
		t.Fatal("StatsSnapshot().Health does not carry FloorStalled")
	}
}
