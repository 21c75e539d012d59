package handshakejoin

import (
	"fmt"
	"time"

	"handshakejoin/internal/collect"
	"handshakejoin/internal/core"
	"handshakejoin/internal/stream"
)

// Side identifies one of the two join inputs.
type Side = stream.Side

// Sides of the join.
const (
	R = stream.R
	S = stream.S
)

// Tuple is a stream element: payload plus sequence number and
// timestamps. Engines assign Seq; callers supply TS.
type Tuple[T any] = stream.Tuple[T]

// Pair is one join match.
type Pair[L, R any] = stream.Pair[L, R]

// Stamped couples a payload with its stream timestamp — the element of
// a batched push (Joiner.PushRBatch/PushSBatch).
type Stamped[T any] struct {
	Payload T
	TS      int64
}

// Result couples a match with its emission time.
type Result[L, R any] = core.Result[L, R]

// Item is one element of the engine output: a Result, or — when
// punctuation is enabled — a punctuation carrying the guarantee that no
// later result has a smaller timestamp.
type Item[L, R any] = collect.Item[L, R]

// Algorithm selects the join operator an Engine runs.
type Algorithm uint8

const (
	// LLHJ is low-latency handshake join (§4 of the paper) — the
	// default and the recommended operator.
	LLHJ Algorithm = iota
	// HSJ is the original handshake join (Teubner & Mueller, SIGMOD
	// 2011): same throughput and scaling, but latency proportional to
	// the window size and no punctuation support. Provided as the
	// paper's baseline.
	HSJ
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case LLHJ:
		return "low-latency handshake join"
	case HSJ:
		return "handshake join"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// IndexKind selects the node-local access path of LLHJ workers. The
// static kinds (ScanIndex, HashIndex, BTreeIndex) are explicit
// overrides fixed for the engine's lifetime; IndexAuto replaces the
// fixed choice with per-key-group runtime selection.
type IndexKind uint8

const (
	// ScanIndex scans node-local windows linearly (default).
	ScanIndex IndexKind = iota
	// HashIndex probes node-local hash tables on KeyR/KeyS — the
	// index acceleration of §7.6 (Table 2) for equi-join predicates.
	HashIndex
	// BTreeIndex probes node-local B-trees with the band
	// [key−Band, key+Band] — for band predicates on an integer key.
	BTreeIndex
	// IndexAuto makes probe strategy a per-(key-group, predicate-class)
	// runtime decision: each arrival's probe dispatches through a
	// strategy table that measures window cardinality and probe
	// selectivity per key-group and flips between scan, hash, and
	// B-tree range probes on sustained evidence (crossover model with
	// hysteresis). Requires KeyR/KeyS and a declared predicate Class;
	// node-local indexes are built lazily when a strategy first demands
	// them and dropped when no group uses them. See the "Probe
	// strategies" section of the package documentation.
	IndexAuto
)

// PredicateClass declares what the join predicate implies about the
// two tuples' keys — the license IndexAuto needs to narrow a probe to
// an index without losing matches. The predicate itself is always
// applied to candidates as a residual, so a class may safely
// under-promise (PredEqui with an extra value condition is fine);
// promising a relation the predicate does not imply loses matches.
type PredicateClass uint8

const (
	// PredOpaque promises nothing; every probe must scan.
	PredOpaque PredicateClass = iota
	// PredEqui promises matches have KeyR(r) == KeyS(s).
	PredEqui
	// PredBand promises matches have |KeyR(r) − KeyS(s)| <= Band.
	PredBand
	// PredLE promises matches have KeyR(r) <= KeyS(s).
	PredLE
	// PredGE promises matches have KeyR(r) >= KeyS(s).
	PredGE
)

// Window specifies one stream's sliding window. Duration and Count may
// be combined; a tuple leaves the window as soon as either bound is
// crossed.
type Window struct {
	// Duration keeps a tuple for this long after its timestamp.
	Duration time.Duration
	// Count keeps the last Count tuples.
	Count int
}

func (w Window) valid() bool { return w.Duration > 0 || w.Count > 0 }

// Config parameterizes an engine joining payloads of type L (stream R)
// and RT (stream S).
type Config[L, RT any] struct {
	// Algorithm selects the operator; default LLHJ.
	Algorithm Algorithm
	// Workers is the pipeline length in processing nodes (the paper's
	// "cores"). With Shards > 1 it is the length of each shard's
	// pipeline, so the total worker count is Shards*Workers. Default 4.
	Workers int
	// Shards > 1 hash-partitions both streams by join key across that
	// many independent LLHJ pipelines (see ShardedEngine). It requires
	// KeyR/KeyS and a predicate that implies key equality — tuples
	// whose keys differ are never compared, because they are routed to
	// (potentially) different shards. 0 or 1 selects the classic
	// single-pipeline Engine. LLHJ only.
	Shards int
	// Predicate is the join condition p(r, s). Required.
	Predicate func(L, RT) bool
	// WindowR and WindowS define the sliding windows. Required.
	WindowR Window
	// WindowS is the S-side window.
	WindowS Window
	// Batch is the driver batch size (the paper uses 64 by default and
	// evaluates 4 in §7.3.1; smaller batches mean lower latency).
	// Default 64.
	Batch int
	// Punctuate enables punctuation generation (LLHJ only).
	Punctuate bool
	// Ordered sorts the output by result timestamp using punctuations
	// (implies Punctuate; LLHJ only). Results are then delayed until
	// the next punctuation.
	Ordered bool
	// OnOutput receives every output item from the collector
	// goroutine. Required.
	OnOutput func(Item[L, RT])

	// Index selects the node-local access path (LLHJ only). The static
	// kinds are explicit overrides, fixed for the engine's lifetime;
	// IndexAuto selects per key-group at runtime and additionally
	// requires Class.
	Index IndexKind
	// Class declares the predicate's key relation for IndexAuto (it has
	// no effect with a static Index kind). Band/LE/GE classes get
	// B-tree range probes instead of full scans.
	Class PredicateClass
	// KeyR extracts the join key of an R payload (any non-scan Index).
	KeyR func(L) uint64
	// KeyS extracts the join key of an S payload.
	KeyS func(RT) uint64
	// Band is the half-width of the BTreeIndex key range probe, and of
	// PredBand range probes under IndexAuto.
	Band uint64

	// Adapt tunes the adaptive shard runtime (ShardedEngine only):
	// idle-shard heartbeats and, when enabled, skew-aware key-group
	// rebalancing. The zero value keeps heartbeats on and rebalancing
	// off.
	Adapt AdaptConfig

	// Obs opts the engine into the live observability layer: an HTTP
	// metrics/pprof endpoint and a control-plane event trace. The zero
	// value disables both; see ObsConfig.
	Obs ObsConfig

	// Durability opts the engine into crash recovery: a write-ahead log
	// of admitted batches plus consistent checkpoints, restored through
	// Joiner.Restore. The zero value disables it; see Durability.
	Durability Durability[L, RT]

	// MaxLiveTuples, when > 0, bounds the engine's live window
	// footprint: a push that would lift the total in-window tuple count
	// (both sides, all shards) above the bound is rejected with
	// ErrOverloaded before it reaches the WAL or any engine state, and
	// Health().Overloaded is set until admission succeeds again. The
	// bound is enforced within the pipeline's in-flight volume (tuples
	// admitted but not yet published by their node are counted against
	// it conservatively). 0 disables admission control.
	MaxLiveTuples int

	// CollectPeriod no longer paces the collector, which is
	// event-driven: it vacuums the result queues (and punctuates) when a
	// worker has queued results or a high-water mark has moved, and
	// sleeps on a doorbell otherwise — no timer sits between a result
	// and OnOutput. The field remains as the default of
	// AdaptConfig.HeartbeatPeriod, its only effect. Default 1ms.
	CollectPeriod time.Duration
	// MaxInFlight bounds the number of messages in flight inside the
	// pipeline; Push blocks when it is reached — yielding while the
	// pipeline keeps retiring messages, asleep until it has drained to
	// half once it does not (Stats.InjectParks). It must stay far below
	// the window sizes in tuples (window semantics are defined at the
	// pipeline entries, so an in-flight volume approaching the window
	// length blurs the window boundary). Default 16.
	MaxInFlight int
	// ExpectedRate, in tuples/second/stream, sizes the original
	// handshake join's window segments for Duration windows (the
	// pipeline-as-window model needs a tuple capacity). Ignored by
	// LLHJ. Default 1000.
	ExpectedRate float64
}

// AdaptConfig tunes the adaptive shard runtime of a ShardedEngine.
//
// The runtime has two independent parts. Idle-shard heartbeats (on by
// default) let a shard that received no tuples for a heartbeat period
// promise the engine-wide ingress floor, so the merged punctuation —
// and with it Ordered-mode output — keeps flowing when one shard's key
// range goes quiet. Skew-aware rebalancing (off by default, Enable)
// samples per-key-group load on SamplePeriod, plans key-group moves
// off overloaded shards, and cuts each move over only once the group
// provably has no joinable window state left on its old shard, so the
// result multiset — and the exact Ordered-mode sequence — is the same
// as if the move had never happened.
type AdaptConfig struct {
	// Enable turns on skew-aware key-group rebalancing.
	Enable bool
	// SamplePeriod is the control-loop cadence. Default 2ms. A
	// negative period disables the background loop; rebalancing then
	// runs only when ShardedEngine.Rebalance is called.
	SamplePeriod time.Duration
	// SkewThreshold is the max/mean per-shard load ratio above which
	// the planner starts moving key-groups. Default 1.25.
	SkewThreshold float64
	// MaxMovesPerCycle bounds the group moves proposed per control
	// cycle. Default Shards.
	MaxMovesPerCycle int
	// StaleMoveCycles is how many control cycles a proposed move may
	// wait for its safe cut-over before it is cancelled. It should
	// comfortably exceed the window residence time of a tuple measured
	// in control cycles, or moves are cancelled before their group
	// could possibly drain. Default 64.
	StaleMoveCycles int
	// EngageThreshold is the smoothed shard-imbalance watermark at
	// which the controller starts planning. Default SkewThreshold.
	EngageThreshold float64
	// DisengageRatio positions the low hysteresis watermark between 1
	// (perfect balance) and EngageThreshold: planning goes quiet below
	// 1 + (EngageThreshold-1)*DisengageRatio. Must be in (0, 1];
	// default 0.5.
	DisengageRatio float64
	// Migration tunes live key-group state migration, the second
	// rebalancing path for groups whose windows never drain.
	Migration MigrationConfig
	// KeyGroups is the size of the key-group indirection table the
	// router partitions through. More groups move load in finer slices
	// at slightly more bookkeeping. Default 64 per shard (bounded to
	// 64..4096); must be >= Shards when set.
	KeyGroups int
	// HeartbeatPeriod is the idle-shard heartbeat cadence: how long a
	// shard goes without traffic before it is ticked with the ingress
	// floor, and so the longest an idle shard holds Ordered output back.
	// It is the one wall-clock period left on the output path (busy
	// shards punctuate on every batch, by event). Default CollectPeriod.
	HeartbeatPeriod time.Duration
	// StallWatchdog, when > 0, arms a watchdog on the heartbeat loop:
	// if the merged punctuation floor fails to advance for this long
	// while ingress is ahead of it, Health().FloorStalled is set and a
	// floor_stalled trace event fires (edge-triggered; floor_recovered
	// when it moves again). Ordered-mode output visibly stuck is
	// exactly this condition. Requires heartbeats (the default) and
	// Punctuate (without punctuations there is no floor to watch); 0
	// disables the watchdog.
	StallWatchdog time.Duration
	// DisableHeartbeat turns idle-shard heartbeats off, restoring the
	// PR-1 behaviour in which a quiet shard holds back the merged
	// punctuation floor until Close.
	DisableHeartbeat bool
}

// MigrationConfig tunes live key-group state migration (ShardedEngine
// with Adapt.Enable). The drain-based cut-over can never move a
// continuously hot key-group — its window always holds fresh tuples —
// so the runtime escalates long-stalled moves to a migration.
//
// The default escalation is incremental (slice) migration: a handoff
// commits the group's route to the new shard — new arrivals land there
// as ordinary full arrivals, and until the handoff finishes each of
// the group's arrivals is duplicated as a probe-only read to the old
// shard, so pairs against the not-yet-moved window state are still
// found exactly once — and the group's window tuples then move in
// bounded slices, oldest first, each hop freezing ingress only for one
// slice plus the pipeline's in-flight cap. Setting Freezing restores
// the all-or-nothing escalation: the whole group moves under a single
// frozen consistent cut, refused when it exceeds the cycle budget.
// Either way the result multiset and the Ordered-mode sequence are
// exactly as if the group had always lived on its new shard; see the
// package documentation for the safety argument.
type MigrationConfig struct {
	// Enable turns migration escalation on.
	Enable bool
	// MaxTuplesPerCycle is the tuple budget one control cycle may
	// migrate. Incremental migration spends it across slice hops; the
	// freezing path refuses a group whose live state exceeds it
	// (before any state is touched). Default 4096.
	MaxTuplesPerCycle int
	// AfterCycles is how many control cycles a planned move must have
	// stalled before it escalates to a migration. Keep it well below
	// Adapt.StaleMoveCycles, or intents are cancelled before they can
	// escalate. Default 4.
	AfterCycles int
	// MinGroupLoad is the per-cycle load EWMA above which a stalled
	// group counts as never-draining and worth migrating; colder
	// groups drain on their own eventually. Default 1.
	MinGroupLoad float64
	// SliceTuples bounds one slice hop of an incremental migration —
	// the longest single ingress freeze a handoff may cost, in window
	// tuples. Default 1024. Ignored with Freezing.
	SliceTuples int
	// MinGapRatio is a noise floor on the escalation gap check: a
	// stalled group migrates only when the donor/receiver load gap
	// also exceeds MinGapRatio times the mean shard load. Under heavy
	// skew the steady-state sample jitters around the unsplittable hot
	// groups; without a floor that jitter reads as an actionable gap
	// and migrations churn forever. 0 disables the floor.
	MinGapRatio float64
	// MaxMigrationsPerSec rate-limits migration starts (burst one);
	// 0 means unlimited. The churn cap for skew the noise floor does
	// not catch.
	MaxMigrationsPerSec float64
	// Freezing selects the all-or-nothing escalation path instead of
	// incremental slices: a stalled group moves in one freezing
	// extract under MaxTuplesPerCycle, stalling the source shard's
	// ingress for the whole copy.
	Freezing bool
}

func (c *Config[L, RT]) validate() error {
	if c.Predicate == nil {
		return fmt.Errorf("handshakejoin: Predicate is required")
	}
	if c.OnOutput == nil {
		return fmt.Errorf("handshakejoin: OnOutput is required")
	}
	if !c.WindowR.valid() || !c.WindowS.valid() {
		return fmt.Errorf("handshakejoin: both windows need a Duration or Count bound")
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Workers < 1 {
		return fmt.Errorf("handshakejoin: Workers must be >= 1, got %d", c.Workers)
	}
	if c.Batch == 0 {
		c.Batch = 64
	}
	if c.Batch < 1 {
		return fmt.Errorf("handshakejoin: Batch must be >= 1, got %d", c.Batch)
	}
	if c.CollectPeriod == 0 {
		c.CollectPeriod = time.Millisecond
	}
	if c.ExpectedRate == 0 {
		c.ExpectedRate = 1000
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 16
	}
	if c.MaxInFlight < 1 {
		return fmt.Errorf("handshakejoin: MaxInFlight must be >= 1, got %d", c.MaxInFlight)
	}
	if c.Algorithm == HSJ && (c.Punctuate || c.Ordered || c.Index != ScanIndex) {
		return fmt.Errorf("handshakejoin: punctuation, ordering and indexes require the LLHJ algorithm")
	}
	if c.Index != ScanIndex && (c.KeyR == nil || c.KeyS == nil) {
		return fmt.Errorf("handshakejoin: Index requires KeyR and KeyS")
	}
	if c.Index == IndexAuto && c.Class == PredOpaque {
		return fmt.Errorf("handshakejoin: IndexAuto requires a declared predicate Class")
	}
	if c.Index > IndexAuto {
		return fmt.Errorf("handshakejoin: unknown Index kind %d", c.Index)
	}
	if c.Shards < 0 {
		return fmt.Errorf("handshakejoin: Shards must be >= 0, got %d", c.Shards)
	}
	if c.Shards > 1 {
		if c.Algorithm != LLHJ {
			return fmt.Errorf("handshakejoin: sharding requires the LLHJ algorithm")
		}
		if c.KeyR == nil || c.KeyS == nil {
			return fmt.Errorf("handshakejoin: Shards > 1 requires KeyR and KeyS")
		}
		if c.Class == PredBand || c.Class == PredLE || c.Class == PredGE {
			// Hash routing sends the two sides of a match to the same
			// shard only when their keys are equal; range classes would
			// silently lose cross-shard matches.
			return fmt.Errorf("handshakejoin: Shards > 1 requires key equality; Class %d implies range matches across shards", c.Class)
		}
		if c.Adapt.KeyGroups != 0 && c.Adapt.KeyGroups < c.Shards {
			return fmt.Errorf("handshakejoin: Adapt.KeyGroups (%d) must be >= Shards (%d)", c.Adapt.KeyGroups, c.Shards)
		}
	}
	if c.Adapt.Enable && c.Shards <= 1 {
		return fmt.Errorf("handshakejoin: Adapt.Enable requires Shards > 1")
	}
	if c.Adapt.SkewThreshold != 0 && c.Adapt.SkewThreshold < 1 {
		return fmt.Errorf("handshakejoin: Adapt.SkewThreshold must be >= 1, got %g", c.Adapt.SkewThreshold)
	}
	if c.Adapt.EngageThreshold != 0 && c.Adapt.EngageThreshold < 1 {
		return fmt.Errorf("handshakejoin: Adapt.EngageThreshold must be >= 1, got %g", c.Adapt.EngageThreshold)
	}
	if c.Adapt.DisengageRatio != 0 && (c.Adapt.DisengageRatio < 0 || c.Adapt.DisengageRatio > 1) {
		return fmt.Errorf("handshakejoin: Adapt.DisengageRatio must be in (0, 1], got %g", c.Adapt.DisengageRatio)
	}
	if c.Adapt.Migration.Enable && !c.Adapt.Enable {
		return fmt.Errorf("handshakejoin: Adapt.Migration.Enable requires Adapt.Enable")
	}
	if c.Adapt.Migration.MaxTuplesPerCycle < 0 || c.Adapt.Migration.AfterCycles < 0 || c.Adapt.Migration.MinGroupLoad < 0 ||
		c.Adapt.Migration.SliceTuples < 0 || c.Adapt.Migration.MinGapRatio < 0 || c.Adapt.Migration.MaxMigrationsPerSec < 0 {
		return fmt.Errorf("handshakejoin: Adapt.Migration knobs must be >= 0")
	}
	if c.MaxLiveTuples < 0 {
		return fmt.Errorf("handshakejoin: MaxLiveTuples must be >= 0, got %d", c.MaxLiveTuples)
	}
	if c.Adapt.StallWatchdog < 0 {
		return fmt.Errorf("handshakejoin: Adapt.StallWatchdog must be >= 0, got %v", c.Adapt.StallWatchdog)
	}
	if c.Durability.enabled() {
		if c.Algorithm != LLHJ {
			return fmt.Errorf("handshakejoin: Durability requires the LLHJ algorithm")
		}
		if c.Durability.EncodeR == nil || c.Durability.DecodeR == nil ||
			c.Durability.EncodeS == nil || c.Durability.DecodeS == nil {
			return fmt.Errorf("handshakejoin: Durability.WALDir requires EncodeR/DecodeR/EncodeS/DecodeS")
		}
		if c.Durability.CheckpointEveryBatches < 0 {
			return fmt.Errorf("handshakejoin: Durability.CheckpointEveryBatches must be >= 0, got %d", c.Durability.CheckpointEveryBatches)
		}
	}
	if c.Ordered {
		c.Punctuate = true
	}
	return nil
}

// Joiner is the driver interface shared by the single-pipeline Engine
// and the hash-sharded ShardedEngine; New returns whichever Config
// selects. Push tuples in non-decreasing timestamp order per stream;
// results (and, when enabled, punctuations) arrive on the OnOutput
// callback.
type Joiner[L, RT any] interface {
	// PushR submits an R tuple with the given timestamp (nanoseconds,
	// any monotonic origin).
	PushR(payload L, ts int64) error
	// PushS submits an S tuple.
	PushS(payload RT, ts int64) error
	// PushRBatch submits a batch of R tuples in non-decreasing
	// timestamp order under one driver admission — one serial section,
	// one routing pass, one expiry-schedule pass, and (sharded) one
	// gate ticket and one bulk hand-off per destination shard —
	// amortizing the per-tuple ingress cost. It is semantically
	// equivalent to calling PushR for each element in order: the same
	// results, and in Ordered mode the same exact sequence. A timestamp
	// regression anywhere in the batch rejects the whole batch before
	// any state changes. The batch slice is copied and may be reused by
	// the caller immediately.
	PushRBatch(batch []Stamped[L]) error
	// PushSBatch submits a batch of S tuples; see PushRBatch.
	PushSBatch(batch []Stamped[RT]) error
	// Tick advances stream time without submitting a tuple, so windows
	// keep sliding on idle streams.
	Tick(ts int64)
	// Checkpoint writes a consistent snapshot of all engine state —
	// window tuples, pending expiries, partial batch buffers, the
	// routing table, and the ordered-output buffer — into
	// <dir>/checkpoint (dir "" selects Durability.WALDir), then
	// truncates WAL segments the snapshot has made redundant. Requires
	// Durability.WALDir. The engine is briefly quiesced but not
	// restarted: ingress resumes as soon as the cut is captured, with
	// the file writes happening off the ingress path. Single-pipeline
	// engines must call it from the driver goroutine; sharded engines
	// accept it from any goroutine.
	Checkpoint(dir string) error
	// Restore loads the checkpoint under dir into a freshly built
	// engine with an identical configuration (window specs, shards,
	// workers, batch, ordering — enforced by fingerprint) and replays
	// the WAL records logged after the cut through the ordinary push
	// paths. The engine must not have admitted anything yet, and the
	// caller must not push concurrently with Restore. See the package
	// documentation's Durability section for the recovery contract.
	Restore(dir string) error
	// Close flushes, stops all goroutines and releases remaining
	// ordered output.
	Close() error
	// Stats returns run counters. Safe to call mid-run from any
	// goroutine: every counter is read atomically, so the view lags
	// the pushers by at most the in-flight batches and is exact once
	// the engine is closed.
	Stats() Stats
	// StatsSnapshot returns Stats plus the live gauges of the
	// observability layer (punctuation-floor lag, per-shard window
	// footprints, expiry backlog, in-flight handoffs). Same mid-run
	// safety as Stats.
	StatsSnapshot() Snapshot
	// Health returns the engine's degradation flags — WAL failure or
	// shed, overload rejection, stalled punctuation floor. Safe to
	// call mid-run from any goroutine; the zero value means healthy.
	Health() Health
	// Events drains the control-plane trace events with sequence
	// number >= since that are still inside the bounded ring, oldest
	// first. Nil when tracing is disabled (see ObsConfig).
	Events(since uint64) []TraceEvent
	// ObsAddr returns the bound address of the observability HTTP
	// endpoint, or "" when it is disabled.
	ObsAddr() string
}

// New builds and starts the engine selected by cfg: a single-pipeline
// Engine, or — when cfg.Shards > 1 — a ShardedEngine fanning out over
// hash-partitioned pipelines.
func New[L, RT any](cfg Config[L, RT]) (Joiner[L, RT], error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Shards > 1 {
		return newSharded(cfg)
	}
	return newEngine(cfg)
}

// Stats summarizes an engine run.
type Stats struct {
	// RIn and SIn count pushed tuples.
	RIn, SIn uint64
	// Results counts emitted matches.
	Results uint64
	// Punctuations counts emitted punctuations.
	Punctuations uint64
	// Comparisons counts window entries inspected across all workers.
	Comparisons uint64
	// ProbeScan, ProbeHash and ProbeBTree count window probes by the
	// access path actually taken — the strategy mix. Under a static
	// Index exactly one of them moves; under IndexAuto their sum equals
	// the total probe count, so a mid-run scrape can check conservation.
	ProbeScan, ProbeHash, ProbeBTree uint64
	// StrategySwitches counts per-key-group probe-strategy flips
	// applied by IndexAuto's crossover model (plus any forced flips).
	StrategySwitches uint64
	// MaxSortBuffer is the ordered-output buffer high-water mark
	// (meaningful with Ordered; the quantity of Figure 21).
	MaxSortBuffer int
	// PendingExpiries counts expiry messages that raced ahead of their
	// tuple; non-zero values indicate the window is shorter than the
	// pipeline transit time.
	PendingExpiries uint64
	// ShardResults counts results per shard (ShardedEngine only; nil
	// for single-pipeline engines). Skew across entries reveals key
	// distributions the partitioner cannot balance.
	ShardResults []uint64
	// ShardIngress counts tuples routed to each shard (ShardedEngine
	// only) — the load-balance view of the routing table. Compare
	// max/mean across entries (metrics.Imbalance) before and after
	// enabling Adapt to see what rebalancing recovered.
	ShardIngress []uint64
	// Rebalances counts control cycles that proposed key-group moves
	// (ShardedEngine with Adapt.Enable only).
	Rebalances uint64
	// KeyGroupMoves counts key-group cut-overs actually applied
	// through the drain path (the group had no joinable state left).
	KeyGroupMoves uint64
	// StateMigrations counts completed live key-group state
	// migrations: moves executed by extracting the group's window
	// state and replaying it on the new shard as store-only arrivals
	// (Adapt.Migration escalation, explicit ShardedEngine.Migrate
	// calls, or finished incremental handoffs).
	StateMigrations uint64
	// MigratedTuples counts window tuples carried by state migrations.
	MigratedTuples uint64
	// SliceMigrations counts bounded slice hops performed by
	// incremental migrations; each moved at most
	// Adapt.Migration.SliceTuples window tuples while both lanes
	// stayed live.
	SliceMigrations uint64
	// SourceFreezeStalls counts migration operations that froze
	// ingress to extract a whole group from its source shard in one
	// cut (the freezing Migrate path). Incremental slice migration
	// performs none: its per-hop stall is bounded by the slice size
	// plus the pipeline's in-flight cap, never by the group's window
	// footprint.
	SourceFreezeStalls uint64
	// MaxMigrationStallNs is the longest single ingress freeze any
	// migration operation held, in nanoseconds (freezing extracts and
	// slice hops alike).
	MaxMigrationStallNs int64
	// StoreSpills counts whole-ring directory spills into the window
	// stores' overflow maps (a seq burst after a long idle).
	StoreSpills uint64
	// StoreReanchors counts below-base ring re-anchors (migration
	// injected state older than the destination window's base).
	StoreReanchors uint64
	// StoreCompactions counts window entry-slab compactions.
	StoreCompactions uint64
	// StoreParks counts entries parked in window overflow maps — the
	// stores' cold tier; sustained growth marks a pathological seq
	// pattern.
	StoreParks uint64
	// StoreOverflow is the current number of entries across all window
	// overflow maps (a gauge, exact when quiescent).
	StoreOverflow int
	// WALRetries counts in-line WAL append and checkpoint-write retry
	// attempts the durability layer's recovery loop performed;
	// non-zero values mean the disk faulted but the fault was ridden
	// out (or escalated to the OnError policy).
	WALRetries uint64
	// WALSheds counts transitions into the degraded (shed) durability
	// state under DurDegrade.
	WALSheds uint64
	// AdmissionRejects counts pushes rejected with ErrOverloaded
	// against Config.MaxLiveTuples.
	AdmissionRejects uint64
	// InjectParks counts how often ingress slept on MaxInFlight: a
	// pipeline held its full complement of in-flight messages and
	// retired none of them for as long as the pushing goroutine was
	// willing to yield, so the goroutine parked until the pipeline had
	// drained to half. Back-pressure that clears within the yield phase
	// (small batches) is not counted.
	InjectParks uint64
}
