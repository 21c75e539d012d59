// Package handshakejoin implements low-latency handshake join (LLHJ),
// the sliding-window stream-join operator of Roy, Teubner and Gemulla,
// "Low-Latency Handshake Join", PVLDB 7(9), 2014 — together with the
// original handshake join it improves upon, the CellJoin and Kang
// baselines it is compared against, and the punctuation machinery that
// turns its output into a deterministically ordered stream.
//
// # Model
//
// A stream join continuously matches tuples from two unbounded streams
// R and S whose "current" contents are defined by sliding windows
// (time-based, tuple-count-based, or both). Handshake join evaluates
// the join by letting the two streams flow past each other through a
// pipeline of processing cores — all communication is between
// neighbouring cores, which is what makes the operator scale on NUMA
// hardware. Low-latency handshake join keeps that communication
// pattern but expedites tuples through the pipeline instead of letting
// them queue, cutting result latency from the scale of the window size
// (minutes) to the scale of the driver's batching delay (milliseconds),
// and its high-water-mark punctuations allow exact output ordering with
// a buffer of only thousands of tuples.
//
// # Usage
//
// Construct an Engine with two payload types, a predicate and window
// specifications, then push tuples in timestamp order:
//
//	eng, err := handshakejoin.New(handshakejoin.Config[Trade, Quote]{
//		Workers:   8,
//		Predicate: func(t Trade, q Quote) bool { return t.Sym == q.Sym },
//		WindowR:   handshakejoin.Window{Duration: time.Minute},
//		WindowS:   handshakejoin.Window{Duration: time.Minute},
//		OnOutput:  func(it handshakejoin.Item[Trade, Quote]) { ... },
//	})
//	...
//	eng.PushR(trade, ts)
//	eng.PushS(quote, ts)
//	eng.Close()
//
// When tuples arrive in batches upstream, PushRBatch/PushSBatch admit
// a whole batch for the cost of roughly one push (see "Batched
// ingress" below).
//
// The engine runs one goroutine per worker plus a collector; results
// and (optionally) punctuations arrive on the OnOutput callback. The
// collector is event-driven (see "Output latency" below): nothing on
// the path from a worker's result to OnOutput waits for a timer.
// Everything under internal/ — the protocol state machines, the
// discrete-event simulator used by the experiment harness, and the
// baselines — is exercised through cmd/llhjbench and the test suite.
//
// # Sharding
//
// The paper scales one pipeline by adding cores; this repository also
// scales across pipelines. Setting Config.Shards > 1 (LLHJ only)
// hash-partitions both streams by join key (Config.KeyR/KeyS) over
// that many independent pipelines of Config.Workers nodes each — New
// then returns a ShardedEngine instead of an Engine, behind the same
// Joiner interface.
//
// Sharding applies when the predicate implies key equality — a plain
// equi-join, or any extra condition nested under it (same symbol and
// price within a band, say). Tuples of equal keys always land in the
// same shard, so the sharded result multiset is exactly the
// single-pipeline one; tuples of different keys are never compared,
// which is where the throughput multiplication comes from. Windows
// stay global: a Count window bounds in-window tuples across all
// shards, and expiries are routed to the shard owning each tuple.
//
// Ordering survives sharding. Each shard's collector punctuates from
// its own pipeline's high-water marks; a merge stage folds the
// per-shard punctuation streams by taking the minimum promise across
// shards (internal/shard.Merge over internal/order.PunctFloor), and
// the downstream sorter releases results in exact global timestamp
// order — the same deterministic sequence for every shard count. A
// shard that receives no traffic holds the merged punctuation back;
// Close releases everything still buffered, in order.
//
// The sharded driver, unlike the single-pipeline Engine, accepts
// PushR/PushS from concurrent goroutines: each side takes a short
// serial section (sequence numbers, timestamp checks, window
// accounting, routing), then hands the tuple to the owning shard
// through a per-shard ingress gate, so a push blocked on one saturated
// shard's back-pressure does not stall pushers bound for other shards.
//
// # Back-pressure: yield, then park
//
// A pipeline holds at most MaxInFlight messages; the flush that would
// add one more waits in internal/pipeline.Live.Inject, in two phases.
// It first yields the processor, and keeps yielding for as long as the
// pipeline's depth moves: a worker retires a small batch in a
// microsecond or two, so a pusher of small batches is let in again long
// before a sleep and its wake-up would have finished, and never pays
// for one. When the depth has stood still for about a thousand yields —
// the workers are inside long scans, or there are more runnable
// goroutines than cores and the pusher is the one too many — the
// pusher parks. Workers wake parked pushers as they retire the message
// that brings the depth down to MaxInFlight/2 (one sleep buys room for
// half a pipeline of batches), and Close wakes them for good. This is
// the collector's doorbell turned around — drivers sleep, workers ring,
// and a ring that finds nobody waiting costs one atomic load — except
// that several drivers can wait at once, so it is a waiter count and a
// condition variable rather than a flag and a one-token bell. The
// yield-only loop it replaced kept a spinning pusher on a core the
// workers of a scan-bound pipeline needed: on the paper's band join
// (two workers, two cores) it took 30 % of the CPU and made saturated
// throughput differ by a factor of two from one engine to the next.
// Stats.InjectParks (llhj_inject_parks_total) counts the sleeps:
// ingress waiting on MaxInFlight, as opposed to on an ingress gate or
// a stream lock.
//
// # Scans run as blocks
//
// Without an index, a worker compares an arriving tuple with every
// entry of its window fragment, and the per-comparison cost is the
// operator's throughput (§7: ~2 000 comparisons per tuple on the
// paper's job). Workers therefore do not scan tuple by tuple. Neither
// arrival handler writes the window it reads — R arrivals read WSk and
// the in-flight buffer and store into WRk, S arrivals the reverse — so
// all probes of a message run before any of its bookkeeping, and
// together: the window entry is the outer loop, the message's packed
// payloads (in tiles of 64) the inner one, and Config.Predicate is
// called directly on the two payloads — one indirect call per
// comparison, where the per-tuple scan paid a callback, a predicate
// call and a copy of the stored tuple. Matches are collected as
// (probe, slot) pairs and emitted in exactly the order the per-tuple
// loop produced: message order, and per tuple window matches in arrival
// order, then in-flight matches (internal/core's exactness suite keeps
// that loop as its reference; the simulator's result sequence is pinned
// to it). A per-tuple push is a block of one; under IndexAuto each run
// of consecutive scan-dispatched tuples of a message is a block, and
// hash- or B-tree-dispatched tuples keep their own probes in between.
//
// # Output latency: the event-driven collector
//
// Each pipeline has one collector goroutine (§5) that vacuums the
// workers' result queues into the output stream and, when punctuating,
// turns the pipeline's high-water marks into punctuations (§6.1). It
// does not poll. It sleeps on an output doorbell owned by the live
// pipeline (internal/pipeline.Live, the same notify-and-idle-flag
// pattern the worker goroutines use among themselves): the collector
// raises a parked flag, re-checks whether any result queue is
// non-empty, the smaller high-water mark has moved past the last
// punctuation, or the queues have closed, and only then blocks.
// Workers ring once per handled message that queued a result or — when
// punctuating — finished a batch, the driver rings when a heartbeat
// raises the marks, a full result queue rings, and a closing queue
// rings. A ring costs one atomic load while the collector is awake and
// a non-blocking channel send when it is parked, so a result's way to
// OnOutput is batch fill plus pipeline traversal plus one goroutine
// wake-up, not a sleep: on the repository benchmark's per-tuple
// Ordered workload the median result latency at the low rate went from
// one 1 ms timer period (which no box delivers in under ~1.1 ms) to
// about 0.2 ms. An idle engine runs no collector pass at all;
// Snapshot.CollectorPasses / CollectorWakeups (llhj_collector_*_total)
// make the doorbell's cost — passes per result — a scrapeable ratio.
//
// A pass keeps the §6.1.3 order — read the high-water marks, vacuum,
// punctuate — so a punctuation never precedes a result with a smaller
// timestamp, and it takes what was queued when it started rather than
// chasing busy workers, so the punctuation is not held back behind
// their output. The marks themselves are per worker: every worker
// forwards a batch before scanning it, so a batch reaching the pipeline
// end says nothing about the workers behind it, and a mark is the
// timestamp up to which every worker has finished. Punctuations now
// follow stream progress batch by batch (thousands a second), which is
// why the downstream sorter (internal/order) holds results in a heap:
// a punctuation costs in proportion to what it releases and allocates
// nothing.
//
// Config.CollectPeriod is kept for source compatibility and now only
// supplies the default of Adapt.HeartbeatPeriod, the one wall-clock
// period left on the output path: how long an idle shard goes unticked
// before it promises the ingress floor.
//
// # Batched ingress
//
// Every push pays an admission tax — the serial section, a routing
// lookup, expiry scheduling, a gate ticket, a lane-buffer append —
// and when the upstream already delivers tuples in batches (a Kafka
// poll, a WAL segment, a network read), paying it per tuple is waste.
// PushRBatch/PushSBatch (on both engines, via the Joiner interface)
// admit a whole caller batch — one side's tuples in non-decreasing
// timestamp order — under a single admission: one serial section, one
// routing pass that locks each touched accounting stripe once, one
// window-accounting pass scheduling the batch's expiries per lane in
// bulk, and one gate ticket plus one bulk lane hand-off per
// destination shard. The lane replays the exact per-tuple flush
// schedule (flushes are triggered by buffer length alone), and while
// an incremental handoff is open, the batch's probe-only double-reads
// travel to the source shard as one slice message per batch instead
// of one message per arrival, split only where a due expiry would
// have been injected between two per-tuple probes. Flushed batch,
// probe-slice and expiry-message backings are pooled per lane and
// recycled once the last pipeline node finishes with them, so the
// steady-state push path allocates nothing.
//
// Batching is a pure amortization: PushR is semantically a batch of
// one, and a batch call is semantically the per-tuple call sequence —
// the same
// result multiset, the same exact Ordered-mode sequence, the same
// ingress counters; a timestamp regression anywhere in a batch
// rejects the whole batch before any state changes. The only
// semantic footprint is the batching blur all driver batching has:
// see the window-granularity note at the end of this page. Batches
// of different sides may be pushed concurrently, like per-tuple
// pushes; all tuples of a batch share one admission wall-clock stamp
// for latency accounting.
//
// # Storage layout: the ring-slot window store
//
// Each pipeline node stores its share of a window in internal/store's
// Window: a circular arrival-ordered entry array (scan order is
// arrival order, which probes and expiries rely on) plus a directory
// that resolves a sequence number to its slot. The directory is not a
// hash map. Node k of an n-node pipeline only ever stores tuples whose
// home is k — seq % n == k — so the seqs a window holds form a sparse
// subsequence of one arithmetic progression with stride n. The
// directory exploits that: a circular int32 ring indexed by
// (seq − base)/stride, where base advances past expired entries and
// slot+1 is stored so that zero means "no entry here". Lookup, insert
// and delete are one array access with no hashing, no map churn and no
// per-entry heap boxes; gaps (seqs homed elsewhere, or holes left by
// extracted migration slices) simply stay zero.
//
// The layout leans on a seq-contiguity invariant: the live seqs of one
// window stay within a bounded span of the progression. Normal
// operation preserves it — arrivals append near the top, expiries
// retire the bottom, and base slides forward over the zeros they
// leave. Two things break it. A migration's store-only injection can
// land below base (an older group's state arriving on a lane whose own
// entries are newer); the ring re-anchors backwards when the distance
// is small and otherwise parks the entry in a spill map. And a lane
// can go idle while the global seq space races ahead (count-window
// expiries only fire on arrivals), so the next arrival may be an
// unbounded distance above base; the ring is capped (1 Mi slots), and
// a jump beyond the cap spills the stranded old entries to the map and
// re-anchors at the new seq. The spill tier is cold by construction —
// it is consulted only when non-empty — so the paper's steady-state
// path never pays for it.
//
// Equi-join probes use an intrusive hash index over the same entries:
// an open-addressing key table holds each key's chain head and tail,
// and the chain links live in a slice parallel to the entry array, so
// probing walks indices, insertion is a tail append touching one
// bucket, and interior deletions (expired or extracted tuples) relink
// neighbours without touching the table at all. An ordered B-tree
// index over the same entries serves range probes (RangeProbe) for
// band and inequality predicates; like the hash index it tracks
// interior deletions and compactions, and a held probe cursor stays
// coherent across both.
//
// # Probe strategies
//
// The paper's inner loop — every arrival probing every node's window
// fragment — admits three access paths with very different cost
// shapes: a full scan is O(window/nodes) but has no maintenance cost
// and wins when nearly everything matches; a hash probe is O(chain)
// and wins for selective equi-joins; a B-tree range probe is
// O(log w + range) and is the only sublinear option for band and
// inequality predicates. No single choice is right across a stream
// whose selectivity drifts, so the choice is made at runtime,
// per key-group.
//
// Config.Index picks the regime. The static kinds (ScanIndex,
// HashIndex, BTreeIndex) are explicit overrides: every node uses that
// one path for the engine's lifetime, the strategy machinery is not
// even constructed, and dispatch costs nothing — the right call when
// the workload is known. IndexAuto replaces the static choice with a
// shared strategy table (internal/probe): each probe reads the
// current strategy for the arrival's key-group (one atomic load from
// a read-mostly array) and takes that path.
//
// Config.Class bounds what IndexAuto may do. It declares what the
// predicate implies about the two keys — PredEqui (matches share a
// key), PredBand (keys within Config.Band), PredLE/PredGE (key
// inequality), PredOpaque (no promise) — and with it the admissible
// strategies: an equi group may scan, hash-probe, or range-probe the
// point range [k,k]; a band group may scan or range-probe
// [k−Band, k+Band]; inequality groups may scan or range-probe the
// half-line; an opaque predicate can only scan (IndexAuto rejects
// PredOpaque at validation). The class must under-promise, never
// over-promise: PredEqui with an extra value condition nested under
// the key equality is fine, because the declared relation only
// narrows which window entries are inspected, and the full predicate
// still runs on each.
//
// Selection is a sampled crossover model in scan-entry cost units.
// Nodes feed one probe in four into the table's per-group sample
// (live window size, entries inspected, matches), and every 128
// sampled probes a group runs a decision epoch: price each admissible
// path — scan at avgLive+1, hash at est×1.25+12, B-tree at
// est + 2·log2(avgLive+2) + const — where est is the measured
// per-probe footprint, floored by observed matches while scanning and
// capped by the router-fed group cardinality's per-node share. The
// constants charge each indexed path its amortized maintenance, so a
// mostly-idle index cannot look free. A challenger must beat the
// incumbent by a 1.2× margin for two consecutive epochs before the
// group flips — hysteresis that keeps near-ties from oscillating.
// Stats.StrategySwitches counts applied flips; Stats.ProbeScan/
// ProbeHash/ProbeBTree report the realized dispatch mix.
//
// Indexes follow the strategies lazily. A window builds its hash
// table or B-tree the first time a probe needs it (backfilled from
// the live entries in one pass) and tears it down after sitting
// unused for thousands of arrivals, so a pipeline whose groups all
// settle on scanning pays no maintenance at all, and a flip back
// simply rebuilds. Correctness never depends on which path runs: all
// three inspect supersets of the matching entries and apply the full
// predicate, so the result multiset — and the Ordered-mode sequence —
// is invariant under any interleaving of strategy flips, which the
// oracle suites pin with forced mid-stream flips across shard counts,
// open handoffs and slice migrations.
//
// # Adaptive shard runtime
//
// Routing goes through a key-group indirection: a key hashes onto one
// of many key-groups (G ≫ shard count) and a table maps groups to
// shards. Config.Adapt turns the static table into a live control
// loop (internal/adapt): a sampler collects per-group load and
// per-shard probes every period, a planner moves groups off
// overloaded shards, and the router cuts each move over only when the
// group provably has no joinable window state left on its old shard —
// every count-bound tuple has left its window and stream time has
// passed every recorded expiry deadline, so no tuple routed anywhere
// afterwards could have joined state stranded on the old shard. Under
// that protocol rebalancing is invisible in the output: the result
// multiset and the Ordered-mode sequence are exactly those of a fixed
// table.
//
// The same protocol implies a planning constraint: a continuously hot
// group's window never empties, so the drain path alone can never
// move it. The planner therefore first relieves an overloaded shard
// by evacuating its colder co-resident groups; when a planned move
// stalls for Adapt.Migration.AfterCycles control cycles while the
// group's load EWMA stays high — proof the group will never drain —
// and Adapt.Migration is enabled, the move escalates to a live state
// migration (see below). A shard whose load is one giant key still
// cannot be split below key granularity by any partition-level
// scheme, but migration lets that key's group claim a shard of its
// own and lets every hot co-resident move out of its way.
//
// # Live state migration
//
// State migration moves a key-group's live window state between
// pipelines mid-stream, extending the paper's per-node protocol
// (§4, Table 1) with two arrival flavors (internal/core.ArrivalMode):
// a store-only arrival enters the window at its home node and
// participates in every future probe but performs no probe of its own
// — its past joins were already emitted on the pipeline it came from
// — and a probe-only arrival probes without ever entering a window.
//
// The freezing form (ShardedEngine.Migrate, or the control loop's
// escalation with Adapt.Migration.Freezing) moves a group in one cut:
// both ingress sides freeze, the old shard's pipeline flushes and
// quiesces, the group's window tuples and their pending expiry-queue
// entries are extracted under that consistent cut, the routing table
// swaps, the tuples replay into the new shard's pipeline as
// store-only arrivals, the expiries re-bind there (and the global
// count-window accounting is re-attributed), and the destination
// quiesces before unfreezing.
//
// Safety: at the cut, every pair among the group's extracted tuples
// has already been emitted (the old pipeline was quiescent), and no
// tuple of the group is in flight anywhere. Store-only re-insertion
// emits nothing, so nothing is emitted twice; every future arrival of
// the group routes to the new shard and traverses its whole pipeline,
// so it probes the migrated copies exactly once — nothing is missed.
// Expiries move with their tuples and keep firing before the group's
// next arrival with an equal-or-later timestamp, so window semantics
// are unchanged. The punctuation floor cannot regress: store-only
// arrivals do not advance the stream high-water marks, and any future
// result involving a migrated tuple pairs it with a future arrival
// whose timestamp bounds the result's from below — hence the Ordered
// sequence is exactly that of a fixed table. A per-cycle tuple budget
// (Adapt.Migration.MaxTuplesPerCycle) refuses over-budget moves
// before any state is touched, bounding the ingress stall;
// Stats.StateMigrations and Stats.MigratedTuples report the traffic.
//
// # Incremental slice migration
//
// The freezing cut stalls exactly the shard that is already the
// bottleneck, for as long as the whole group takes to move — the
// worse the skew, the longer the freeze. Incremental migration (the
// default escalation path, and ShardedEngine.MigrateIncremental /
// BeginMigration / AdvanceMigration) removes that coupling with a
// two-phase handoff. The commit phase swaps the group's route and
// settles the old shard once (a wait bounded by the batch size plus
// the pipeline's in-flight cap, independent of the group's windows):
// from that instant, every arrival of the group lands on the new
// shard as an ordinary full arrival, and — because the group's window
// state is still split across two lanes — the router duplicates each
// such arrival as a probe-only read to the old shard. The transfer
// phase then moves the group's window tuples oldest-first in bounded
// slices (Adapt.Migration.SliceTuples per hop): each hop retires the
// in-flight double-reads, extracts one slice with its pending expiry
// entries, settles the destination, and replays the slice there as
// store-only arrivals. When the old shard holds nothing of the group,
// the handoff record clears and the double-reads stop.
//
// The double-read dedup invariant carries the correctness argument:
// every (arrival, stored-tuple) pair of the group is examined on
// exactly one lane. A stored tuple lives on exactly one lane at any
// instant, and a slice changes lanes only between full pipeline
// settles — after every in-flight probe-only read has finished
// probing it on the source, and before any in-flight full arrival
// could meet its copy on the destination. An arrival's probe-only
// copy therefore sees precisely the slices that had not yet moved
// when it was admitted, its full copy sees precisely the slices (and
// newer arrivals) already resident at the destination, and no pair is
// seen twice or missed. Probe-only copies store nothing, acknowledge
// nothing and never advance a high-water mark, so the punctuation
// argument of the freezing form applies unchanged and the Ordered
// sequence stays exact — the oracle suites pin this with handoffs
// held open across hundreds of pushes. Stats.SliceMigrations counts
// hops; Stats.SourceFreezeStalls stays zero on this path, and
// Stats.MaxMigrationStallNs is bounded by one slice rather than one
// group.
//
// Steady-state churn is governed by two Adapt.Migration knobs: a
// noise floor (MinGapRatio) ignores donor/receiver gaps below a
// fraction of the mean shard load — under heavy skew the load sample
// jitters around the unsplittable hot groups, and without a floor
// that jitter reads as actionable skew forever — and a rate limiter
// (MaxMigrationsPerSec, burst one) caps migration starts outright.
//
// Idle-shard heartbeats run independently of rebalancing (and are on
// by default): a shard that received no tuples for a heartbeat period
// (Adapt.HeartbeatPeriod, default CollectPeriod, default 1ms) is ticked with the engine-wide ingress floor — sound because every
// future tuple of either side carries a timestamp at or above the
// floor, and a result's timestamp is the later of its inputs — so its
// punctuation promise, and with it Ordered-mode output, keeps flowing
// when parts of the key space go quiet. Heartbeats flush partial
// batches on wall-clock time (the equivalent of a Tick), which keeps
// batch-granular window boundaries within the documented
// Shards*Batch blur but makes them wall-clock-dependent; set
// Adapt.DisableHeartbeat (or Batch 1, where boundaries are exact) if
// bit-for-bit schedule determinism matters more than idle latency.
//
// Window boundaries remain batch-granular, and the granularity grows
// with the fan-out: each shard flushes after collecting Batch of its
// own tuples, so boundaries blur by up to Shards*Batch tuples of the
// global stream — and a caller batch (PushRBatch/PushSBatch) defers
// its expiry pops to the same flush points, widening the blur to
// Shards*max(Batch, callerBatch) tuples. Keep windows much larger
// than Shards*max(Batch, callerBatch) (and than
// Shards*Batch*MaxInFlight, which bounds the in-flight volume
// expiries must never race) — the same windows-dominate-batching
// regime the paper's single pipeline assumes.
//
// # Durability
//
// Config.Durability turns either engine into a recoverable one: a
// write-ahead log of every admitted batch plus consistent-cut
// checkpoints, behind two Joiner methods (Checkpoint, Restore) and the
// package function CheckpointInfo. The caller supplies payload codecs
// (EncodeR/DecodeR, EncodeS/DecodeS — the engine is generic, so it
// cannot serialize payloads itself) and a WALDir; everything else is
// policy knobs.
//
// The WAL (internal/wal) is an append-only sequence of CRC-framed
// records — u64 index, record kind (R batch, S batch, tick), length,
// payload, CRC32C — split across size-rotated segment files. A torn or
// corrupt tail frame ends replay cleanly (everything before it is
// intact); a corrupt interior frame is an error. Appends are buffered
// and group-committed: with SyncEvery > 0 the log flushes and fsyncs
// once per that many records, and the fsync itself runs on a background
// goroutine (asynchronous group commit) so the push path never blocks
// on the disk — the loss window on a crash is the records appended
// since the last completed background fsync, and a failed background
// fsync is sticky, failing every later append rather than silently
// dropping pages. SyncEvery <= 0 leaves every append in the OS page
// cache (fastest, loses the most on a machine crash).
//
// Checkpoint captures a consistent cut without stopping the world for
// the write: admission freezes just long enough to drain the ingress
// gates, snapshot every lane under its own quiesce, drain the result
// queues into the sorter and read the routing table, then the locks
// release and the state files are written off the ingress path. The
// manifest records the WAL resume index and the sorter's punctuation
// floor, read atomically with the sorter snapshot — the linchpin of
// the recovery filter below. A checkpoint into the WAL directory also
// truncates the log through the resume point, bounding replay work;
// CheckpointEveryBatches > 0 cuts these automatically every N admitted
// batches. Checkpoint-state files carry a fingerprint of the engine
// shape (shards, workers, window bounds), so restoring into a
// differently-shaped engine fails loudly instead of corrupting state.
//
// Restore, on a freshly built engine, loads the checkpoint state —
// windows, lanes, expiry queues, router table, open handoff records,
// sorter buffer — and replays the WAL tail through the ordinary push
// paths (so replayed tuples probe, join and punctuate exactly as live
// ones). The recovery contract: take the killed run's output up to the
// crash, keep only results with timestamp below the manifest's
// punctuation floor, and append the restored run's output — under a
// sequential driver the concatenation equals the uninterrupted run's
// result multiset, and in Ordered mode its exact sequence, open
// incremental handoffs included. (Results at or above the floor may be
// re-emitted after restore — with concurrent pushers the guarantee is
// at-least-once across the crash, deduplicable on (R.Seq, S.Seq).)
// The kill/restore oracle suites, including a seeded fuzz arm over
// shard counts, window shapes and handoffs held open across the kill,
// pin this exactly; `llhjbench recover` prices the ingest tax and
// restore time (BENCH_recover.json).
//
// # Failure modes
//
// The durable engine's behavior under disk and overload faults is a
// contract, pinned by a deterministic fault-injection harness
// (internal/fault: a pluggable filesystem seam plus a rule plan —
// fail the Nth fsync, return ENOSPC, tear a write short, add latency
// — threaded in via Durability.FS) and the chaos oracle suite.
//
// Per-fault contract. A transient WAL append or fsync failure is
// retried with backoff (Durability.RetryAttempts, RetryBackoff,
// RetryBackoffMax); between attempts the log is reseated against
// what actually reached the disk, so a record is never applied twice
// and never silently lost — the retried push either lands the record
// exactly once or fails. ENOSPC and torn writes follow the same path:
// the partial frame is truncated away on reseat, and replay treats a
// torn tail as a clean end of log (a corrupt frame before an intact
// one — real mid-log damage — is salvaged through the last intact
// prefix by wal.Replay). A failed segment-rotation create is
// non-fatal by construction: the record that triggered rotation is
// durable in the old segment before the new one is created, so the
// engine keeps serving from the over-full segment and retries the
// rotation on the next append. Directory entries are fsynced after
// segment create, rotation, and manifest rename, so a crash cannot
// orphan a just-created file; checkpoint state files are written to
// temp names and atomically renamed, so a crash mid-checkpoint
// leaves the previous checkpoint intact.
//
// When retries exhaust, Durability.OnError picks the policy. DurFail
// (default): the failing push returns the error, every later push
// fails sticky, and Health().WALFailed is set — the caller decides
// whether to Checkpoint into a healthy directory (which re-arms the
// WAL there and clears the flag) or drain and restart. DurDegrade:
// the engine sheds durability instead — the unloggable record is
// dropped from the log (never from the join: the push still
// applies), pushes keep succeeding undurably, WALFailed is set and a
// wal_degraded event fires. A later successful Checkpoint into a
// healthy directory re-arms logging there (wal_rearmed), and because
// the checkpoint snapshots full engine state, restore from the new
// directory is exact — the shed window costs redo-durability, not
// correctness.
//
// Overload is bounded by Config.MaxLiveTuples: admission control
// rejects a push with ErrOverloaded before any state changes (a
// batch rejects whole — no partial application) once the live window
// footprint would exceed the cap. The bound counts settled window
// tuples, lane batch buffers, and tuples admitted since the last
// footprint sample, so it is conservative by at most the pipeline's
// in-flight volume; WAL replay bypasses it (acknowledged records are
// re-admitted unconditionally, and Restore re-seeds the bound from
// the restored footprint after the replay settles).
// Health().Overloaded is set while the last admission decision was a
// rejection and clears on the next accepted push — expiries drain
// the windows, so overload is self-healing once ingress pauses or
// the window bounds pass.
//
// Health() reports the three sticky conditions — WALFailed,
// Overloaded, FloorStalled — and Snapshot.Health carries the same
// through the observability surfaces (llhj_health, llhj_health_flag,
// llhj_wal_retries_total, llhj_wal_sheds_total,
// llhj_admission_rejects_total). FloorStalled is the sharded
// engine's watchdog (AdaptConfig.StallWatchdog) for a merged
// punctuation floor that stops advancing while ingress runs ahead —
// the symptom of a shard that stopped promising floors (Snapshot's
// FloorHolder / llhj_floor_holder names it) or of an OnOutput callback
// that blocks its collector; it fires a floor_stalled event, and clears
// itself (floor_recovered) if the floor moves again. The chaos
// suite (chaos_test.go) holds the whole contract together: killed
// runs under injected fsync/ENOSPC/torn-write faults restore to the
// oracle's exact output, rotation faults keep the engine serving,
// degrade runs shed and re-arm without losing a result, and
// `llhjbench recover` prices the disarmed seam (wal+seam row) and
// demos the shed/re-arm cycle (degrade row).
//
// # Observability
//
// Both engines expose a live observability layer, opt-in via
// Config.Obs. Three surfaces share one contract — all of them are safe
// to use mid-run, from any goroutine, while pushers are active:
//
// Joiner.StatsSnapshot returns a Snapshot: the cumulative Stats
// counters plus live gauges a post-Close Stats call cannot answer —
// the punctuation-floor lag (Snapshot.FloorLagNs, the paper's latency
// proxy: newest admitted timestamp minus the merged floor), the shard
// pinning that floor (Snapshot.FloorHolder: whose latest punctuation is
// the oldest, i.e. who Ordered output is waiting for), per-shard live
// window footprints, per-shard expiry-queue depth, per-shard collector
// passes and doorbell wake-ups, and the number of key-groups currently
// mid-handoff. Stats itself is also sound
// mid-run: every counter is an atomic, cumulative totals lag
// concurrent pushers by at most the in-flight batches, and the
// conservation invariant Σ ShardIngress ≤ RIn+SIn holds in every
// snapshot (exactly equal once the engine is closed).
//
// Joiner.Events drains the control-plane event trace: a bounded
// lock-free ring (Config.Obs.EventBuffer) of structured TraceEvents
// recording what the control plane did and when. Kinds and their A/B
// operands:
//
//	rebalance_applied  shard=-1            A=moves proposed   B=moves applied
//	handoff_begin      shard=to,   group   A=source shard     B=0
//	slice_hop          shard=to,   group   A=tuples moved     B=tuples remaining
//	handoff_settle     shard=to,   group   A=tuples moved     B=source shard
//	migrate_freeze     shard=to,   group   A=tuples moved     B=source shard
//	heartbeat_stall    shard=idle, group=-1  A=floor ticked   B=0  (once per stall episode)
//	ring_spill         shard=lane          A=entries spilled  B=ring span at spill
//	ring_reanchor      shard=lane          A=distance below base  B=new span
//	window_compact     shard=lane          A=slots reclaimed  B=live entries kept
//	strategy_switch    shard=-1,   group   A=from strategy    B=to strategy
//	checkpoint_begin   shard=-1,  group=-1 A=WAL resume index B=0
//	checkpoint_complete shard=-1, group=-1 A=duration ns      B=state bytes
//	wal_rotate         shard=-1,  group=-1 A=new segment index B=0
//	restore_replay     shard=-1,  group=-1 A=records replayed B=replay ns
//
// Config.Obs.Addr serves both over HTTP for the engine's lifetime:
// /metrics in Prometheus text exposition, /events as JSONL
// (?since=N resumes from a sequence number), /debug/vars (expvar) and
// /debug/pprof. The exported names: llhj_ingress_total{side},
// llhj_results_total, llhj_punctuations_total, llhj_comparisons_total,
// llhj_pending_expiries_total, llhj_shard_ingress_total{shard},
// llhj_shard_results_total{shard}, llhj_live_window{side,shard},
// llhj_expiry_depth{shard}, llhj_floor_lag_ns, llhj_floor_holder,
// llhj_collector_passes_total{shard},
// llhj_collector_wakeups_total{shard}, llhj_handoffs_inflight,
// llhj_rebalances_total, llhj_keygroup_moves_total,
// llhj_state_migrations_total, llhj_migrated_tuples_total,
// llhj_slice_migrations_total, llhj_probe_dispatch_total{strategy},
// llhj_probe_dispatches_total, llhj_strategy_switches_total,
// llhj_store_{spills,reanchors,
// compactions,parks}_total, llhj_store_overflow, llhj_max_sort_buffer,
// llhj_wal_bytes_total, llhj_checkpoints_total,
// llhj_checkpoint_duration_ns, llhj_inject_parks_total,
// llhj_trace_events_total, and the llhj_output_latency_ns histogram —
// result latency from admission of the later input tuple to delivery
// on the serving path.
//
// The overhead contract: the layer never touches the per-tuple hot
// path. Counters are per-lane single-writer atomics (plain read,
// atomic store — no read-modify-write in the push path beyond what the
// engine already did); trace events are emitted only from cold
// control-plane branches (rebalance cut-overs, handoff hops, freezes,
// ring spills and re-anchors, slab compactions, heartbeat stalls); and
// scrapes read without taking the ingress locks, so a tight scrape
// loop cannot stall admission. cmd/llhjbench and cmd/llhjlive wire the
// layer up behind -obs, alongside -cpuprofile, -memprofile and -pprof.
package handshakejoin
