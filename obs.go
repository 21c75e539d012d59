package handshakejoin

import (
	"strconv"

	"handshakejoin/internal/metrics"
	"handshakejoin/internal/obs"
)

// ObsConfig opts an engine into the live observability layer.
//
// With a non-empty Addr the engine serves, for its lifetime, an HTTP
// endpoint with Prometheus-text metrics (/metrics), the control-plane
// event trace as JSONL (/events?since=N), expvar (/debug/vars) and
// net/http/pprof (/debug/pprof/). With EventBuffer > 0 (or any Addr)
// the engine records control-plane trace events into a bounded
// lock-free ring, drainable via Joiner.Events.
//
// The layer is strictly off the per-tuple hot path: counters are
// per-lane single-writer atomics, trace events are emitted only from
// cold control-plane branches (rebalance cut-overs, handoff hops, ring
// spills, compactions, heartbeats), and scrapes read without taking
// the ingress locks.
type ObsConfig struct {
	// Addr is the listen address for the export endpoint (e.g.
	// "127.0.0.1:9177", or ":0" for an ephemeral port — read the bound
	// address back with Joiner.ObsAddr). Empty disables the server.
	Addr string
	// EventBuffer is the trace-ring capacity in events (rounded up to a
	// power of two, minimum 64). 0 with an Addr set defaults to 1024;
	// 0 without an Addr disables tracing.
	EventBuffer int
}

// enabled reports whether any part of the layer is on.
func (o ObsConfig) enabled() bool { return o.Addr != "" || o.EventBuffer > 0 }

// ringSize returns the trace-ring capacity to allocate.
func (o ObsConfig) ringSize() int {
	if o.EventBuffer > 0 {
		return o.EventBuffer
	}
	return 1024
}

// TraceEvent is one control-plane trace event. Kind names the event
// ("rebalance_applied", "handoff_begin", "slice_hop", "handoff_settle",
// "migrate_freeze", "heartbeat_stall", "ring_spill", "ring_reanchor",
// "window_compact", "strategy_switch"); Shard and Group locate it (-1
// when not applicable); A and B are kind-specific operands (see the
// package documentation's Observability section for the schema).
type TraceEvent = obs.Event

// Snapshot is a race-safe mid-run view of an engine: the cumulative
// Stats plus live gauges a post-Close Stats call cannot answer. All
// fields are read from atomics (or under short internal locks), so
// calling StatsSnapshot concurrently with pushers is sound; cumulative
// counters lag the pushers by at most the in-flight batches.
type Snapshot struct {
	Stats

	// FloorLagNs is the punctuation-floor lag — newest admitted stream
	// timestamp minus the merged punctuation floor — the paper's
	// latency proxy: a growing lag means results are being promised
	// ever further behind ingress. -1 while either side is unknown
	// (nothing pushed yet, or no floor promised yet).
	FloorLagNs int64
	// FloorHolder is the shard pinning the merged punctuation floor:
	// the one whose latest punctuation is the oldest, which Ordered
	// output is waiting for (the lowest index among equals; 0 on a
	// single-pipeline engine). -1 when the engine does not punctuate.
	FloorHolder int
	// InFlightHandoffs counts key-groups currently mid-handoff
	// (routing swapped, window state still split across two shards).
	InFlightHandoffs int
	// LiveWindowR / LiveWindowS are the per-shard live window
	// footprints in tuples (index = shard; length 1 for a
	// single-pipeline engine).
	LiveWindowR []int64
	LiveWindowS []int64
	// ExpiryDepth is the per-shard count of scheduled-but-not-yet-due
	// expiry entries — the backlog the window slide is working off.
	ExpiryDepth []int64
	// CollectorPasses is the per-shard count of collection passes and
	// CollectorWakeups how often each shard's collector slept on its
	// output doorbell and was rung awake. The collector is event-driven,
	// so both stand still on an idle shard; passes per result is what
	// the doorbell costs.
	CollectorPasses  []uint64
	CollectorWakeups []uint64
	// NextEventSeq is the sequence number the next trace event will
	// get; pass it to Events as since to drain only newer events. 0
	// when tracing is disabled.
	NextEventSeq uint64
	// WALBytes is the cumulative byte count appended to the write-ahead
	// log; Checkpoints the number of completed checkpoints; and
	// LastCheckpointNs the wall duration of the most recent one. All
	// zero when durability is disabled.
	WALBytes         uint64
	Checkpoints      uint64
	LastCheckpointNs int64
	// Health is the engine's degradation flags at the snapshot instant
	// (the same view Joiner.Health returns).
	Health Health
}

// latencyHist converts the engine's output-latency histogram to the
// exposition form, trimming unused high buckets.
func latencyHist(h *metrics.AtomicHistogram) obs.Hist {
	buckets := h.Buckets()
	top := 0
	for i, c := range buckets {
		if c > 0 {
			top = i + 1
		}
	}
	if top < 16 {
		top = 16 // always expose the sub-65µs range
	}
	hist := obs.Hist{
		Name:  "llhj_output_latency_ns",
		Help:  "Result latency in nanoseconds: admission of the later input tuple to delivery on the serving path.",
		Count: h.Count(),
		Sum:   float64(h.Sum()),
	}
	for i := 0; i < top; i++ {
		hist.Bounds = append(hist.Bounds, float64(uint64(1)<<uint(i+1)))
		hist.Counts = append(hist.Counts, buckets[i])
	}
	return hist
}

// gatherDump renders a Snapshot (plus the optional latency histogram
// and trace ring) as the exposition Dump the obs server serves.
func gatherDump(snap Snapshot, hist *metrics.AtomicHistogram, ring *obs.Ring) obs.Dump {
	var d obs.Dump
	counter := func(name, help string, v uint64, labels ...[2]string) {
		d.Samples = append(d.Samples, obs.Sample{Name: name, Help: help, Labels: labels, Value: float64(v)})
	}
	gauge := func(name, help string, v int64, labels ...[2]string) {
		d.Samples = append(d.Samples, obs.Sample{Name: name, Help: help, Gauge: true, Labels: labels, Value: float64(v)})
	}
	counter("llhj_ingress_total", "Tuples pushed, by stream side.", snap.RIn, [2]string{"side", "r"})
	counter("llhj_ingress_total", "", snap.SIn, [2]string{"side", "s"})
	counter("llhj_results_total", "Join results emitted.", snap.Results)
	counter("llhj_punctuations_total", "Punctuations emitted.", snap.Punctuations)
	counter("llhj_comparisons_total", "Window entries inspected across all workers.", snap.Comparisons)
	counter("llhj_probe_dispatch_total", "Window probes by the access path taken.", snap.ProbeScan, [2]string{"strategy", "scan"})
	counter("llhj_probe_dispatch_total", "", snap.ProbeHash, [2]string{"strategy", "hash"})
	counter("llhj_probe_dispatch_total", "", snap.ProbeBTree, [2]string{"strategy", "btree"})
	// The unlabeled sum is computed from the same snapshot, so a scrape
	// can assert the labeled series are conserved against it exactly.
	counter("llhj_probe_dispatches_total", "Window probes dispatched (sum over strategies).", snap.ProbeScan+snap.ProbeHash+snap.ProbeBTree)
	counter("llhj_strategy_switches_total", "Per-key-group probe strategy flips applied by IndexAuto.", snap.StrategySwitches)
	counter("llhj_pending_expiries_total", "Expiry messages that raced ahead of their tuple.", snap.PendingExpiries)
	for i, v := range snap.ShardIngress {
		counter("llhj_shard_ingress_total", "Tuples routed to each shard.", v, [2]string{"shard", strconv.Itoa(i)})
	}
	for i, v := range snap.ShardResults {
		counter("llhj_shard_results_total", "Results assembled per shard.", v, [2]string{"shard", strconv.Itoa(i)})
	}
	for i, v := range snap.LiveWindowR {
		gauge("llhj_live_window", "Live window footprint in tuples, by side and shard.", v, [2]string{"side", "r"}, [2]string{"shard", strconv.Itoa(i)})
	}
	for i, v := range snap.LiveWindowS {
		gauge("llhj_live_window", "", v, [2]string{"side", "s"}, [2]string{"shard", strconv.Itoa(i)})
	}
	for i, v := range snap.ExpiryDepth {
		gauge("llhj_expiry_depth", "Scheduled-but-not-due expiry entries per shard.", v, [2]string{"shard", strconv.Itoa(i)})
	}
	for i, v := range snap.CollectorPasses {
		counter("llhj_collector_passes_total", "Collection passes run per shard (event-driven: an idle shard runs none).", v, [2]string{"shard", strconv.Itoa(i)})
	}
	for i, v := range snap.CollectorWakeups {
		counter("llhj_collector_wakeups_total", "Times each shard's collector slept on its output doorbell and was rung awake.", v, [2]string{"shard", strconv.Itoa(i)})
	}
	gauge("llhj_floor_lag_ns", "Newest admitted timestamp minus the merged punctuation floor; -1 unknown.", snap.FloorLagNs)
	gauge("llhj_floor_holder", "Shard pinning the merged punctuation floor (oldest latest punctuation); -1 when not punctuating.", int64(snap.FloorHolder))
	gauge("llhj_handoffs_inflight", "Key-groups currently mid-handoff.", int64(snap.InFlightHandoffs))
	counter("llhj_rebalances_total", "Control cycles that proposed key-group moves.", snap.Rebalances)
	counter("llhj_keygroup_moves_total", "Key-group cut-overs applied through the drain path.", snap.KeyGroupMoves)
	counter("llhj_state_migrations_total", "Completed live key-group state migrations.", snap.StateMigrations)
	counter("llhj_migrated_tuples_total", "Window tuples carried by state migrations.", snap.MigratedTuples)
	counter("llhj_slice_migrations_total", "Bounded slice hops performed by incremental migrations.", snap.SliceMigrations)
	counter("llhj_store_spills_total", "Whole-ring directory spills into the overflow map.", snap.StoreSpills)
	counter("llhj_store_reanchors_total", "Below-base ring directory re-anchors.", snap.StoreReanchors)
	counter("llhj_store_compactions_total", "Window entry-slab compactions.", snap.StoreCompactions)
	counter("llhj_store_parks_total", "Entries parked in window overflow maps.", snap.StoreParks)
	gauge("llhj_store_overflow", "Current entries across all window overflow maps.", int64(snap.StoreOverflow))
	gauge("llhj_max_sort_buffer", "Ordered-output buffer high-water mark.", int64(snap.MaxSortBuffer))
	counter("llhj_wal_bytes_total", "Bytes appended to the write-ahead log.", snap.WALBytes)
	counter("llhj_checkpoints_total", "Checkpoints completed.", snap.Checkpoints)
	gauge("llhj_checkpoint_duration_ns", "Wall duration of the most recent checkpoint.", snap.LastCheckpointNs)
	counter("llhj_wal_retries_total", "WAL append and checkpoint-write retry attempts.", snap.WALRetries)
	counter("llhj_wal_sheds_total", "Transitions into the degraded (shed) durability state.", snap.WALSheds)
	counter("llhj_admission_rejects_total", "Pushes rejected against MaxLiveTuples.", snap.AdmissionRejects)
	counter("llhj_inject_parks_total", "Times ingress slept on MaxInFlight (a full pipeline that retired nothing while the pusher yielded).", snap.InjectParks)
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	gauge("llhj_health", "1 while no degradation flag is set, else 0.", b2i(snap.Health.Ok()))
	gauge("llhj_health_flag", "Individual degradation flags (1 = raised).", b2i(snap.Health.WALFailed), [2]string{"flag", "wal_failed"})
	gauge("llhj_health_flag", "", b2i(snap.Health.Overloaded), [2]string{"flag", "overloaded"})
	gauge("llhj_health_flag", "", b2i(snap.Health.FloorStalled), [2]string{"flag", "floor_stalled"})
	if ring != nil {
		counter("llhj_trace_events_total", "Control-plane trace events emitted.", ring.Next())
	}
	if hist != nil {
		d.Hists = append(d.Hists, latencyHist(hist))
	}
	return d
}

// wrapLatency interposes the output-latency histogram on the serving
// path: each result's end-to-end latency — admission wall time of the
// later input tuple to now — is recorded before the user callback
// runs. Punctuations pass through unrecorded.
func wrapLatency[L, RT any](h *metrics.AtomicHistogram, now func() int64, out func(Item[L, RT])) func(Item[L, RT]) {
	return func(it Item[L, RT]) {
		if !it.Punct {
			w := it.Result.Pair.R.Wall
			if s := it.Result.Pair.S.Wall; s > w {
				w = s
			}
			h.Add(now() - w)
		}
		out(it)
	}
}
