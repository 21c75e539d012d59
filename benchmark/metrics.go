package main

// The metric sets of the result line, in BENCHMARK.json's order;
// bench_test.go asserts the two files agree. A run measures more than
// these (see its full report): the result line carries exactly the
// declared ones.

var endToEndMetrics = []string{
	"setup_s", "sat_tps",
	"lo_lat_p50_ms", "lo_lat_p99_ms", "hi_lat_p50_ms", "hi_lat_p99_ms",
	"win_bytes_per_tuple",
}

var perLayerMetrics = []string{
	"root.push_ns_per_tuple", "root.push_block_p99_us", "root.gen_late_p99_us", "root.hi_slo_miss_frac",
	"root.lat_p999_ms", "root.close_drain_ms", "root.cpu_us_per_tuple", "root.allocs_per_tuple", "root.alloc_bytes_per_tuple",
	"root.results_per_tuple", "root.comparisons_per_tuple", "root.probe_hit_ratio",
	"root.punct_per_s", "root.floor_lag_tuples", "root.max_sort_buffer", "root.shard_imbalance",
	"root.checkpoint_ms", "root.restore_s", "root.restore_replay_tps",
	"adapt.admit_batch_ns_per_tuple", "adapt.admit_ns_per_tuple", "adapt.route_of_ns", "adapt.observe_expire_ns_per_tuple",
	"shard.lane_ns_per_tuple", "shard.lane_self_ns_per_tuple", "shard.expiry_ns_per_tuple",
	"shard.merge_ns_per_item", "shard.partition_ns", "shard.flush_batches_per_ktuple",
	"pipeline.hop_ns_per_msg", "pipeline.traverse_us", "pipeline.inject_block_frac",
	"fifo.deque_ns_per_op", "fifo.chan_ns_per_op",
	"core.arrival_ns_per_tuple", "core.expiry_ns_per_tuple", "core.scan_ns_per_comparison",
	"store.insert_ns", "store.remove_ns", "store.probe_hash_ns", "store.scan_ns_per_entry", "store.bytes_per_tuple",
	"probe.dispatch_ns", "probe.observe_ns",
	"collect.run_once_ns_per_result", "order.sorter_ns_per_result", "order.floor_advance_ns",
	"env.sleep_1ms_actual_ms",
	"wal.append_ns_per_record", "wal.append_discard_ns_per_record", "wal.bytes_per_tuple", "wal.replay_ns_per_record",
	"trace.sat_tps", "trace.untraced_sat_tps", "trace.overhead_pct", "obs.scrape_ms", "kang.baseline_tps",
	"trace.cpu_us_per_tuple", "trace.layers_sum_us_per_tuple", "trace.unexplained_pct",
}
