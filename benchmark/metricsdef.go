package main

// metricDef names one reported metric. BENCHMARK.json repeats these lists;
// a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated worsening, share of the parent's median
}

// endToEnd is what a user of the database sees. Every workload reports every
// one of them, from an untraced run:
//
//   - setup_s: generate + load + index + ANALYZE + checkpoint + listen, the
//     median of the run's set-ups (ingest_recover: generating its corpus and
//     oracle, it has no database before the timed part);
//   - throughput_ops_s, latency_p50_ms, latency_p95_ms: completed correct
//     statements of the two closed-loop clients in the timed window
//     (ingest_recover: embedded API calls — LoadXML, update commit,
//     Checkpoint, reopen-to-first-query after a crash);
//   - peak_mem_mb: peak of runtime Sys − HeapReleased, the largest typical
//     phase peak of the run (see memSampler);
//   - ingest_mb_s: XML bytes through LoadXML per second of load time;
//   - recovery_s: sedna.Open → first correct query after CrashForTesting, with
//     the loaded corpus (ingest_recover: plus its un-checkpointed commits)
//     still to be redone from the log;
//   - disk_bytes_per_xml_byte: data + WAL + meta after a checkpoint.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"peak_mem_mb", "MiB", "lower", 0.20},
	{"ingest_mb_s", "MB/s", "higher", 0.25},
	{"recovery_s", "s", "lower", 0.25},
	{"disk_bytes_per_xml_byte", "B/B", "lower", 0.05},
}

// perLayer comes from the traced run; the layer is the module name before
// the first dot. benchmark/README.md says which end-to-end metric each one
// should move, on which workload.
var perLayer = []metricDef{
	{name: "client.read_p95_ms", unit: "ms", better: "lower"},
	{name: "client.write_p95_ms", unit: "ms", better: "lower"},
	{name: "server.wire_overhead_us", unit: "us", better: "lower"},
	{name: "server.bytes_out_per_op", unit: "B", better: "lower"},
	{name: "server.errors", unit: "count", better: "lower"},
	{name: "query.parse_us", unit: "us", better: "lower"},
	{name: "query.execute_us", unit: "us", better: "lower"},
	{name: "query.serialize_us", unit: "us", better: "lower"},
	{name: "query.parallel_steps_per_op", unit: "count", better: "higher"},
	{name: "query.fallback_serial_per_op", unit: "count", better: "lower"},
	{name: "query.worker_busy_us_per_op", unit: "us", better: "lower"},
	{name: "opt.plans_costed_per_op", unit: "count", better: "lower"},
	{name: "opt.index_probe_ratio", unit: "ratio", better: "higher"},
	{name: "opt.probe_stmt_us", unit: "us", better: "lower"},
	{name: "index.scan_stmt_us", unit: "us", better: "lower"},
	{name: "index.page_touches_per_lookup", unit: "count", better: "lower"},
	{name: "resident.hits_per_op", unit: "count", better: "higher"},
	{name: "resident.builds", unit: "count", better: "lower"},
	{name: "resident.bytes", unit: "B", better: "lower"},
	{name: "resident.invalidations_per_update", unit: "count", better: "lower"},
	{name: "resident.fallbacks", unit: "count", better: "lower"},
	{name: "buffer.hit_ratio", unit: "ratio", better: "higher"},
	{name: "buffer.faults_per_op", unit: "count", better: "lower"},
	{name: "buffer.evictions_per_op", unit: "count", better: "lower"},
	{name: "buffer.stripe_lock_wait_us_per_op", unit: "us", better: "lower"},
	{name: "buffer.pin_waits", unit: "count", better: "lower"},
	{name: "buffer.prefetch_hit_ratio", unit: "ratio", better: "higher"},
	{name: "buffer.versions_made_per_update", unit: "count", better: "lower"},
	{name: "buffer.snapshot_reads_per_op", unit: "count", better: "lower"},
	{name: "pagefile.reads_per_op", unit: "count", better: "lower"},
	{name: "pagefile.writes_per_update", unit: "count", better: "lower"},
	{name: "pagefile.pages_per_batch_read", unit: "count", better: "higher"},
	{name: "pagefile.syncs", unit: "count", better: "lower"},
	{name: "storage.bytes_per_node", unit: "B", better: "lower"},
	{name: "wal.append_bytes_per_update", unit: "B", better: "lower"},
	{name: "wal.fsyncs_per_commit", unit: "ratio", better: "lower"},
	{name: "wal.fsync_us", unit: "us", better: "lower"},
	{name: "wal.group_size_mean", unit: "count", better: "higher"},
	{name: "wal.bytes_per_xml_byte", unit: "B/B", better: "lower"},
	{name: "txn.begin_us", unit: "us", better: "lower"},
	{name: "txn.commit_us", unit: "us", better: "lower"},
	{name: "txn.commit_self_us", unit: "us", better: "lower"},
	{name: "txn.aborts", unit: "count", better: "lower"},
	{name: "lock.waits_per_update", unit: "count", better: "lower"},
	{name: "lock.wait_us", unit: "us", better: "lower"},
	{name: "lock.deadlock_aborts", unit: "count", better: "lower"},
	{name: "lock.timeouts", unit: "count", better: "lower"},
	{name: "core.load_us_per_mb", unit: "us/MB", better: "lower"},
	{name: "load.nodes_per_sec", unit: "1/s", better: "higher"},
	{name: "load.blocks_built", unit: "count", better: "lower"},
	{name: "load.pages_flushed", unit: "count", better: "lower"},
	{name: "core.checkpoint_s", unit: "s", better: "lower"},
	{name: "core.open_recover_s", unit: "s", better: "lower"},
	{name: "core.close_s", unit: "s", better: "lower"},
	{name: "core.alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "trace.mirror_drift_pct", unit: "%", better: "lower"},
}
