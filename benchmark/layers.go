package main

import "sedna/internal/metrics"

// regDelta is the change of a database's metrics registry between two
// snapshots taken at the boundaries of a measured section.
type regDelta struct {
	counters map[string]float64
	histSum  map[string]float64 // ns
	histN    map[string]float64
	gauges   map[string]int64 // values at the end of the section
}

func diff(before, after metrics.Snapshot) regDelta {
	d := regDelta{
		counters: make(map[string]float64, len(after.Counters)),
		histSum:  make(map[string]float64, len(after.Histograms)),
		histN:    make(map[string]float64, len(after.Histograms)),
		gauges:   after.Gauges,
	}
	for name, v := range after.Counters {
		d.counters[name] = float64(v - before.Counters[name])
	}
	for name, h := range after.Histograms {
		b := before.Histograms[name]
		d.histSum[name] = float64(h.SumNs - b.SumNs)
		d.histN[name] = float64(h.Count - b.Count)
	}
	return d
}

// histMeanUs is the mean of the observations a histogram took in the
// section, in µs.
func (d regDelta) histMeanUs(name string) float64 {
	return ratio(d.histSum[name], d.histN[name]) / 1e3
}

// layerCounts derives the registry-based per-layer metrics of a section
// that ran ops statements, updates of them writes, eligible of them reads
// the optimizer could answer with an index probe.
func (d regDelta) layerCounts(ops, updates, eligible float64) map[string]float64 {
	c := d.counters
	touches := c["buffer.hits"] + c["buffer.faults"] + c["buffer.snapshot_reads"]
	return map[string]float64{
		"server.bytes_out_per_op":           ratio(c["server.bytes_out"], ops),
		"server.errors":                     c["server.errors"],
		"query.parallel_steps_per_op":       ratio(c["query.parallel_steps"], ops),
		"query.fallback_serial_per_op":      ratio(c["query.fallback_serial"], ops),
		"query.worker_busy_us_per_op":       ratio(c["query.worker_busy_ns"]/1e3, ops),
		"opt.plans_costed_per_op":           ratio(c["opt.plans_costed"], ops),
		"opt.index_probe_ratio":             ratio(c["opt.index_probes"], eligible),
		"resident.hits_per_op":              ratio(c["resident.hits"], ops),
		"resident.builds":                   c["resident.builds"],
		"resident.bytes":                    float64(d.gauges["resident.bytes"]),
		"resident.invalidations_per_update": ratio(c["resident.invalidations"], updates),
		"resident.fallbacks":                c["resident.fallbacks"],
		// Read-only statements read pages through snapshot reads, which count
		// neither as hit nor as fault; a miss of any kind is a disk read.
		"buffer.hit_ratio":                  1 - ratio(c["buffer.disk_reads"], touches),
		"buffer.faults_per_op":              ratio(c["buffer.faults"], ops),
		"buffer.evictions_per_op":           ratio(c["buffer.evictions"], ops),
		"buffer.stripe_lock_wait_us_per_op": ratio(c["buffer.stripe_lock_wait_ns"]/1e3, ops),
		"buffer.pin_waits":                  c["buffer.pin_waits"],
		"buffer.prefetch_hit_ratio":         ratio(c["buffer.prefetch_hits"], c["buffer.prefetch_issued"]),
		"buffer.versions_made_per_update":   ratio(c["buffer.versions_made"], updates),
		"buffer.snapshot_reads_per_op":      ratio(c["buffer.snapshot_reads"], ops),
		"pagefile.reads_per_op":             ratio(c["pagefile.reads"], ops),
		"pagefile.writes_per_update":        ratio(c["pagefile.writes"], updates),
		"pagefile.pages_per_batch_read":     ratio(c["pagefile.batch_pages"], c["pagefile.batch_reads"]),
		"pagefile.syncs":                    c["pagefile.syncs"],
		"wal.append_bytes_per_update":       ratio(c["wal.append_bytes"], updates),
		"wal.fsyncs_per_commit":             ratio(c["wal.fsyncs"], c["txn.commits"]),
		"wal.fsync_us":                      d.histMeanUs("wal.fsync_ns"),
		"wal.group_size_mean":               ratio(c["wal.group_commit_txns"], c["wal.group_commits"]),
		"txn.aborts":                        c["txn.aborts"],
		"lock.waits_per_update":             ratio(c["lock.waits"], updates),
		"lock.wait_us":                      d.histMeanUs("lock.wait_ns"),
		"lock.deadlock_aborts":              c["lock.deadlock_aborts"],
		"lock.timeouts":                     c["lock.timeouts"],
	}
}

// loadCounts derives the bulk-loader metrics of a section that loaded
// xmlBytes of XML in loadSeconds.
func (d regDelta) loadCounts(xmlBytes int, loadSeconds float64) map[string]float64 {
	return map[string]float64{
		"core.load_us_per_mb": ratio(loadSeconds*1e6, float64(xmlBytes)/1e6),
		"load.nodes_per_sec":  ratio(d.counters["load.nodes"], d.histSum["load.ns"]/1e9),
		"load.blocks_built":   d.counters["load.blocks_built"],
		"load.pages_flushed":  d.counters["load.pages_flushed"],
	}
}
