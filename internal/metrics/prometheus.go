package metrics

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Prometheus text-format exposition (version 0.0.4). Every registered metric
// is exported under a "sedna_" prefix with dots mapped to underscores:
// "buffer.hits" → "sedna_buffer_hits". Counters and gauges export their
// value; histograms export the full cumulative bucket series with
// nanosecond "le" bounds plus _sum and _count; Info metrics export a
// constant-1 gauge carrying their labels (the build_info convention).

// promPrefix namespaces every exported metric.
const promPrefix = "sedna_"

// metricHelp holds one line of HELP text per metric family; families not
// listed get a generic line. Keyed by the internal (dotted) name.
var metricHelp = map[string]string{
	"buffer.hits":            "Dereferences served from the buffer pool.",
	"buffer.faults":          "Dereferences that had to map or read a page.",
	"buffer.disk_reads":      "Pages read from the data/snapshot files.",
	"buffer.disk_writes":     "Dirty pages written back.",
	"wal.appends":            "Log records appended.",
	"wal.append_bytes":       "Log bytes appended, framing included.",
	"wal.fsync_ns":           "Log fsync latency in nanoseconds.",
	"lock.wait_ns":           "Time spent blocked on document locks in nanoseconds.",
	"query.statements":       "Statements executed successfully.",
	"query.errors":           "Statements that failed to parse or execute.",
	"query.query_ns":         "Query-statement latency in nanoseconds.",
	"query.update_ns":        "Update-statement latency in nanoseconds.",
	"query.ddl_ns":           "DDL-statement latency in nanoseconds.",
	"server.sessions_active": "Client sessions currently connected.",
	"server.uptime_seconds":  "Seconds since the server started.",
	"server.kills":           "Statements terminated by KILL.",
	"sedna.build_info":       "Build metadata; the value is always 1.",
	"repl.replica_lag_lsn":   "Replication lag in log bytes.",
}

// promName maps an internal dotted metric name to its exported Prometheus
// name.
func promName(name string) string {
	return promPrefix + strings.ReplaceAll(name, ".", "_")
}

func helpFor(name string) string {
	if h, ok := metricHelp[name]; ok {
		return h
	}
	return "sedna metric " + name + "."
}

// formatLabels renders a sorted {k="v",...} label set ("" when empty),
// escaping backslashes, quotes and newlines per the exposition format.
func formatLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		v := labels[k]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		fmt.Fprintf(&sb, `%s=%q`, k, v)
	}
	sb.WriteByte('}')
	return sb.String()
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format: one HELP and TYPE line per family followed by its samples, families
// sorted by name. Derived ratios from the plain-text form are exported as
// gauges so both expositions agree on what is visible.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	type family struct {
		name  string // internal dotted name
		typ   string
		lines []string
	}
	var fams []family
	for name, v := range s.Counters {
		fams = append(fams, family{name, "counter",
			[]string{fmt.Sprintf("%s %d", promName(name), v)}})
	}
	for name, v := range s.Gauges {
		fams = append(fams, family{name, "gauge",
			[]string{fmt.Sprintf("%s %d", promName(name), v)}})
	}
	for name, labels := range s.Infos {
		fams = append(fams, family{name, "gauge",
			[]string{fmt.Sprintf("%s%s 1", promName(name), formatLabels(labels))}})
	}
	bounds := BucketBoundsNs()
	for name, h := range s.Histograms {
		pn := promName(name)
		lines := make([]string, 0, len(bounds)+3)
		for i, b := range bounds {
			c := uint64(0)
			if i < len(h.Buckets) {
				c = h.Buckets[i]
			}
			lines = append(lines, fmt.Sprintf(`%s_bucket{le="%d"} %d`, pn, b, c))
		}
		lines = append(lines,
			fmt.Sprintf(`%s_bucket{le="+Inf"} %d`, pn, h.Count),
			fmt.Sprintf("%s_sum %d", pn, h.SumNs),
			fmt.Sprintf("%s_count %d", pn, h.Count))
		fams = append(fams, family{name, "histogram", lines})
	}
	// The derived ratio of the plain-text exposition.
	if hits, ok := s.Counters["buffer.hits"]; ok {
		if total := hits + s.Counters["buffer.faults"]; total > 0 {
			fams = append(fams, family{"buffer.hit_ratio", "gauge",
				[]string{fmt.Sprintf("%s %.4f", promName("buffer.hit_ratio"), float64(hits)/float64(total))}})
		}
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", promName(f.name), helpFor(f.name))
		fmt.Fprintf(bw, "# TYPE %s %s\n", promName(f.name), f.typ)
		for _, l := range f.lines {
			fmt.Fprintln(bw, l)
		}
	}
	return bw.Flush()
}

// RegisterBuildInfo registers the sedna.build_info labeled constant from the
// binary's embedded build metadata: module version, VCS revision (when the
// binary was built from a checkout) and the Go toolchain version.
func RegisterBuildInfo(r *Registry) {
	labels := map[string]string{
		"version": "unknown",
		"commit":  "unknown",
		"go":      runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			labels["version"] = bi.Main.Version
		}
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				labels["commit"] = kv.Value
			}
		}
	}
	r.Info("sedna.build_info", labels)
}

// RegisterUptime registers the server.uptime_seconds computed gauge,
// measured from start.
func RegisterUptime(r *Registry, start time.Time) {
	r.GaugeFunc("server.uptime_seconds", func() int64 {
		return int64(time.Since(start).Seconds())
	})
}
