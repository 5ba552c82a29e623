package metrics

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
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
	"resident.deferred":      "Reads served paged because the document's resident build was put off (written faster than it builds, or a build in flight).",
	"resident.fallbacks":     "Reads served paged because no resident copy can serve them (build failed, over budget, snapshot before a replication barrier).",
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
	// The derived ratios of the plain-text exposition.
	if hits, ok := s.Counters["buffer.hits"]; ok {
		if total := hits + s.Counters["buffer.faults"]; total > 0 {
			fams = append(fams, family{"buffer.hit_ratio", "gauge",
				[]string{fmt.Sprintf("%s %.4f", promName("buffer.hit_ratio"), float64(hits)/float64(total))}})
		}
	}
	if issued, ok := s.Counters["buffer.prefetch_issued"]; ok && issued > 0 {
		fams = append(fams, family{"buffer.prefetch_hit_ratio", "gauge",
			[]string{fmt.Sprintf("%s %.4f", promName("buffer.prefetch_hit_ratio"),
				float64(s.Counters["buffer.prefetch_hits"])/float64(issued))}})
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

// ---- minimal exposition-format parser ----

// PromFamily is one metric family as read back by ParsePrometheusText.
type PromFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []PromSample
}

// PromSample is one sample line.
type PromSample struct {
	Name   string // full sample name (family name plus _bucket/_sum/_count)
	Labels map[string]string
	Value  float64
}

// ParsePrometheusText reads a Prometheus text-format exposition and
// validates its structure: HELP/TYPE lines are well-formed and precede their
// family's samples, every sample line parses (name, optional label set,
// float value), every sample belongs to an announced family, histogram
// families carry a complete cumulative bucket series ending in le="+Inf"
// whose count matches _count. Returns the families keyed by name.
func ParsePrometheusText(r io.Reader) (map[string]*PromFamily, error) {
	fams := make(map[string]*PromFamily)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("prom: line %d: malformed comment %q", lineNo, line)
			}
			name := fields[2]
			if !validPromName(name) {
				return nil, fmt.Errorf("prom: line %d: invalid metric name %q", lineNo, name)
			}
			f := fams[name]
			if f == nil {
				f = &PromFamily{Name: name}
				fams[name] = f
			}
			if fields[1] == "HELP" {
				if len(fields) < 4 || fields[3] == "" {
					return nil, fmt.Errorf("prom: line %d: HELP without text", lineNo)
				}
				if f.Help != "" {
					return nil, fmt.Errorf("prom: line %d: duplicate HELP for %s", lineNo, name)
				}
				f.Help = fields[3]
			} else {
				if len(fields) != 4 {
					return nil, fmt.Errorf("prom: line %d: malformed TYPE line %q", lineNo, line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("prom: line %d: unknown type %q", lineNo, fields[3])
				}
				if f.Type != "" {
					return nil, fmt.Errorf("prom: line %d: duplicate TYPE for %s", lineNo, name)
				}
				if len(f.Samples) > 0 {
					return nil, fmt.Errorf("prom: line %d: TYPE for %s after its samples", lineNo, name)
				}
				f.Type = fields[3]
			}
			continue
		}
		sample, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("prom: line %d: %w", lineNo, err)
		}
		fam := familyOf(fams, sample.Name)
		if fam == nil {
			return nil, fmt.Errorf("prom: line %d: sample %q has no TYPE line", lineNo, sample.Name)
		}
		fam.Samples = append(fam.Samples, *sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, f := range fams {
		if f.Type == "" {
			return nil, fmt.Errorf("prom: family %s has HELP but no TYPE", name)
		}
		if len(f.Samples) == 0 {
			return nil, fmt.Errorf("prom: family %s announced but has no samples", name)
		}
		if f.Type == "histogram" {
			if err := checkHistogram(f); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

// familyOf resolves the family a sample belongs to, stripping histogram
// sample suffixes.
func familyOf(fams map[string]*PromFamily, sample string) *PromFamily {
	if f, ok := fams[sample]; ok {
		return f
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(sample, suffix)
		if base != sample {
			if f, ok := fams[base]; ok && f.Type == "histogram" {
				return f
			}
		}
	}
	return nil
}

func checkHistogram(f *PromFamily) error {
	var inf, count float64
	var haveInf, haveCount, haveSum bool
	prev := -1.0
	prevCum := 0.0
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("prom: %s bucket without le label", f.Name)
			}
			if le == "+Inf" {
				inf, haveInf = s.Value, true
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("prom: %s bucket bound %q: %w", f.Name, le, err)
			}
			if bound <= prev {
				return fmt.Errorf("prom: %s bucket bounds not increasing at le=%q", f.Name, le)
			}
			if s.Value < prevCum {
				return fmt.Errorf("prom: %s bucket counts not cumulative at le=%q", f.Name, le)
			}
			prev, prevCum = bound, s.Value
		case f.Name + "_sum":
			haveSum = true
		case f.Name + "_count":
			count, haveCount = s.Value, true
		}
	}
	if !haveInf || !haveCount || !haveSum {
		return fmt.Errorf("prom: histogram %s missing +Inf bucket, _sum or _count", f.Name)
	}
	if inf != count {
		return fmt.Errorf("prom: histogram %s +Inf bucket %v != count %v", f.Name, inf, count)
	}
	if count < prevCum {
		return fmt.Errorf("prom: histogram %s count %v below last bucket %v", f.Name, count, prevCum)
	}
	return nil
}

func validPromName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// parsePromSample parses `name{label="v",...} value`.
func parsePromSample(line string) (*PromSample, error) {
	rest := line
	end := strings.IndexAny(rest, "{ ")
	if end < 0 {
		return nil, fmt.Errorf("malformed sample %q", line)
	}
	s := &PromSample{Name: rest[:end]}
	if !validPromName(s.Name) {
		return nil, fmt.Errorf("invalid sample name %q", s.Name)
	}
	rest = rest[end:]
	if rest[0] == '{' {
		labels, tail, err := parsePromLabels(rest)
		if err != nil {
			return nil, err
		}
		s.Labels = labels
		rest = tail
	}
	rest = strings.TrimSpace(rest)
	// The value may be followed by an optional timestamp.
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		ts := strings.TrimSpace(rest[sp+1:])
		if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
			return nil, fmt.Errorf("malformed timestamp %q", ts)
		}
		rest = rest[:sp]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return nil, fmt.Errorf("malformed value %q", rest)
	}
	s.Value = v
	return s, nil
}

// parsePromLabels parses a `{k="v",...}` label block, returning the labels
// and the remainder of the line.
func parsePromLabels(s string) (map[string]string, string, error) {
	labels := make(map[string]string)
	i := 1 // past '{'
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return labels, s[i+1:], nil
		}
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i >= len(s) {
			return nil, "", fmt.Errorf("unterminated label name in %q", s)
		}
		name := s[start:i]
		if !validPromName(name) {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		i++ // past '='
		if i >= len(s) || s[i] != '"' {
			return nil, "", fmt.Errorf("label %s: value not quoted", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return nil, "", fmt.Errorf("label %s: unterminated value", name)
			}
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, "", fmt.Errorf("label %s: dangling escape", name)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: bad escape \\%c", name, s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		labels[name] = val.String()
	}
}
