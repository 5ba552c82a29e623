package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	var n int64 = 41
	r.GaugeFunc("t.computed", func() int64 { return n })
	n = 42
	s := r.Snapshot()
	if s.Gauges["t.computed"] != 42 {
		t.Fatalf("computed gauge = %d, want 42", s.Gauges["t.computed"])
	}
	// Re-registration replaces the function rather than panicking — shared
	// registries may be wired into more than one server over a process
	// lifetime.
	r.GaugeFunc("t.computed", func() int64 { return 7 })
	if got := r.Snapshot().Gauges["t.computed"]; got != 7 {
		t.Fatalf("replaced computed gauge = %d, want 7", got)
	}
}

func TestInfoMetric(t *testing.T) {
	r := NewRegistry()
	r.Info("t.info", map[string]string{"version": "v1", "commit": "abc"})
	s := r.Snapshot()
	if s.Infos["t.info"]["version"] != "v1" || s.Infos["t.info"]["commit"] != "abc" {
		t.Fatalf("info labels = %v", s.Infos["t.info"])
	}
	var sb strings.Builder
	if err := s.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `t.info{commit="abc",version="v1"} 1`) {
		t.Fatalf("text form missing info line:\n%s", sb.String())
	}
}

func TestRegisterBuildInfo(t *testing.T) {
	r := NewRegistry()
	RegisterBuildInfo(r)
	labels := r.Snapshot().Infos["sedna.build_info"]
	if labels == nil {
		t.Fatal("sedna.build_info not registered")
	}
	for _, k := range []string{"version", "commit", "go"} {
		if labels[k] == "" {
			t.Fatalf("build_info missing label %q: %v", k, labels)
		}
	}
	if !strings.HasPrefix(labels["go"], "go") {
		t.Fatalf("go label = %q", labels["go"])
	}
}

func TestRegisterUptime(t *testing.T) {
	r := NewRegistry()
	RegisterUptime(r, time.Now().Add(-3*time.Second))
	if got := r.Snapshot().Gauges["server.uptime_seconds"]; got < 3 || got > 10 {
		t.Fatalf("uptime = %d, want ~3", got)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t.lat_ns")
	h.Observe(time.Microsecond)      // bucket 0
	h.Observe(10 * time.Microsecond) // higher bucket
	h.Observe(time.Hour)             // overflow
	v := h.value()
	// Buckets carries the bounded buckets plus the trailing overflow
	// ("+Inf") cumulative entry.
	if len(v.Buckets) != histBuckets+1 {
		t.Fatalf("buckets len = %d, want %d", len(v.Buckets), histBuckets+1)
	}
	prev := uint64(0)
	for i, c := range v.Buckets {
		if c < prev {
			t.Fatalf("bucket %d not cumulative: %d < %d", i, c, prev)
		}
		prev = c
	}
	// The overflow observation is above every bounded bucket: the last
	// bounded bucket holds 2, the overflow entry all 3.
	if v.Buckets[histBuckets-1] != 2 {
		t.Fatalf("last bounded bucket = %d, want 2", v.Buckets[histBuckets-1])
	}
	if v.Buckets[histBuckets] != 3 {
		t.Fatalf("overflow bucket = %d, want 3", v.Buckets[histBuckets])
	}
	if v.Count != 3 {
		t.Fatalf("count = %d, want 3", v.Count)
	}
	bounds := BucketBoundsNs()
	if len(bounds) != histBuckets || bounds[0] != histBase || bounds[1] != 2*histBase {
		t.Fatalf("unexpected bounds: %v...", bounds[:2])
	}
}

// TestPrometheusRoundTrip renders a populated registry in the exposition
// format and feeds it back through the validating parser.
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("buffer.hits").Add(30)
	r.Counter("buffer.faults").Add(10)
	r.Gauge("server.sessions_active").Set(2)
	h := r.Histogram("wal.fsync_ns")
	h.Observe(time.Microsecond)
	h.Observe(50 * time.Millisecond)
	h.Observe(time.Hour) // overflow bucket: +Inf must still equal count
	RegisterBuildInfo(r)
	RegisterUptime(r, time.Now())

	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	fams, err := ParsePrometheusText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, out)
	}
	checks := map[string]string{
		"sedna_buffer_hits":            "counter",
		"sedna_buffer_hit_ratio":       "gauge",
		"sedna_server_sessions_active": "gauge",
		"sedna_wal_fsync_ns":           "histogram",
		"sedna_sedna_build_info":       "gauge",
		"sedna_server_uptime_seconds":  "gauge",
	}
	for name, typ := range checks {
		f := fams[name]
		if f == nil {
			t.Fatalf("family %s missing:\n%s", name, out)
		}
		if f.Type != typ {
			t.Fatalf("family %s type = %q, want %q", name, f.Type, typ)
		}
		if f.Help == "" {
			t.Fatalf("family %s has no HELP", name)
		}
	}
	hist := fams["sedna_wal_fsync_ns"]
	var haveInf bool
	for _, s := range hist.Samples {
		if s.Labels["le"] == "+Inf" {
			haveInf = true
			if s.Value != 3 {
				t.Fatalf("+Inf bucket = %v, want 3", s.Value)
			}
		}
	}
	if !haveInf {
		t.Fatal("histogram has no +Inf bucket")
	}
	bi := fams["sedna_sedna_build_info"]
	if len(bi.Samples) != 1 || bi.Samples[0].Labels["go"] == "" {
		t.Fatalf("build_info samples = %+v", bi.Samples)
	}
	if fams["sedna_buffer_hit_ratio"].Samples[0].Value != 0.75 {
		t.Fatalf("hit ratio = %v", fams["sedna_buffer_hit_ratio"].Samples[0].Value)
	}
}

// TestParsePrometheusRejects feeds the parser the malformed shapes check.sh
// guards against.
func TestParsePrometheusRejects(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE":    "foo 1\n",
		"HELP without text":      "# HELP foo\n# TYPE foo counter\nfoo 1\n",
		"bad type":               "# TYPE foo widget\nfoo 1\n",
		"bad value":              "# TYPE foo counter\nfoo abc\n",
		"bad metric name":        "# TYPE 1foo counter\n1foo 1\n",
		"unterminated labels":    "# TYPE foo counter\nfoo{a=\"b 1\n",
		"unquoted label value":   "# TYPE foo counter\nfoo{a=b} 1\n",
		"family with no samples": "# HELP foo x\n# TYPE foo counter\n",
		"duplicate TYPE":         "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n",
		"TYPE after samples":     "# HELP foo x\nfoo 1\n",
		"histogram no +Inf": "# TYPE foo histogram\n" +
			`foo_bucket{le="1"} 1` + "\nfoo_sum 1\nfoo_count 1\n",
		"histogram non-cumulative": "# TYPE foo histogram\n" +
			`foo_bucket{le="1"} 5` + "\n" + `foo_bucket{le="2"} 3` + "\n" +
			`foo_bucket{le="+Inf"} 5` + "\nfoo_sum 1\nfoo_count 5\n",
		"histogram inf mismatch": "# TYPE foo histogram\n" +
			`foo_bucket{le="+Inf"} 4` + "\nfoo_sum 1\nfoo_count 5\n",
	}
	for name, in := range cases {
		if _, err := ParsePrometheusText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parser accepted malformed input:\n%s", name, in)
		}
	}
	// And a small valid document with labels and escapes must pass.
	ok := "# HELP up server liveness\n# TYPE up gauge\n" +
		"up{host=\"a\\\"b\",path=\"c\\\\d\"} 1\n"
	fams, err := ParsePrometheusText(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	if fams["up"].Samples[0].Labels["host"] != `a"b` {
		t.Fatalf("escape handling: %v", fams["up"].Samples[0].Labels)
	}
}

// TestConcurrentPrometheusRender races the Prometheus exposition against
// live writers; run with -race.
func TestConcurrentPrometheusRender(t *testing.T) {
	r := NewRegistry()
	RegisterBuildInfo(r)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("race.count")
			h := r.Histogram("race.lat_ns")
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.ObserveNs(123)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.Snapshot().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if _, err := ParsePrometheusText(strings.NewReader(sb.String())); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// ---- minimal exposition-format parser: the tests read renders back ----

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
