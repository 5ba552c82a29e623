// Package metrics is the observability core of sedna-go: a dependency-free,
// concurrency-safe registry of named counters, gauges and bounded-bucket
// latency histograms, plus a bounded ring of per-query profile records.
//
// The paper's governor (§3) "keeps track of every session and transaction
// currently running"; this package generalizes that bookkeeping into a
// uniform registry every layer reports through — buffer manager, pagefile,
// WAL, transaction manager, lock manager, query executor and server. The hot
// path is a single atomic add; reading is snapshot-on-read, so observation
// never blocks the observed.
//
// Metric names are dot-separated, family first: "buffer.hits",
// "wal.fsync_ns", "server.sessions_active". Histograms observe nanosecond
// latencies in power-of-two buckets from 1µs to ~33s.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// usable; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed level (e.g. active sessions).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the level by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of bounded buckets; bucket i counts observations
// of at most 1µs<<i nanoseconds (1µs, 2µs, ... ~33.6s), with one overflow
// bucket above.
const histBuckets = 26

// histBase is the upper bound of the first bucket in nanoseconds.
const histBase = 1000

// Histogram is a fixed-size latency histogram: observations land in
// power-of-two nanosecond buckets with an atomic add, so the hot path never
// allocates or locks.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64 // total nanoseconds
	buckets [histBuckets + 1]atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNs(int64(d)) }

// ObserveNs records one latency in nanoseconds.
func (h *Histogram) ObserveNs(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bucketIndex(ns)].Add(1)
}

func bucketIndex(ns int64) int {
	bound := int64(histBase)
	for i := 0; i < histBuckets; i++ {
		if ns <= bound {
			return i
		}
		bound <<= 1
	}
	return histBuckets
}

// bucketBound returns the upper bound of bucket i in nanoseconds (the
// overflow bucket reports the largest bounded limit; quantiles above it are
// clamped there).
func bucketBound(i int) int64 {
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return histBase << i
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// SumNs returns the total of all observations in nanoseconds.
func (h *Histogram) SumNs() int64 { return h.sum.Load() }

// BucketBoundsNs returns the upper bounds (inclusive, nanoseconds) of the
// bounded histogram buckets, smallest first. Observations above the last
// bound land in an overflow bucket reported only through the cumulative
// Buckets slice (index len(bounds)) — in Prometheus terms, the "+Inf" bucket.
func BucketBoundsNs() []int64 {
	bounds := make([]int64, histBuckets)
	for i := range bounds {
		bounds[i] = histBase << i
	}
	return bounds
}

// value snapshots the histogram into a HistogramValue.
func (h *Histogram) value() HistogramValue {
	var v HistogramValue
	var cum [histBuckets + 1]uint64
	total := uint64(0)
	for i := range h.buckets {
		total += h.buckets[i].Load()
		cum[i] = total
	}
	v.Buckets = cum[:]
	v.Count = total
	v.SumNs = h.sum.Load()
	quantile := func(q float64) int64 {
		if total == 0 {
			return 0
		}
		target := uint64(q * float64(total))
		if target == 0 {
			target = 1
		}
		for i, c := range cum {
			if c >= target {
				return bucketBound(i)
			}
		}
		return bucketBound(histBuckets)
	}
	v.P50Ns = quantile(0.50)
	v.P95Ns = quantile(0.95)
	v.P99Ns = quantile(0.99)
	return v
}

// HistogramValue is the read-side view of a Histogram: totals plus
// bucket-derived quantile upper bounds and the cumulative bucket counts
// (one per BucketBoundsNs bound, then the overflow/+Inf bucket).
type HistogramValue struct {
	Count   uint64   `json:"count"`
	SumNs   int64    `json:"sum_ns"`
	P50Ns   int64    `json:"p50_ns"`
	P95Ns   int64    `json:"p95_ns"`
	P99Ns   int64    `json:"p99_ns"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// ExecStats counts executor events; the E5/E8/E9 experiments read them.
// The counters accumulate over an execution context's lifetime (a context
// may run several statements).
type ExecStats struct {
	DDOOps      uint64 `json:"ddo_ops,omitempty"`      // explicit DDO operations executed
	DeepCopies  uint64 `json:"deep_copies,omitempty"`  // stored subtrees deep-copied by constructors
	VirtualRefs uint64 `json:"virtual_refs,omitempty"` // deep copies avoided by virtual constructors
	BytesCopied uint64 `json:"bytes_copied,omitempty"` // text bytes copied during deep copies
	SchemaScans uint64 `json:"schema_scans,omitempty"` // schema-node block-list scans started
	LazyHits    uint64 `json:"lazy_hits,omitempty"`    // lazy for-clause evaluations answered from cache
	IndexScans  uint64 `json:"index_scans,omitempty"`  // index-scan() lookups
}

// The Add* methods below increment ExecStats counters atomically: the
// parallel query executor accumulates events from several worker goroutines
// into one statement's stats block. Plain reads of the fields after the
// statement joins its workers are safe (the join is the happens-before
// edge); the struct layout and JSON form are unchanged.

// AddDDOOps counts n explicit DDO operations.
func (s *ExecStats) AddDDOOps(n uint64) { atomic.AddUint64(&s.DDOOps, n) }

// AddDeepCopies counts n constructor deep copies.
func (s *ExecStats) AddDeepCopies(n uint64) { atomic.AddUint64(&s.DeepCopies, n) }

// AddVirtualRefs counts n deep copies avoided by virtual constructors.
func (s *ExecStats) AddVirtualRefs(n uint64) { atomic.AddUint64(&s.VirtualRefs, n) }

// AddBytesCopied counts n text bytes copied during deep copies.
func (s *ExecStats) AddBytesCopied(n uint64) { atomic.AddUint64(&s.BytesCopied, n) }

// AddSchemaScans counts n schema-node block-list scans.
func (s *ExecStats) AddSchemaScans(n uint64) { atomic.AddUint64(&s.SchemaScans, n) }

// AddLazyHits counts n lazy-clause cache hits.
func (s *ExecStats) AddLazyHits(n uint64) { atomic.AddUint64(&s.LazyHits, n) }

// AddIndexScans counts n index-scan() lookups.
func (s *ExecStats) AddIndexScans(n uint64) { atomic.AddUint64(&s.IndexScans, n) }

// QueryProfile records how one statement execution spent its time and what
// it touched; the query executor fills one per statement. The embedded
// ExecStats folds the executor's event counters into the same record, so
// timings and events are accounted once.
type QueryProfile struct {
	Kind         string `json:"kind"` // "query", "update", "ddl", "explain" or "profile"
	ParseNs      int64  `json:"parse_ns"`
	OptimizeNs   int64  `json:"optimize_ns"`
	ExecNs       int64  `json:"exec_ns"`
	PagesTouched uint64 `json:"pages_touched"`
	NodesYielded int    `json:"nodes_yielded"`

	ExecStats
}

// profileRing bounds how many recent query profiles a registry retains.
const profileRing = 32

// Registry is a named collection of metrics. Lookup is read-locked and
// intended for wiring time; the returned metric pointers are then used
// lock-free on hot paths.
type Registry struct {
	mu sync.RWMutex
	m  map[string]any // *Counter | *Gauge | *Histogram

	profMu   sync.Mutex
	profiles [profileRing]QueryProfile
	profN    uint64 // total profiles ever recorded
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]any)}
}

func (r *Registry) lookup(name string) (any, bool) {
	r.mu.RLock()
	v, ok := r.m[name]
	r.mu.RUnlock()
	return v, ok
}

// Counter returns the counter registered under name, creating it if absent.
// Panics if name is registered as a different metric kind.
func (r *Registry) Counter(name string) *Counter {
	if v, ok := r.lookup(name); ok {
		return mustKind[*Counter](name, v)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m[name]; ok {
		return mustKind[*Counter](name, v)
	}
	c := &Counter{}
	r.m[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if absent.
func (r *Registry) Gauge(name string) *Gauge {
	if v, ok := r.lookup(name); ok {
		return mustKind[*Gauge](name, v)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m[name]; ok {
		return mustKind[*Gauge](name, v)
	}
	g := &Gauge{}
	r.m[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it if
// absent.
func (r *Registry) Histogram(name string) *Histogram {
	if v, ok := r.lookup(name); ok {
		return mustKind[*Histogram](name, v)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m[name]; ok {
		return mustKind[*Histogram](name, v)
	}
	h := &Histogram{}
	r.m[name] = h
	return h
}

func mustKind[T any](name string, v any) T {
	t, ok := v.(T)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %T", name, v))
	}
	return t
}

// GaugeFunc is a gauge whose level is computed at snapshot time (e.g. uptime
// derived from a start timestamp) instead of being stored.
type GaugeFunc struct {
	mu sync.Mutex
	fn func() int64
}

// Value evaluates the gauge.
func (g *GaugeFunc) Value() int64 {
	g.mu.Lock()
	fn := g.fn
	g.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// GaugeFunc registers a computed gauge under name; registering the same name
// again replaces the function (a restarted governor over a shared registry
// re-binds its uptime).
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m[name]; ok {
		mustKind[*GaugeFunc](name, v).set(fn)
		return
	}
	g := &GaugeFunc{}
	g.set(fn)
	r.m[name] = g
}

func (g *GaugeFunc) set(fn func() int64) {
	g.mu.Lock()
	g.fn = fn
	g.mu.Unlock()
}

// info is a labeled constant-1 metric ("build info" convention): the value
// carries no measurement, the labels do.
type info struct {
	labels map[string]string
}

// Info registers a labeled constant metric under name (value always 1),
// replacing any previous labels. Used for sedna.build_info.
func (r *Registry) Info(name string, labels map[string]string) {
	cp := make(map[string]string, len(labels))
	for k, v := range labels {
		cp[k] = v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m[name]; ok {
		mustKind[*info](name, v).labels = cp
		return
	}
	r.m[name] = &info{labels: cp}
}

// RecordProfile stores a query profile in the bounded recent-profiles ring.
func (r *Registry) RecordProfile(p QueryProfile) {
	r.profMu.Lock()
	r.profiles[r.profN%profileRing] = p
	r.profN++
	r.profMu.Unlock()
}

// RecentProfiles returns up to profileRing recent query profiles, newest
// first.
func (r *Registry) RecentProfiles() []QueryProfile {
	r.profMu.Lock()
	defer r.profMu.Unlock()
	n := r.profN
	if n > profileRing {
		n = profileRing
	}
	out := make([]QueryProfile, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.profiles[(r.profN-1-i)%profileRing])
	}
	return out
}

// Snapshot is a consistent-enough point-in-time copy of every metric (each
// individual value is read atomically; the set is read without stopping
// writers, as fits monitoring).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramValue    `json:"histograms"`
	Infos      map[string]map[string]string `json:"infos,omitempty"`
	Queries    []QueryProfile               `json:"recent_queries,omitempty"`
}

// Snapshot reads every registered metric.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramValue),
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.m))
	vals := make([]any, 0, len(r.m))
	for name, v := range r.m {
		names = append(names, name)
		vals = append(vals, v)
		// Info label maps are replaced (not mutated) under the write lock, so
		// the pointer must be captured while the read lock is held.
		if iv, ok := v.(*info); ok {
			if s.Infos == nil {
				s.Infos = make(map[string]map[string]string)
			}
			s.Infos[name] = iv.labels
		}
	}
	r.mu.RUnlock()
	for i, name := range names {
		switch v := vals[i].(type) {
		case *Counter:
			s.Counters[name] = v.Value()
		case *Gauge:
			s.Gauges[name] = v.Value()
		case *GaugeFunc:
			s.Gauges[name] = v.Value()
		case *Histogram:
			s.Histograms[name] = v.value()
		}
	}
	s.Queries = r.RecentProfiles()
	return s
}

// WriteText renders the snapshot in a stable, sorted, line-oriented
// plain-text format: "name value" for counters and gauges, one annotated
// line per histogram, and a trailing recent-queries section.
func (s Snapshot) WriteText(w io.Writer) error {
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.Histograms {
		lines = append(lines, fmt.Sprintf("%s count=%d sum_ns=%d p50_ns=%d p95_ns=%d p99_ns=%d",
			name, v.Count, v.SumNs, v.P50Ns, v.P95Ns, v.P99Ns))
	}
	for name, labels := range s.Infos {
		lines = append(lines, fmt.Sprintf("%s%s 1", name, formatLabels(labels)))
	}
	// The derived ratio, computed at render time so every consumer of the text
	// form (METRICS verb, /metrics endpoint) sees them without bookkeeping.
	if hits, ok := s.Counters["buffer.hits"]; ok {
		if total := hits + s.Counters["buffer.faults"]; total > 0 {
			lines = append(lines, fmt.Sprintf("buffer.hit_ratio %.4f", float64(hits)/float64(total)))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	if len(s.Queries) > 0 {
		if _, err := fmt.Fprintln(w, "# recent queries (newest first)"); err != nil {
			return err
		}
		for _, q := range s.Queries {
			if _, err := fmt.Fprintf(w, "query kind=%s parse_ns=%d optimize_ns=%d exec_ns=%d pages=%d nodes=%d\n",
				q.Kind, q.ParseNs, q.OptimizeNs, q.ExecNs, q.PagesTouched, q.NodesYielded); err != nil {
				return err
			}
		}
	}
	return nil
}

// Text renders the registry's current snapshot as plain text.
func (r *Registry) Text() string {
	var sb strings.Builder
	_ = r.Snapshot().WriteText(&sb)
	return sb.String()
}

// OrNew returns reg, or a fresh private registry when reg is nil — the
// subsystem constructors use it so instrumentation is always live even when
// no shared registry is wired in (tests, standalone tools).
func OrNew(reg *Registry) *Registry {
	if reg == nil {
		return NewRegistry()
	}
	return reg
}
