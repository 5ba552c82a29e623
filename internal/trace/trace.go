// Package trace is the per-query lens over the engine: a dependency-free,
// low-overhead span tracer. A statement execution opens a Trace whose spans
// nest through the query pipe (parse, analyze, rewrite, per-operator
// execution) and down into the storage layers (buffer faults, WAL fsyncs,
// lock waits). Counter deltas from the metrics registry are snapshotted over
// the trace window, so a trace also shows what the whole engine did while
// the statement ran.
//
// The disabled path costs one nil check: every Span method is safe on a nil
// receiver, and Tracer.Start returns nil unless tracing or the slow-query
// threshold is on. Completed traces land in a bounded in-memory ring;
// over-threshold traces are additionally retained in a slow ring and
// serialized as JSONL to the slow-query log.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sedna/internal/metrics"
)

// Attr is one typed span attribute: either a string or an int64 value.
type Attr struct {
	Key string `json:"key"`
	Str string `json:"str,omitempty"`
	Int int64  `json:"int,omitempty"`
	// IsInt distinguishes an integer attribute from a string one (an int
	// attribute may legitimately be zero).
	IsInt bool `json:"is_int,omitempty"`
}

// Span is one timed region of a trace. Spans nest. A span's mutators are
// guarded by a small mutex, so any goroutine may annotate a span; the lock
// is uncontended in practice. All methods are no-ops on a nil receiver;
// reading a finished trace needs no locking.
type Span struct {
	Name     string  `json:"name"`
	StartNs  int64   `json:"start_ns"` // offset from the trace start
	DurNs    int64   `json:"dur_ns"`
	Attrs    []Attr  `json:"attrs,omitempty"`
	Children []*Span `json:"children,omitempty"`

	mu     sync.Mutex
	parent *Span
	t0     time.Time // trace epoch, copied to children
	start  time.Time
	ended  bool
}

// Child opens a nested span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	now := time.Now()
	c := &Span{Name: name, StartNs: now.Sub(s.t0).Nanoseconds(), parent: s, t0: s.t0, start: now}
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
	return c
}

// ChildDone records an already-measured region (e.g. a parse that finished
// before the trace opened) as an ended child span.
func (s *Span) ChildDone(name string, durNs int64) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, DurNs: durNs, parent: s, t0: s.t0, ended: true}
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
	return c
}

// End closes the span, fixing its duration. Idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.DurNs = time.Since(s.start).Nanoseconds()
	}
	s.mu.Unlock()
}

// Snapshot deep-copies the span subtree as it stands right now, for live
// introspection of an in-flight statement. Safe to call concurrently with
// the statement's own mutators: each span's fields are copied under its
// mutex. In-flight spans report their duration so far.
func (s *Span) Snapshot() *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	c := &Span{Name: s.Name, StartNs: s.StartNs, DurNs: s.DurNs}
	if !s.ended && !s.start.IsZero() {
		c.DurNs = time.Since(s.start).Nanoseconds()
	}
	c.Attrs = append([]Attr(nil), s.Attrs...)
	children := append([]*Span(nil), s.Children...)
	s.mu.Unlock()
	for _, ch := range children {
		c.Children = append(c.Children, ch.Snapshot())
	}
	return c
}

// Parent returns the enclosing span (nil for the root).
func (s *Span) Parent() *Span {
	if s == nil {
		return nil
	}
	return s.parent
}

// SetStr sets a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Str: v})
	s.mu.Unlock()
}

// SetInt sets an integer attribute, replacing an existing one of the same
// key (a span re-annotated keeps one value).
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.Attrs {
		if s.Attrs[i].Key == key && s.Attrs[i].IsInt {
			s.Attrs[i].Int = v
			s.mu.Unlock()
			return
		}
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Int: v, IsInt: true})
	s.mu.Unlock()
}

// AddInt adds d to an integer attribute, creating it at d if absent.
func (s *Span) AddInt(key string, d int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.Attrs {
		if s.Attrs[i].Key == key && s.Attrs[i].IsInt {
			s.Attrs[i].Int += d
			s.mu.Unlock()
			return
		}
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Int: d, IsInt: true})
	s.mu.Unlock()
}

// Trace is one statement's completed (or in-flight) span tree plus the
// engine-wide counter deltas observed over its window.
type Trace struct {
	ID          uint64            `json:"id"`
	Query       string            `json:"query"`
	StartUnixNs int64             `json:"start_unix_ns"`
	DurNs       int64             `json:"dur_ns"`
	Slow        bool              `json:"slow,omitempty"`
	Counters    map[string]uint64 `json:"counters,omitempty"`
	Root        *Span             `json:"root"`

	// SessionID and Client identify who ran the statement (the wire session
	// id and the client's remote address); zero/empty for statements run
	// outside a server session. Set by the session before the trace can
	// finish, so slowlog lines join against \sessions output.
	SessionID uint64 `json:"session_id,omitempty"`
	Client    string `json:"client,omitempty"`

	base []uint64 // watch-counter values at Start, indexed like Tracer.watch
}

// SetOrigin attributes the trace to a session and client address. Must be
// called by the goroutine running the statement, before Finish.
func (tr *Trace) SetOrigin(sessionID uint64, client string) {
	if tr == nil {
		return
	}
	tr.SessionID = sessionID
	tr.Client = client
}

// ringSize bounds the recent and slow trace rings.
const ringSize = 32

// watchCounter is one registry counter whose delta a trace snapshots.
type watchCounter struct {
	name string
	c    *metrics.Counter
}

// watchedCounters is the registry watch list snapshotted per trace: the
// storage-layer activity that explains where a statement's time went.
var watchedCounters = []string{
	"buffer.hits",
	"buffer.faults",
	"buffer.disk_reads",
	"buffer.disk_writes",
	"buffer.evictions",
	"buffer.snapshot_reads",
	"wal.appends",
	"wal.fsyncs",
	"lock.waits",
	"lock.deadlock_aborts",
}

// Tracer owns the tracing configuration, the trace rings and the slow-query
// log for one database. All methods are safe on a nil receiver and for
// concurrent use.
type Tracer struct {
	enabled atomic.Bool
	slowNs  atomic.Int64
	nextID  atomic.Uint64

	watch []watchCounter

	traces      *metrics.Counter
	slowQueries *metrics.Counter
	logErrors   *metrics.Counter

	mu      sync.Mutex
	recent  [ringSize]*Trace
	recentN uint64
	slow    [ringSize]*Trace
	slowN   uint64

	activeMu sync.Mutex
	active   map[uint64]*Span // txn id → root span of its open trace

	logMu   sync.Mutex
	logPath string
	logF    *os.File
}

// New creates a tracer that snapshots counter deltas from reg (nil = a
// fresh private registry) and reports its own counters there under the
// "trace." family.
func New(reg *metrics.Registry) *Tracer {
	reg = metrics.OrNew(reg)
	t := &Tracer{
		traces:      reg.Counter("trace.traces"),
		slowQueries: reg.Counter("trace.slow_queries"),
		logErrors:   reg.Counter("trace.slowlog_errors"),
		active:      make(map[uint64]*Span),
	}
	for _, name := range watchedCounters {
		t.watch = append(t.watch, watchCounter{name: name, c: reg.Counter(name)})
	}
	return t
}

// SetEnabled turns always-on tracing on or off.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Enabled reports whether always-on tracing is on.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetSlowThreshold sets the slow-query threshold (0 disables the slow log).
// Queries are traced whenever the threshold is on, so a slow one has a full
// trace to log.
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if t != nil {
		t.slowNs.Store(int64(d))
	}
}

// SlowThresholdNs returns the slow-query threshold in nanoseconds.
func (t *Tracer) SlowThresholdNs() int64 {
	if t == nil {
		return 0
	}
	return t.slowNs.Load()
}

// SetSlowLogPath sets where slow traces are appended as JSONL ("" disables
// the file, rings still fill).
func (t *Tracer) SetSlowLogPath(path string) {
	if t == nil {
		return
	}
	t.logMu.Lock()
	defer t.logMu.Unlock()
	if t.logF != nil {
		t.logF.Close()
		t.logF = nil
	}
	t.logPath = path
}

// Active reports whether Start would open a trace.
func (t *Tracer) Active() bool {
	return t != nil && (t.enabled.Load() || t.slowNs.Load() > 0)
}

// Start opens a trace for a statement, or returns nil when tracing is off —
// the disabled path's single check.
func (t *Tracer) Start(query string) *Trace {
	if !t.Active() {
		return nil
	}
	return t.start(query)
}

// StartForced opens a trace regardless of configuration (PROFILE).
func (t *Tracer) StartForced(query string) *Trace {
	if t == nil {
		return nil
	}
	return t.start(query)
}

func (t *Tracer) start(query string) *Trace {
	now := time.Now()
	tr := &Trace{
		ID:          t.nextID.Add(1),
		Query:       query,
		StartUnixNs: now.UnixNano(),
		Root:        &Span{Name: "statement", t0: now, start: now},
		base:        make([]uint64, len(t.watch)),
	}
	for i, w := range t.watch {
		tr.base[i] = w.c.Value()
	}
	return tr
}

// Finish completes a trace: the root span is ended (unless already ended by
// the caller, whose duration then stands), counter deltas are attached, the
// trace joins the recent ring, and — when its duration meets a non-zero
// slow threshold — the slow ring and the JSONL slow log.
func (t *Tracer) Finish(tr *Trace) {
	if t == nil || tr == nil {
		return
	}
	tr.Root.End()
	tr.DurNs = tr.Root.DurNs
	for i, w := range t.watch {
		if d := w.c.Value() - tr.base[i]; d != 0 {
			if tr.Counters == nil {
				tr.Counters = make(map[string]uint64)
			}
			tr.Counters[w.name] = d
		}
	}
	tr.base = nil
	t.traces.Inc()
	thr := t.slowNs.Load()
	tr.Slow = thr > 0 && tr.DurNs >= thr
	t.mu.Lock()
	t.recent[t.recentN%ringSize] = tr
	t.recentN++
	if tr.Slow {
		t.slow[t.slowN%ringSize] = tr
		t.slowN++
	}
	t.mu.Unlock()
	if tr.Slow {
		t.slowQueries.Inc()
		t.appendSlowLog(tr)
	}
}

func (t *Tracer) appendSlowLog(tr *Trace) {
	t.logMu.Lock()
	defer t.logMu.Unlock()
	if t.logPath == "" {
		return
	}
	if t.logF == nil {
		f, err := os.OpenFile(t.logPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			t.logErrors.Inc()
			return
		}
		t.logF = f
	}
	line, err := json.Marshal(tr)
	if err != nil {
		t.logErrors.Inc()
		return
	}
	line = append(line, '\n')
	if _, err := t.logF.Write(line); err != nil {
		t.logErrors.Inc()
	}
}

// Close releases the slow-log file handle.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.logMu.Lock()
	defer t.logMu.Unlock()
	if t.logF != nil {
		err := t.logF.Close()
		t.logF = nil
		return err
	}
	return nil
}

// Recent returns up to ringSize recently completed traces, newest first.
func (t *Tracer) Recent() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return ringSlice(&t.recent, t.recentN)
}

// Slow returns up to ringSize retained slow traces, newest first.
func (t *Tracer) Slow() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return ringSlice(&t.slow, t.slowN)
}

func ringSlice(ring *[ringSize]*Trace, total uint64) []*Trace {
	n := total
	if n > ringSize {
		n = ringSize
	}
	out := make([]*Trace, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, ring[(total-1-i)%ringSize])
	}
	return out
}

// SetActive registers the root span of a transaction's open trace, so
// layers that only know the transaction id (the lock manager) can attach
// child spans. Only touched at trace start/finish and on slow paths.
func (t *Tracer) SetActive(txnID uint64, s *Span) {
	if t == nil {
		return
	}
	t.activeMu.Lock()
	if s == nil {
		delete(t.active, txnID)
	} else {
		t.active[txnID] = s
	}
	t.activeMu.Unlock()
}

// ActiveFor returns the span registered for a transaction (nil if none).
func (t *Tracer) ActiveFor(txnID uint64) *Span {
	if t == nil {
		return nil
	}
	t.activeMu.Lock()
	s := t.active[txnID]
	t.activeMu.Unlock()
	return s
}

// ---- rendering ----

// WriteText renders the trace as an indented span tree with durations and
// attributes, followed by the counter deltas.
func (tr *Trace) WriteText(w io.Writer) error {
	if tr == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "trace %d dur=%s slow=%v\n  query: %s\n",
		tr.ID, time.Duration(tr.DurNs), tr.Slow, tr.Query); err != nil {
		return err
	}
	if err := writeSpan(w, tr.Root, 1); err != nil {
		return err
	}
	if len(tr.Counters) > 0 {
		names := make([]string, 0, len(tr.Counters))
		for name := range tr.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		if _, err := fmt.Fprintf(w, "  counters:"); err != nil {
			return err
		}
		for _, name := range names {
			if _, err := fmt.Fprintf(w, " %s=%d", name, tr.Counters[name]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

func writeSpan(w io.Writer, s *Span, depth int) error {
	if s == nil {
		return nil
	}
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	fmt.Fprintf(&sb, "%s dur=%s", s.Name, time.Duration(s.DurNs))
	for _, a := range s.Attrs {
		if a.IsInt {
			fmt.Fprintf(&sb, " %s=%d", a.Key, a.Int)
		} else {
			fmt.Fprintf(&sb, " %s=%s", a.Key, a.Str)
		}
	}
	if _, err := fmt.Fprintln(w, sb.String()); err != nil {
		return err
	}
	for _, c := range s.Children {
		if err := writeSpan(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// Text renders the trace as a string.
func (tr *Trace) Text() string {
	var sb strings.Builder
	_ = tr.WriteText(&sb)
	return sb.String()
}
