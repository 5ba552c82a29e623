package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sedna/client"
	"sedna/internal/core"
	"sedna/internal/metrics"
	"sedna/internal/query"
	"sedna/internal/server"
)

// span is one line of trace-<workload>.jsonl: a timed call into a layer's
// public function. A span's id is its line number (from 0); parent is the
// id of the span that caused it, -1 for a statement's root. Times are ns
// since the pass began. A layer's self time is its span's duration minus
// the part its children cover.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Stmt   int    `json:"stmt_id"`
	// Root spans only: the statement class and the buffer pages the
	// statement touched (hits + faults + snapshot reads).
	Class   string `json:"class,omitempty"`
	Touches uint64 `json:"page_touches,omitempty"`
	// txn.Commit spans only: time the commit spent inside WAL fsyncs.
	FsyncNs int64 `json:"fsync_ns,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) begin(name string, parent, stmt int) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, Stmt: stmt, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].End = int64(time.Since(r.t0)) }

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns, in µs, the durations of the spans keep accepts.
func (r *recorder) durations(keep func(*span) bool) []float64 {
	var out []float64
	for i := range r.spans {
		if s := &r.spans[i]; keep(s) {
			out = append(out, us(s.dur()))
		}
	}
	return out
}

// mirror re-implements server.Session.Execute's auto-commit path from the
// same public calls — query.Parse, Begin, query.NewExecCtx +
// query.ExecuteStatement, Result.Serialize, Commit — with a span around
// each. It must answer byte for byte what the session answers (a test
// holds it to that) and take about as long (trace.mirror_drift_pct).
type mirror struct {
	db      *core.Database
	rec     *recorder
	touches func() uint64
	fsync   *metrics.Histogram
	stmts   int
	root    int // root span of the latest statement
}

func newMirror(db *core.Database, rec *recorder) *mirror {
	reg := db.Metrics()
	hits, faults, snap := reg.Counter("buffer.hits"), reg.Counter("buffer.faults"), reg.Counter("buffer.snapshot_reads")
	return &mirror{db: db, rec: rec, fsync: reg.Histogram("wal.fsync_ns"),
		touches: func() uint64 { return hits.Value() + faults.Value() + snap.Value() }}
}

func (m *mirror) execute(src string) (data string, updated int, err error) {
	id, rec := m.stmts, m.rec
	m.stmts++
	touched := m.touches()
	root := rec.begin("stmt", -1, id)
	m.root = root
	defer func() {
		rec.end(root)
		rec.spans[root].Touches = m.touches() - touched
	}()

	sp := rec.begin("query.Parse", root, id)
	parseStart := time.Now()
	st, err := query.Parse(src)
	parseNs := time.Since(parseStart).Nanoseconds()
	rec.end(sp)
	if err != nil {
		return "", 0, err
	}

	sp = rec.begin("txn.Begin", root, id)
	var tx *core.Tx
	if st.ReadOnly() {
		tx, err = m.db.BeginReadOnly()
	} else {
		tx, err = m.db.Begin()
	}
	rec.end(sp)
	if err != nil {
		return "", 0, err
	}

	ctx := query.NewExecCtx(tx)
	ctx.StartTrace(st.Source)
	ctx.RecordParse(parseNs)
	defer ctx.FinishTrace()
	sp = rec.begin("query.ExecuteStatement", root, id)
	res, err := query.ExecuteStatement(ctx, st)
	rec.end(sp)
	if err != nil {
		tx.Rollback()
		return "", 0, err
	}

	sp = rec.begin("Result.Serialize", root, id)
	var sb strings.Builder
	err = res.Serialize(&sb)
	rec.end(sp)
	if err != nil {
		tx.Rollback()
		return "", 0, err
	}

	sp = rec.begin("txn.Commit", root, id)
	fsync := m.fsync.SumNs()
	err = tx.Commit()
	rec.end(sp)
	rec.spans[sp].FsyncNs = m.fsync.SumNs() - fsync
	if err != nil {
		return "", 0, err
	}
	return sb.String(), res.Updated, nil
}

func sessionExecutor(s *server.Session) executor {
	return func(src string) (string, int, error) {
		resp, err := s.Execute(src)
		if err != nil {
			return "", 0, err
		}
		return resp.Data, resp.Updated, nil
	}
}

// pass is one replay of a workload's single-client statement stream on a
// freshly set-up database.
type pass struct {
	in      *instance
	samples []sample
	digests []uint64 // per statement: hash of the response
	delta   regDelta // registry change over the statements
	load    regDelta // registry change over the set-up
	alloc   uint64   // heap bytes allocated over the statements
	close   time.Duration
}

const (
	passWire    = iota // client.Conn.Execute over loopback
	passSession        // Governor.NewSession().Execute in-process
	passMirror         // the harness's span-wrapped mirror of Session.Execute
)

// runPass sets the workload up in dir and replays n statements through the
// executor of the given kind. The two client generators alternate, so the
// single-client stream keeps the workload's mix. Every pass regenerates the
// stream from the same seed on an identical database, so the passes see
// identical statements.
func runPass(w wireWorkload, opt options, kind int, rec *recorder, t *tally) (*pass, error) {
	in, xml, err := setUp(w, filepath.Join(opt.workdir, "pass"+strconv.Itoa(kind)), opt.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p := &pass{in: in, load: diff(metrics.Snapshot{}, in.reg.Snapshot())}
	tr, err := w.traffic(xml, opt.seed)
	if err != nil {
		return nil, err
	}
	var m *mirror
	var exec executor
	release := func() {} // the server's Close waits for this pass's connection
	switch kind {
	case passWire:
		c, err := client.Connect(in.srv.Addr())
		if err != nil {
			return nil, err
		}
		exec, release = connExecutor(c), func() { c.Close() }
	case passSession:
		s := in.srv.Governor().NewSession()
		exec, release = sessionExecutor(s), s.Close
	case passMirror:
		m = newMirror(in.db.Internal(), rec)
		exec = m.execute
	}
	prime(exec, w.docs, t)
	if m != nil {
		rec.spans, m.stmts = rec.spans[:0], 0 // priming is not part of the trace
	}
	rec.t0 = time.Now()
	// The answer is hashed after the statement's latency has been taken.
	var data string
	var upd int
	capture := func(src string) (string, int, error) {
		var err error
		data, upd, err = exec(src)
		return data, upd, err
	}
	before, alloc := in.reg.Snapshot(), heapAllocBytes()
	for i := 0; i < opt.sc.traceStmts[w.name]; i++ {
		s := tr.clients[i%len(tr.clients)]()
		p.samples = append(p.samples, runStmt(capture, s, t))
		h := fnv.New64a()
		h.Write([]byte(data))
		h.Write([]byte{byte(upd)})
		p.digests = append(p.digests, h.Sum64())
		if m != nil {
			rec.spans[m.root].Class = s.class
		}
	}
	p.alloc = heapAllocBytes() - alloc
	p.delta = diff(before, in.reg.Snapshot())
	release()
	for _, s := range tr.final() {
		t.note(expect(in.db, s))
	}
	p.close, err = in.tearDown()
	return p, err
}

// traceWire is the traced run of a wire workload: the same statement
// stream three times — over the wire, through a session in-process, and
// through the span-wrapped mirror.
func traceWire(w wireWorkload, opt options) (*report, error) {
	rep := newReport(opt)
	t := new(tally)
	rec := new(recorder)
	var passes [3]*pass
	for kind := range passes {
		var err error
		if passes[kind], err = runPass(w, opt, kind, rec, t); err != nil {
			return nil, fmt.Errorf("pass %d: %w", kind+1, err)
		}
	}
	wire, sess := passes[passWire], passes[passSession]
	rep.TraceFile = filepath.Join(opt.outdir, "trace-"+w.name+".jsonl")
	if err := rec.write(rep.TraceFile); err != nil {
		return nil, err
	}

	ops, updates, eligible := countOps(wire.samples)
	n := int(ops)
	set := func(name string, v float64, samples int) { rep.set(perLayer, name, v, samples) }
	for name, v := range wire.delta.layerCounts(ops, updates, eligible) {
		set(name, v, n)
	}
	in := wire.in
	for name, v := range wire.load.loadCounts(in.xmlBytes, in.load.Seconds()) {
		set(name, v, len(w.docs))
	}
	reads := latencies(wire.samples, func(s sample) bool { return !s.write })
	writes := latencies(wire.samples, func(s sample) bool { return s.write })
	set("client.read_p95_ms", percentile(reads, 0.95), len(reads))
	set("client.write_p95_ms", percentile(writes, 0.95), len(writes))
	wireMed, sessMed := median(latencies(wire.samples, nil)), median(latencies(sess.samples, nil))
	set("server.wire_overhead_us", (wireMed-sessMed)*1e3, n)
	set("core.alloc_bytes_per_op", ratio(float64(sess.alloc), ops), n)
	set("storage.bytes_per_node", ratio(float64(in.dataBytes), float64(in.nodes)), int(in.nodes))
	set("wal.bytes_per_xml_byte", ratio(float64(in.walBytes), float64(in.xmlBytes)), 1)
	set("core.checkpoint_s", in.checkpoint.Seconds(), 1)
	set("core.open_recover_s", in.recover.Seconds(), 1)
	set("core.close_s", wire.close.Seconds(), 1)

	named := func(name string) func(*span) bool { return func(s *span) bool { return s.Name == name } }
	for metric, name := range map[string]string{
		"query.parse_us": "query.Parse", "query.execute_us": "query.ExecuteStatement", "query.serialize_us": "Result.Serialize",
		"txn.begin_us": "txn.Begin", "txn.commit_us": "txn.Commit",
	} {
		xs := rec.durations(named(name))
		set(metric, median(xs), len(xs))
	}
	var commitSelf []float64
	for i := range rec.spans {
		if s := &rec.spans[i]; s.Name == "txn.Commit" {
			commitSelf = append(commitSelf, us(s.dur()-time.Duration(s.FsyncNs)))
		}
	}
	set("txn.commit_self_us", median(commitSelf), len(commitSelf))
	execOf := func(class string) []float64 {
		return rec.durations(func(s *span) bool {
			return s.Name == "query.ExecuteStatement" && rec.spans[s.Parent].Class == class
		})
	}
	planned, explicit := execOf("lookup_planned"), execOf("lookup_explicit")
	set("opt.probe_stmt_us", median(planned), len(planned))
	set("index.scan_stmt_us", median(explicit), len(explicit))
	var lookups, touches float64
	for i := range rec.spans {
		if s := &rec.spans[i]; s.Parent < 0 && strings.HasPrefix(s.Class, "lookup_") {
			lookups++
			touches += float64(s.Touches)
		}
	}
	set("index.page_touches_per_lookup", ratio(touches, lookups), int(lookups))
	mirrorMed := median(rec.durations(func(s *span) bool { return s.Parent < 0 })) / 1e3
	drift := ratio(mirrorMed-sessMed, sessMed) * 100
	set("trace.mirror_drift_pct", drift, n)

	rep.setClasses(wire.samples)
	rep.check("mirror within 10 % of Session.Execute", drift <= 10 && drift >= -10,
		"session median %.1f µs, mirror median %.1f µs, drift %+.1f %%", sessMed*1e3, mirrorMed*1e3, drift)
	same := len(sess.digests) == len(passes[passMirror].digests)
	for i := 0; same && i < len(sess.digests); i++ {
		same = sess.digests[i] == passes[passMirror].digests[i] && sess.digests[i] == wire.digests[i]
	}
	var differ error
	if !same {
		differ = errors.New("the three passes did not answer the statement stream identically")
	}
	t.note(differ)
	rep.finish(perLayer, t)
	return rep, nil
}

// traceIngest is the traced ingest_recover run: a fixed number of cycles
// with a span per embedded API call under a root span per cycle.
func traceIngest(opt options) (*report, error) {
	rep := newReport(opt)
	corpus, err := newIngestCorpus(opt.sc, opt.seed)
	if err != nil {
		return nil, err
	}
	t := new(tally)
	reg := metrics.NewRegistry()
	rec := &recorder{t0: time.Now()}
	var ops []sample
	var cycles []cycleStats
	before, alloc := reg.Snapshot(), heapAllocBytes()
	for n := 0; n < opt.sc.traceCycles; n++ {
		root := rec.begin("cycle", -1, n)
		st, err := ingestCycle(filepath.Join(opt.workdir, "cycle"+strconv.Itoa(n)), reg, corpus, opt.sc.ingestUpdates, opt.seed*1000+int64(n), t,
			func(name string, start, end time.Time) {
				rec.spans = append(rec.spans, span{Name: name, Parent: root, Stmt: n,
					Start: int64(start.Sub(rec.t0)), End: int64(end.Sub(rec.t0))})
			})
		rec.end(root)
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", n, err)
		}
		ops, cycles = append(ops, st.ops...), append(cycles, st)
	}
	d := diff(before, reg.Snapshot())
	allocated := heapAllocBytes() - alloc
	rep.TraceFile = filepath.Join(opt.outdir, "trace-"+opt.workload+".jsonl")
	if err := rec.write(rep.TraceFile); err != nil {
		return nil, err
	}

	var updates, loadSeconds float64
	var checkpoint, recover, closeT, wal []float64
	for _, s := range ops {
		if s.class == "update" {
			updates++
		}
	}
	for _, c := range cycles {
		loadSeconds += c.loadTime.Seconds()
		checkpoint, recover = append(checkpoint, c.checkpoint.Seconds()), append(recover, c.recover.Seconds())
		closeT, wal = append(closeT, c.closeTime.Seconds()), append(wal, c.walRatio)
	}
	n := len(ops)
	set := func(name string, v float64, samples int) { rep.set(perLayer, name, v, samples) }
	for _, def := range perLayer {
		set(def.name, 0, 0) // layers this workload never enters: wire, spans of the statement path
	}
	for name, v := range d.layerCounts(float64(n), updates, 0) {
		set(name, v, n)
	}
	// Only phase A is timed as load; the post-checkpoint bulk load is not
	// in loadSeconds, so scale the bytes to the loads that are.
	for name, v := range d.loadCounts(corpus.xmlBytes*len(cycles), loadSeconds) {
		set(name, v, len(cycles)*len(corpus.docs))
	}
	writes := latencies(ops, func(s sample) bool { return s.class == "update" })
	set("client.write_p95_ms", percentile(writes, 0.95), len(writes))
	set("core.alloc_bytes_per_op", ratio(float64(allocated), float64(n)), n)
	set("wal.bytes_per_xml_byte", median(wal), len(wal))
	set("core.checkpoint_s", median(checkpoint), len(checkpoint))
	set("core.open_recover_s", median(recover), len(recover))
	set("core.close_s", median(closeT), len(closeT))
	rep.setClasses(ops)
	rep.finish(perLayer, t)
	return rep, nil
}
