package server

import (
	"fmt"
	"slices"

	"sedna/internal/metrics"
	"sedna/internal/query"
	"sedna/internal/repl"
	"sedna/internal/trace"
)

// systemDoc builds the read-only system documents that statements query with
// doc(): the governor's view of the engine, taken when the statement names
// the document.
//
//	doc("$metrics")     <metrics>: a counter, gauge, histogram or info
//	                    element per registered metric (by name), then the
//	                    recent query profiles, newest first
//	doc("$slowlog")     <slowlog threshold_ns>: the retained slow traces,
//	                    newest first, each with its counter deltas and span tree
//	doc("$sessions")    <sessions>: every live session by id, with its
//	                    accounting and its in-flight statement's span tree
//	doc("$replication") <replication role>: the node's own stream from its
//	                    primary, if it has one, and each connected replica
func (g *Governor) systemDoc(name string, b *query.DocBuilder) error {
	switch name {
	case "$metrics":
		writeMetrics(b, g.Metrics().Snapshot())
	case "$slowlog":
		tr := g.Tracer()
		b.Start("slowlog")
		b.AttrInt("threshold_ns", tr.SlowThresholdNs())
		for _, t := range tr.Slow() {
			writeTrace(b, t)
		}
		b.End()
	case "$sessions":
		b.Start("sessions")
		for _, in := range g.SessionInfos() {
			writeSession(b, &in)
		}
		b.End()
	case "$replication":
		g.writeReplication(b)
	default:
		return fmt.Errorf("server: no system document %q", name)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// nameValue writes <kind name="…" value="…"/>.
func nameValue(b *query.DocBuilder, kind, name, value string) {
	b.Start(kind)
	b.Attr("name", name)
	b.Attr("value", value)
	b.End()
}

func writeMetrics(b *query.DocBuilder, s metrics.Snapshot) {
	b.Start("metrics")
	for _, name := range sortedKeys(s.Counters) {
		nameValue(b, "counter", name, fmt.Sprint(s.Counters[name]))
	}
	for _, name := range sortedKeys(s.Gauges) {
		nameValue(b, "gauge", name, fmt.Sprint(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		b.Start("histogram")
		b.Attr("name", name)
		b.AttrInt("count", int64(h.Count))
		b.AttrInt("sum_ns", h.SumNs)
		b.AttrInt("p50_ns", h.P50Ns)
		b.AttrInt("p95_ns", h.P95Ns)
		b.AttrInt("p99_ns", h.P99Ns)
		b.End()
	}
	for _, name := range sortedKeys(s.Infos) {
		labels := s.Infos[name]
		b.Start("info")
		b.Attr("name", name)
		for _, k := range sortedKeys(labels) {
			nameValue(b, "label", k, labels[k])
		}
		b.End()
	}
	for _, q := range s.Queries {
		b.Start("query")
		b.Attr("kind", q.Kind)
		b.AttrInt("parse_ns", q.ParseNs)
		b.AttrInt("optimize_ns", q.OptimizeNs)
		b.AttrInt("exec_ns", q.ExecNs)
		b.AttrInt("pages", int64(q.PagesTouched))
		b.AttrInt("nodes", int64(q.NodesYielded))
		b.End()
	}
	b.End()
}

func writeTrace(b *query.DocBuilder, t *trace.Trace) {
	b.Start("trace")
	b.AttrInt("id", int64(t.ID))
	b.Attr("query", t.Query)
	b.AttrInt("start_unix_ns", t.StartUnixNs)
	b.AttrInt("dur_ns", t.DurNs)
	if t.SessionID != 0 {
		b.AttrInt("session", int64(t.SessionID))
		b.Attr("client", t.Client)
	}
	for _, name := range sortedKeys(t.Counters) {
		nameValue(b, "counter", name, fmt.Sprint(t.Counters[name]))
	}
	writeSpan(b, t.Root)
	b.End()
}

// writeSpan writes <span name start_ns dur_ns> with an <attr name value/> per
// attribute, then its children.
func writeSpan(b *query.DocBuilder, s *trace.Span) {
	if s == nil {
		return
	}
	b.Start("span")
	b.Attr("name", s.Name)
	b.AttrInt("start_ns", s.StartNs)
	b.AttrInt("dur_ns", s.DurNs)
	for _, a := range s.Attrs {
		v := a.Str
		if a.IsInt {
			v = fmt.Sprint(a.Int)
		}
		nameValue(b, "attr", a.Key, v)
	}
	for _, c := range s.Children {
		writeSpan(b, c)
	}
	b.End()
}

func writeSession(b *query.DocBuilder, in *SessionInfo) {
	b.Start("session")
	b.AttrInt("id", int64(in.ID))
	b.Attr("client", in.Client)
	b.AttrInt("connected_unix_ns", in.ConnectedUnixNs)
	b.Attr("tx_open", fmt.Sprint(in.TxOpen))
	st := in.Stats
	b.Start("stats")
	b.AttrInt("statements", int64(st.Statements))
	b.AttrInt("errors", int64(st.Errors))
	b.AttrInt("nodes", int64(st.Nodes))
	b.AttrInt("buffer_faults", int64(st.BufferFaults))
	b.AttrInt("pages_read", int64(st.PagesRead))
	b.AttrInt("pages_written", int64(st.PagesWritten))
	b.AttrInt("wal_bytes", int64(st.WALBytes))
	b.AttrInt("lock_wait_ns", st.LockWaitNs)
	b.AttrInt("exec_ns", st.ExecNs)
	b.End()
	if s := in.Statement; s != nil {
		b.Start("statement")
		b.AttrInt("ordinal", int64(s.Ordinal))
		b.Attr("query", s.Query)
		b.AttrInt("start_unix_ns", s.StartUnixNs)
		b.AttrInt("elapsed_ns", s.ElapsedNs)
		writeSpan(b, s.Spans)
		b.End()
	}
	b.End()
}

// writeReplication writes the node's role, its own stream when it fronts a
// replica (a promoted replica reports role primary) and every downstream
// replica with its lag in log bytes.
func (g *Governor) writeReplication(b *query.DocBuilder) {
	var self *repl.SelfStatus
	role := "primary"
	if g.replica != nil {
		st := g.replica.Status()
		self = &st
		if st.State != "promoted" {
			role = "replica"
		}
	}
	b.Start("replication")
	b.Attr("role", role)
	if self != nil {
		b.Start("self")
		b.Attr("primary", self.Primary)
		b.Attr("state", self.State)
		b.AttrInt("restart_lsn", int64(self.RestartLSN))
		b.AttrInt("commit_lsn", int64(self.CommitLSN))
		b.AttrInt("lag_lsns", int64(self.LagLSNs))
		if self.LastError != "" {
			b.Attr("last_error", self.LastError)
		}
		b.End()
	}
	for _, r := range g.primary.Status() {
		b.Start("replica")
		b.Attr("addr", r.Addr)
		b.Attr("state", r.State)
		b.AttrInt("acked_lsn", int64(r.AckedLSN))
		b.AttrInt("lag_lsns", int64(r.LagLSNs))
		b.AttrInt("connected_s", r.Seconds)
		b.End()
	}
	b.End()
}
