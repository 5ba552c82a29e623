package query

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"sedna/internal/core"
	"sedna/internal/metrics"
	"sedna/internal/storage"
	"sedna/internal/trace"
)

// ExecCtx carries everything one statement execution needs: the engine
// transaction, the function table, rewriter switches (used by the ablation
// experiments) and runtime statistics. A server session keeps one for all its
// statements and readies it for each with Reset, so the node slabs grown by
// one statement serve the next.
type ExecCtx struct {
	Tx *core.Tx

	// Profile records how the last statement executed through this context
	// spent its time and what it touched (the embedded ExecStats counters
	// accumulate until Reset); it is also pushed into the database's metrics
	// registry.
	Profile metrics.QueryProfile

	// NoRewrite disables the optimizing rewriter (baseline for E5–E8).
	NoRewrite bool
	// NoOpt disables the cost-based optimizer: no step plans and no
	// automatic index probes (the forced baseline of
	// TestOptimizerAgainstForcedPlans).
	NoOpt bool
	// NoVirtualCtors disables the virtual-constructor optimisation
	// (baseline for E9).
	NoVirtualCtors bool

	// SystemDocs builds the read-only system documents doc() names with a
	// '$' (sysdoc.go); nil in a context no server session built.
	SystemDocs SystemDocs

	// updateStmt is set while executing an update statement so that
	// document resolution takes exclusive locks up front, avoiding the
	// classic shared→exclusive upgrade deadlock between two updaters.
	updateStmt bool

	funcs     map[string]*FuncDecl
	globalEnv *env // prolog-variable scope, used by function bodies

	// lazy caches the binding sequences of lazy for-clauses (§5.1.3) by
	// clause id; tempOrd numbers constructed nodes in document order.
	lazy    map[int][]Item
	tempOrd uint64

	// killed is the statement's cancellation token: set by Kill (from any
	// goroutine), observed at axis-step and FLWOR iteration boundaries via
	// checkKilled.
	killed atomic.Bool

	// nodes holds the stored nodes the statement produces; scratch holds the
	// merge streams' buffers, freed when their merge ends; textBuf is the
	// reused buffer string values are assembled in. See slab.go.
	nodes, scratch slab
	textBuf        []byte

	// views are the page views the statement holds over a snapshot
	// (store.go); released when the statement ends.
	views heldViews

	// paths holds the chains of in-place comparisons this context resolved
	// in the statement, and walk reads their values (inplace.go).
	paths []resolvedPath
	walk  *storage.ValueWalk

	// indexOns holds the index ON paths the statement resolved (ddl.go).
	indexOns []*indexOn

	// Tracing state: the database's tracer, the open trace (nil when not
	// tracing — the disabled path's single check) and the innermost open
	// span, which storage-layer events attach to via the transaction.
	tracer *trace.Tracer
	trace  *trace.Trace
	span   *trace.Span
}

// ErrKilled is returned by a statement terminated through ExecCtx.Kill. The
// server maps it to a clean transaction abort.
var ErrKilled = fmt.Errorf("query: statement killed")

// Kill requests cancellation of the statement executing through this
// context. Safe to call from any goroutine, at any time, including after the
// statement finished: Reset clears it before the context's next statement,
// and the server fences a late KILL by the statement ordinal besides.
func (ctx *ExecCtx) Kill() { ctx.killed.Store(true) }

// Killed reports whether Kill has been called.
func (ctx *ExecCtx) Killed() bool { return ctx.killed.Load() }

// checkKilled is the executor's cancellation point: a single atomic load on
// the hot path, returning ErrKilled once Kill has been called. Placed at
// axis-step stream boundaries and FLWOR iteration boundaries so even a
// statement in one long storage scan notices promptly.
func (ctx *ExecCtx) checkKilled() error {
	if ctx.killed.Load() {
		return ErrKilled
	}
	return nil
}

// NewExecCtx creates an execution context over an engine transaction.
func NewExecCtx(tx *core.Tx) *ExecCtx {
	ctx := &ExecCtx{}
	ctx.Reset(tx)
	return ctx
}

// Reset readies a context for its next statement, over tx: it forgets the
// last statement's state (prepare starts the resolved paths afresh) and keeps
// the slabs' memory up to maxKeptSlab. The last statement's result must be
// serialized and its trace finished; release has already let its page views
// go. A server session calls it before it registers the statement, so a KILL
// of the last one cannot land on it.
func (ctx *ExecCtx) Reset(tx *core.Tx) {
	ctx.Tx = tx
	ctx.tracer = nil
	if tx != nil && tx.DB() != nil {
		ctx.tracer = tx.DB().Tracer()
	}
	ctx.killed.Store(false)
	ctx.Profile = metrics.QueryProfile{}
	ctx.updateStmt = false
	ctx.funcs, ctx.globalEnv = nil, nil
	clear(ctx.lazy)
	ctx.tempOrd = 0
	ctx.nodes.reset()
	ctx.scratch.reset()
	if cap(ctx.textBuf) > maxKeptSlab {
		ctx.textBuf = nil
	}
	ctx.trace, ctx.span = nil, nil
}

// stats returns the ExecStats block executor events accumulate into.
func (ctx *ExecCtx) stats() *metrics.ExecStats { return &ctx.Profile.ExecStats }

// lazyStore records a lazy clause's materialized binding sequence. The
// sequence outlives whatever bracket it was evaluated in, so the slab that
// holds its nodes is pinned.
func (ctx *ExecCtx) lazyStore(id int, v []Item) {
	ctx.nodes.pin()
	if ctx.lazy == nil {
		ctx.lazy = make(map[int][]Item)
	}
	ctx.lazy[id] = v
}

// StartTrace opens a trace for the statement about to execute, unless one
// is already open or tracing is off. The caller that opened a trace
// finishes it with FinishTrace; a server session opens it before execution
// and finishes after commit so commit-time fsyncs land in the trace.
func (ctx *ExecCtx) StartTrace(src string) {
	if ctx.trace != nil {
		return
	}
	ctx.adoptTrace(ctx.tracer.Start(src))
}

// adoptTrace installs an open trace on the context and attaches its root to
// the transaction and the tracer's active-span table.
func (ctx *ExecCtx) adoptTrace(tr *trace.Trace) {
	if tr == nil {
		return
	}
	ctx.trace = tr
	ctx.span = tr.Root
	if ctx.Tx != nil {
		ctx.Tx.SetTraceSpan(tr.Root)
		ctx.tracer.SetActive(ctx.Tx.ID(), tr.Root)
	}
}

// FinishTrace completes the open trace (no-op when none is open).
func (ctx *ExecCtx) FinishTrace() {
	if ctx.trace == nil {
		return
	}
	if ctx.Tx != nil {
		ctx.Tx.SetTraceSpan(nil)
		ctx.tracer.SetActive(ctx.Tx.ID(), nil)
	}
	ctx.tracer.Finish(ctx.trace)
	ctx.trace = nil
	ctx.span = nil
}

// Trace returns the context's open trace (nil when not tracing).
func (ctx *ExecCtx) Trace() *trace.Trace { return ctx.trace }

// RecordParse attributes an already-measured parse time to the profile and,
// when tracing, to a finished "parse" child span.
func (ctx *ExecCtx) RecordParse(ns int64) { ctx.recordParse(ns) }

// RecordTemplateHit is RecordParse for a statement a template lookup stood in
// for parsing (TemplateCache): the lookup's time, and a "parse" span marked
// template=hit.
func (ctx *ExecCtx) RecordTemplateHit(ns int64) {
	ctx.recordParse(ns).SetStr("template", "hit")
}

func (ctx *ExecCtx) recordParse(ns int64) *trace.Span {
	ctx.Profile.ParseNs = ns
	if ctx.trace == nil {
		return nil
	}
	return ctx.trace.Root.ChildDone("parse", ns)
}

// pushSpan opens a child of the current span and makes it current; returns
// nil (and stays free of side effects) when not tracing.
func (ctx *ExecCtx) pushSpan(name string) *trace.Span {
	c := ctx.span.Child(name)
	if c != nil {
		ctx.span = c
		if ctx.Tx != nil {
			ctx.Tx.SetTraceSpan(c)
		}
	}
	return c
}

// popSpan ends a span opened by pushSpan and restores its parent.
func (ctx *ExecCtx) popSpan(c *trace.Span) {
	if c == nil {
		return
	}
	c.End()
	ctx.span = c.Parent()
	if ctx.Tx != nil {
		ctx.Tx.SetTraceSpan(ctx.span)
	}
}

// Result is the outcome of one statement.
type Result struct {
	Items   []Item // query results
	Updated int    // nodes affected by an update statement
	Message string // DDL acknowledgement
	ctx     *ExecCtx
}

// Execute parses, analyzes, rewrites and runs one statement. This is the
// paper's full pipe: parser → static analysis → optimizing rewriter →
// executor (§5).
func Execute(ctx *ExecCtx, src string) (*Result, error) {
	owned := ctx.trace == nil
	if owned {
		ctx.StartTrace(src)
	}
	parseStart := time.Now()
	st, err := Parse(src)
	parseNs := time.Since(parseStart).Nanoseconds()
	if err != nil {
		if owned {
			ctx.FinishTrace()
		}
		if reg := ctx.registry(); reg != nil {
			reg.Counter("query.errors").Inc()
		}
		return nil, err
	}
	ctx.RecordParse(parseNs)
	res, err := ExecuteStatement(ctx, st)
	if owned {
		ctx.FinishTrace()
	}
	return res, err
}

// registry resolves the metrics registry of the database the context's
// transaction runs against (nil when unavailable).
func (ctx *ExecCtx) registry() *metrics.Registry {
	if ctx.Tx == nil || ctx.Tx.DB() == nil {
		return nil
	}
	return ctx.Tx.DB().Metrics()
}

// statementKind labels a statement and names its latency histogram.
func statementKind(st *Statement) (kind, histogram string) {
	switch {
	case st.Explain != nil && st.Explain.Profile:
		return "profile", "query.profile_ns"
	case st.Explain != nil:
		return "explain", "query.explain_ns"
	case st.Update != nil:
		return "update", "query.update_ns"
	case st.DDL != nil:
		return "ddl", "query.ddl_ns"
	default:
		return "query", "query.query_ns"
	}
}

// ExecuteStatement runs an already-parsed statement (benchmarks reuse
// parsed trees to isolate execution cost) and publishes the statement's
// latency and profile into the database's metrics registry.
func ExecuteStatement(ctx *ExecCtx, st *Statement) (*Result, error) {
	owned := ctx.trace == nil
	if owned {
		ctx.StartTrace(st.Source)
	}
	kind, histogram := statementKind(st)
	ctx.Profile.Kind = kind
	ctx.Profile.OptimizeNs = 0
	ctx.Profile.ExecNs = 0
	ctx.Profile.PagesTouched = 0
	ctx.Profile.NodesYielded = 0
	pagesBefore := ctx.Tx.PagesTouched()
	start := time.Now()
	res, err := executeStatement(ctx, st)
	ctx.Profile.PagesTouched = ctx.Tx.PagesTouched() - pagesBefore
	if res != nil {
		if len(res.Items) > 0 {
			ctx.Profile.NodesYielded = len(res.Items)
		} else {
			ctx.Profile.NodesYielded = res.Updated
		}
	}
	if reg := ctx.registry(); reg != nil {
		if err != nil {
			reg.Counter("query.errors").Inc()
		} else {
			reg.Counter("query.statements").Inc()
			reg.Histogram(histogram).Observe(time.Since(start))
			reg.RecordProfile(ctx.Profile)
		}
	}
	if owned {
		ctx.FinishTrace()
	}
	return res, err
}

// reader returns the statement's storage reader: its held views over a
// snapshot, the transaction itself in an update transaction.
func (ctx *ExecCtx) reader() storage.Reader {
	switch {
	case ctx.Tx == nil:
		return nil
	case !ctx.Tx.ReadOnly():
		return ctx.Tx.Tx
	}
	ctx.views.tx = ctx.Tx.Tx
	return &ctx.views
}

func executeStatement(ctx *ExecCtx, st *Statement) (*Result, error) {
	// A statement killed before it started must not run at all.
	if err := ctx.checkKilled(); err != nil {
		return nil, err
	}
	if st.Explain != nil {
		if st.Explain.Profile {
			return execProfile(ctx, st.Explain.Stmt)
		}
		return execExplain(ctx, st.Explain.Stmt)
	}
	ctx.updateStmt = st.Update != nil
	optStart := time.Now()
	if err := prepare(ctx, st); err != nil {
		return nil, err
	}
	ctx.Profile.OptimizeNs = time.Since(optStart).Nanoseconds()
	execStart := time.Now()
	esp := ctx.pushSpan("execute")
	defer func() {
		ctx.Profile.ExecNs = time.Since(execStart).Nanoseconds()
		ctx.popSpan(esp)
	}()
	ctx.funcs = st.Prolog.Funcs
	defer ctx.release()
	e := &env{ctx: ctx, r: ctx.reader()}
	// Prolog variables bind in order.
	for _, v := range st.Prolog.Vars {
		val, err := eval(v.Seq, e, nil)
		if err != nil {
			return nil, err
		}
		e = e.bind(v.Var, val)
	}
	ctx.globalEnv = e

	switch {
	case st.Query != nil:
		items, err := eval(st.Query, e, nil)
		if err != nil {
			return nil, err
		}
		return &Result{Items: items, ctx: ctx}, nil
	case st.Update != nil:
		n, err := execUpdate(st.Update, e)
		if err != nil {
			return nil, err
		}
		return &Result{Updated: n, Message: fmt.Sprintf("update: %d node(s)", n), ctx: ctx}, nil
	case st.DDL != nil:
		msg, err := execDDL(st.DDL, e)
		if err != nil {
			return nil, err
		}
		return &Result{Message: msg, ctx: ctx}, nil
	default:
		return nil, fmt.Errorf("query: empty statement")
	}
}

// prepare runs the phases before execution: static analysis, the optimizing
// rewriter and the cost-based optimizer, minus what the context switches off.
// Analysis and rewriting run once per tree; the optimizer and the in-place
// marks depend on the database and run on every execution.
func prepare(ctx *ExecCtx, st *Statement) error {
	if !st.analyzed {
		asp := ctx.pushSpan("analyze")
		err := Analyze(st)
		ctx.popSpan(asp)
		if err != nil {
			return err
		}
		st.analyzed = true
	}
	if !ctx.NoRewrite && !st.rewritten {
		rsp := ctx.pushSpan("rewrite")
		Rewrite(st)
		ctx.popSpan(rsp)
		st.rewritten = true
	}
	var err error
	if ctx.NoOpt || ctx.NoRewrite {
		clearPlans(st)
	} else {
		osp := ctx.pushSpan("optimize")
		err = optimizeStatement(ctx, st)
		ctx.popSpan(osp)
	}
	markInPlace(st, !ctx.NoRewrite)
	ctx.paths = ctx.paths[:0]
	clear(ctx.indexOns)
	ctx.indexOns = ctx.indexOns[:0]
	if ctx.NoVirtualCtors {
		clearVirtualFlags(st)
	}
	return err
}

// execExplain analyzes and rewrites the inner statement without executing
// it and yields the annotated operation tree as a single string item.
func execExplain(ctx *ExecCtx, inner *Statement) (*Result, error) {
	if err := prepare(ctx, inner); err != nil {
		return nil, err
	}
	return &Result{Items: []Item{str(ExplainText(inner))}, ctx: ctx}, nil
}

// execProfile executes the inner statement under a forced trace — stashing
// any ambient trace so the PROFILE always yields its own complete span tree
// — and renders the trace as a single string item.
func execProfile(ctx *ExecCtx, inner *Statement) (*Result, error) {
	if ctx.tracer == nil {
		// No database tracer wired (bare contexts in tests/tools): a
		// private tracer still renders the span tree.
		ctx.tracer = trace.New(ctx.registry())
	}
	prevTrace, prevSpan := ctx.trace, ctx.span
	ctx.trace, ctx.span = nil, nil
	tr := ctx.tracer.StartForced(inner.Source)
	ctx.adoptTrace(tr)
	res, err := executeStatement(ctx, inner)
	// Close out the forced trace and restore the ambient one (if any).
	if ctx.Tx != nil {
		ctx.Tx.SetTraceSpan(prevSpan)
		var prevRoot *trace.Span
		if prevTrace != nil {
			prevRoot = prevTrace.Root
		}
		ctx.tracer.SetActive(ctx.Tx.ID(), prevRoot)
	}
	ctx.tracer.Finish(tr)
	ctx.trace, ctx.span = prevTrace, prevSpan
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	sb.WriteString(tr.Text())
	if res != nil {
		fmt.Fprintf(&sb, "  result: %d item(s), %d updated\n", len(res.Items), res.Updated)
	}
	return &Result{Items: []Item{str(sb.String())}, ctx: ctx}, nil
}

// Serialize writes the result sequence to w: nodes as XML, atomic values as
// their lexical forms, items separated by single spaces (adjacent atomics)
// or nothing (nodes).
func (r *Result) Serialize(w io.Writer) error {
	defer r.ctx.release()
	e := &env{ctx: r.ctx, r: r.ctx.reader()}
	prevAtomic := false
	for _, it := range r.Items {
		switch x := it.(type) {
		case *Atomic:
			if prevAtomic {
				if _, err := io.WriteString(w, " "); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, x.StringValue()); err != nil {
				return err
			}
			prevAtomic = true
		case *NodeItem:
			if err := serializeStored(e, x, w); err != nil {
				return err
			}
			prevAtomic = false
		case *TempItem:
			if err := serializeTemp(e, x.N, w); err != nil {
				return err
			}
			prevAtomic = false
		}
	}
	return nil
}

// String serializes the result to a string.
func (r *Result) String() (string, error) {
	var sb strings.Builder
	if err := r.Serialize(&sb); err != nil {
		return "", err
	}
	if r.Message != "" && len(r.Items) == 0 {
		return r.Message, nil
	}
	return sb.String(), nil
}
