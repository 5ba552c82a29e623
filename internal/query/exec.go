package query

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sedna/internal/core"
	"sedna/internal/metrics"
	"sedna/internal/storage"
	"sedna/internal/trace"
)

// ExecCtx carries everything one statement execution needs: the engine
// transaction, the function table, rewriter switches (used by the ablation
// experiments) and runtime statistics.
type ExecCtx struct {
	Tx *core.Tx

	// Profile records how the last statement executed through this context
	// spent its time and what it touched (the embedded ExecStats counters
	// accumulate over the context's lifetime); it is also pushed into the
	// database's metrics registry.
	Profile metrics.QueryProfile

	// NoRewrite disables the optimizing rewriter (baseline for E5–E8).
	NoRewrite bool
	// NoOpt disables the cost-based optimizer: no step plans, no automatic
	// index probes, no costed fan-out (baseline for E23).
	NoOpt bool
	// NoVirtualCtors disables the virtual-constructor optimisation
	// (baseline for E9).
	NoVirtualCtors bool

	// Workers caps intra-query parallelism for statements run through this
	// context: 1 forces serial execution, 0 resolves the database's
	// -query-workers setting (default GOMAXPROCS). Set it before the first
	// statement; the worker pool is built on first use.
	Workers int

	// updateStmt is set while executing an update statement so that
	// document resolution takes exclusive locks up front, avoiding the
	// classic shared→exclusive upgrade deadlock between two updaters.
	updateStmt bool

	funcs     map[string]*FuncDecl
	globalEnv *env // prolog-variable scope, used by function bodies

	// sh is the executor state shared between the root context and its
	// worker forks: the stats block, the lazy-clause cache, the temp-node
	// ordinal counter and the worker pool.
	sh *execShared

	// forked marks a worker's view of the context (see fork). A forked
	// context owns its span cursor but never re-points the transaction's
	// event span — that stays with the coordinator.
	forked bool

	// nodes holds the stored nodes this context (the statement's coordinator,
	// or one worker fork — never shared) produces; scratch holds the merge
	// streams' buffers, freed when their merge ends; textBuf is the reused
	// buffer string values are assembled in. See slab.go.
	nodes, scratch slab
	textBuf        []byte

	// views are the page views this context's worker holds over a snapshot
	// (store.go); released when the worker hands off or the statement ends.
	views heldViews

	// Tracing state: the database's tracer, the open trace (nil when not
	// tracing — the disabled path's single check) and the innermost open
	// span, which storage-layer events attach to via the transaction.
	tracer *trace.Tracer
	trace  *trace.Trace
	span   *trace.Span
}

// execShared is the per-statement executor state a root context shares with
// its worker forks. Everything here is safe for concurrent use: the profile
// counters are accumulated atomically, the lazy cache is mutex-guarded, the
// ordinal counter is atomic, and the pool hands out goroutine tokens.
type execShared struct {
	prof    *metrics.QueryProfile // the root context's Profile
	lazyMu  sync.Mutex
	lazy    map[int][]Item
	tempOrd atomic.Uint64

	// killed is the statement's cancellation token: set (from any
	// goroutine) by Kill, observed by every worker fork at axis-step and
	// FLWOR iteration boundaries via checkKilled.
	killed atomic.Bool

	poolOnce sync.Once
	pool     *workerPool

	// plannedWorkers is the cost-based optimizer's chosen fan-out width for
	// this statement (0 = no decision); pool() consults it when the context
	// has no explicit Workers cap.
	plannedWorkers int
}

// ErrKilled is returned by a statement terminated through ExecCtx.Kill. The
// server maps it to a clean transaction abort.
var ErrKilled = fmt.Errorf("query: statement killed")

// Kill requests cancellation of the statement executing through this context
// (and all its worker forks). Safe to call from any goroutine, at any time,
// including after the statement finished (then a no-op for that statement —
// contexts are not reused across statements by the server).
func (ctx *ExecCtx) Kill() { ctx.shared().killed.Store(true) }

// Killed reports whether Kill has been called.
func (ctx *ExecCtx) Killed() bool { return ctx.shared().killed.Load() }

// checkKilled is the executor's cancellation point: a single atomic load on
// the hot path, returning ErrKilled once Kill has been called. Placed at
// axis-step stream boundaries and FLWOR iteration boundaries so even a
// statement in one long storage scan notices promptly.
func (ctx *ExecCtx) checkKilled() error {
	if ctx.sh != nil && ctx.sh.killed.Load() {
		return ErrKilled
	}
	return nil
}

// NewExecCtx creates an execution context over an engine transaction.
func NewExecCtx(tx *core.Tx) *ExecCtx {
	ctx := &ExecCtx{Tx: tx}
	ctx.sh = &execShared{prof: &ctx.Profile, lazy: make(map[int][]Item)}
	if tx != nil && tx.DB() != nil {
		ctx.tracer = tx.DB().Tracer()
	}
	return ctx
}

// shared returns the context's shared executor state, creating it for bare
// contexts built without NewExecCtx (tests, tools). Must first be called
// from the statement's coordinating goroutine, which every execution path
// does before any fan-out.
func (ctx *ExecCtx) shared() *execShared {
	if ctx.sh == nil {
		ctx.sh = &execShared{prof: &ctx.Profile, lazy: make(map[int][]Item)}
	}
	return ctx.sh
}

// stats returns the ExecStats block executor events accumulate into: always
// the root context's profile, shared by worker forks. Callers increment
// through the atomic Add* methods.
func (ctx *ExecCtx) stats() *metrics.ExecStats {
	return &ctx.shared().prof.ExecStats
}

// lazyLookup consults the shared lazy-clause cache.
func (ctx *ExecCtx) lazyLookup(id int) ([]Item, bool) {
	sh := ctx.shared()
	sh.lazyMu.Lock()
	v, ok := sh.lazy[id]
	sh.lazyMu.Unlock()
	return v, ok
}

// lazyStore records a lazy clause's materialized binding sequence. Racing
// workers may store the same id; either value is correct (both evaluated
// the same expression over the same snapshot), so last-write-wins is fine.
// The sequence outlives whatever bracket it was evaluated in, so the slab
// that holds its nodes is pinned.
func (ctx *ExecCtx) lazyStore(id int, v []Item) {
	ctx.nodes.pin()
	sh := ctx.shared()
	sh.lazyMu.Lock()
	sh.lazy[id] = v
	sh.lazyMu.Unlock()
}

// fork derives a worker's view of the context for one parallel section: it
// shares the transaction, function table, rewriter switches and the shared
// executor state, but owns its span cursor so the worker's spans nest under
// its own "worker N" span.
func (ctx *ExecCtx) fork(span *trace.Span) *ExecCtx {
	return &ExecCtx{
		Tx:             ctx.Tx,
		NoRewrite:      ctx.NoRewrite,
		NoOpt:          ctx.NoOpt,
		NoVirtualCtors: ctx.NoVirtualCtors,
		Workers:        ctx.Workers,
		updateStmt:     ctx.updateStmt,
		funcs:          ctx.funcs,
		globalEnv:      ctx.globalEnv,
		sh:             ctx.shared(),
		forked:         true,
		tracer:         ctx.tracer,
		trace:          ctx.trace,
		span:           span,
	}
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
func (ctx *ExecCtx) RecordParse(ns int64) {
	ctx.Profile.ParseNs = ns
	if ctx.trace != nil {
		ctx.trace.Root.ChildDone("parse", ns)
	}
}

// pushSpan opens a child of the current span and makes it current; returns
// nil (and stays free of side effects) when not tracing. Worker forks keep
// their span cursor private: only the coordinating goroutine re-points the
// transaction's event span.
func (ctx *ExecCtx) pushSpan(name string) *trace.Span {
	c := ctx.span.Child(name)
	if c != nil {
		ctx.span = c
		if ctx.Tx != nil && !ctx.forked {
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
	if ctx.Tx != nil && !ctx.forked {
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

// statementKind labels a statement for the per-kind latency histograms.
func statementKind(st *Statement) string {
	switch {
	case st.Explain != nil && st.Explain.Profile:
		return "profile"
	case st.Explain != nil:
		return "explain"
	case st.Update != nil:
		return "update"
	case st.DDL != nil:
		return "ddl"
	default:
		return "query"
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
	kind := statementKind(st)
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
			reg.Histogram("query." + kind + "_ns").Observe(time.Since(start))
			reg.RecordProfile(ctx.Profile)
		}
	}
	if owned {
		ctx.FinishTrace()
	}
	return res, err
}

// reader returns the storage reader of this context's worker: its held views
// over a snapshot, the transaction itself in an update transaction.
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
	ctx.shared() // materialize shared executor state before any fan-out
	defer ctx.views.release()
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
func prepare(ctx *ExecCtx, st *Statement) error {
	asp := ctx.pushSpan("analyze")
	err := Analyze(st)
	ctx.popSpan(asp)
	if err != nil {
		return err
	}
	if !ctx.NoRewrite {
		rsp := ctx.pushSpan("rewrite")
		Rewrite(st)
		ctx.popSpan(rsp)
	}
	if ctx.NoOpt || ctx.NoRewrite {
		clearPlans(st)
	} else {
		osp := ctx.pushSpan("optimize")
		err = optimizeStatement(ctx, st)
		ctx.popSpan(osp)
	}
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
	defer r.ctx.views.release()
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
