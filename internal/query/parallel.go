package query

// Intra-query parallel execution. The schema-driven execution model (§4.1,
// §5.1) decomposes the two heaviest operators into independent units of
// work: a descendant step is a set of per-schema-node block-list range
// scans, and a FLWOR for-clause is a set of independent binding
// evaluations. Both fan out here over a bounded worker pool, with results
// gathered back into exactly the order serial execution produces — the
// per-stream buffers merge by NID label (what mergeStreams does
// incrementally) and the per-binding tuple sinks concatenate in binding
// order. Every worker reads through the same snapshot transaction; PR 3's
// striped buffer pool and per-frame atomic pins make that concurrent read
// path safe and scalable.
//
// Sections that cannot run concurrently fall back to serial execution and
// count query.fallback_serial: update statements (writes interleave with
// evaluation), expressions that construct nodes (temp-node ordinals — the
// document order of constructed nodes — would become nondeterministic
// across workers, and virtual references expand by mutation), user-defined
// function calls (bodies are not analyzed), and pools of size 1.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sedna/internal/metrics"
	"sedna/internal/schema"
	"sedna/internal/trace"
)

// parallelScanMinNodes gates the per-schema-node scan fan-out: below this
// many candidate descriptors (summed NodeCount of the matched schema nodes)
// goroutine startup outweighs the scan work. A variable so tests can
// exercise the parallel path on small corpora.
var parallelScanMinNodes uint64 = 64

// parallelForMinBindings is the minimum for-clause cardinality worth
// fanning out.
const parallelForMinBindings = 2

// workerPool bounds how many goroutines one statement may add beyond the
// coordinating one. Tokens are taken non-blockingly: a nested parallel
// section that finds the pool drained simply runs serially, so parallelism
// never stacks multiplicatively.
type workerPool struct {
	size   int           // configured worker budget (≥ 1)
	tokens chan struct{} // size-1 extra-goroutine tokens; nil when size == 1
}

func newWorkerPool(size int) *workerPool {
	if size < 1 {
		size = 1
	}
	p := &workerPool{size: size}
	if size > 1 {
		p.tokens = make(chan struct{}, size-1)
		for i := 0; i < size-1; i++ {
			p.tokens <- struct{}{}
		}
	}
	return p
}

// tryAcquire takes up to want extra-goroutine tokens without blocking and
// returns how many it got.
func (p *workerPool) tryAcquire(want int) int {
	got := 0
	for got < want && p.tokens != nil {
		select {
		case <-p.tokens:
			got++
		default:
			return got
		}
	}
	return got
}

func (p *workerPool) release(n int) {
	for i := 0; i < n; i++ {
		p.tokens <- struct{}{}
	}
}

// pool returns the statement's worker pool, building it on first use from
// ctx.Workers (explicit), the database's -query-workers setting, or
// GOMAXPROCS.
func (ctx *ExecCtx) pool() *workerPool {
	sh := ctx.shared()
	sh.poolOnce.Do(func() {
		n := ctx.Workers
		if n <= 0 && sh.plannedWorkers >= 2 {
			// The cost-based optimizer sized the fan-out from estimated rows;
			// the database-wide cap still bounds it.
			n = sh.plannedWorkers
			if ctx.Tx != nil && ctx.Tx.DB() != nil {
				if dbw := ctx.Tx.DB().QueryWorkers(); dbw < n {
					n = dbw
				}
			}
		}
		if n <= 0 && ctx.Tx != nil && ctx.Tx.DB() != nil {
			n = ctx.Tx.DB().QueryWorkers()
		}
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		sh.pool = newWorkerPool(n)
	})
	return sh.pool
}

// noteFallback counts a parallel-eligible section that ran serially
// (update statement, unsafe subtree, size-1 pool, drained pool).
func (ctx *ExecCtx) noteFallback() {
	if reg := ctx.registry(); reg != nil {
		reg.Counter("query.fallback_serial").Inc()
	}
}

// fanOut runs fn(0..n-1) across the statement's worker pool. The calling
// goroutine always works too; extra goroutines join only when pool tokens
// are free, so a drained pool degrades to serial execution on the caller.
// Work items are dispensed from a shared counter (dynamic load balancing),
// every worker runs on its own context fork with a "worker N" trace span
// under the current span, and the current span is annotated with
// parallelism=N. Returns the number of goroutines that worked (1 = serial).
func (ctx *ExecCtx) fanOut(n int, fn func(i int, wctx *ExecCtx) error) (int, error) {
	pool := ctx.pool()
	want := n - 1
	if want > pool.size-1 {
		want = pool.size - 1
	}
	extra := pool.tryAcquire(want)
	if extra == 0 {
		if pool.size > 1 {
			// The statement wanted to go parallel here but the pool is
			// drained by an enclosing section.
			ctx.noteFallback()
		}
		for i := 0; i < n; i++ {
			if err := ctx.checkKilled(); err != nil {
				return 1, err
			}
			if err := fn(i, ctx); err != nil {
				return 1, err
			}
		}
		return 1, nil
	}
	defer pool.release(extra)
	workers := extra + 1

	if reg := ctx.registry(); reg != nil {
		reg.Counter("query.parallel_steps").Inc()
	}
	ctx.span.SetInt("parallelism", int64(workers))
	var busy *metrics.Counter
	if reg := ctx.registry(); reg != nil {
		busy = reg.Counter("query.worker_busy_ns")
	}
	// Worker spans are created by the coordinator so the rendered order is
	// deterministic; each span's duration is its worker's busy wall time.
	spans := make([]*trace.Span, workers)
	if ctx.span != nil {
		for w := range spans {
			spans[w] = ctx.span.Child(fmt.Sprintf("worker %d", w))
		}
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		errMu  sync.Mutex
		first  error
	)
	work := func(w int) {
		wctx := ctx.fork(spans[w])
		defer wctx.views.release()
		start := time.Now()
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				break
			}
			err := wctx.checkKilled()
			if err == nil {
				err = fn(i, wctx)
			}
			if err != nil {
				errMu.Lock()
				if first == nil {
					first = err
				}
				errMu.Unlock()
				failed.Store(true)
				break
			}
		}
		spans[w].End()
		if busy != nil {
			busy.Add(uint64(time.Since(start).Nanoseconds()))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
	return workers, first
}

// parallelStreams evaluates one range scan per target schema node on the
// worker pool, each worker draining its cursor fully into batches of its own
// slab, then merges the label-ordered results into k exactly as the serial
// mergeStreams merges live cursors — so parallel output is byte-identical to
// serial. handled=false means the section did not qualify (fewer than two
// targets, too little work, update statement, parallelism off) and the
// caller should run its serial path.
func parallelStreams(e *env, targets []*schema.Node, anc *NodeItem, ancSN *schema.Node, k *collector) (bool, error) {
	ctx := e.ctx
	if len(targets) < 2 || ctx.updateStmt {
		return false, nil
	}
	var total uint64
	for _, sn := range targets {
		total += sn.NodeCount
	}
	if total < parallelScanMinNodes {
		return false, nil
	}
	if ctx.pool().size < 2 {
		ctx.noteFallback()
		return false, nil
	}
	streams := make([]nodeStream, len(targets))
	ts := append([]*schema.Node(nil), targets...) // the caller's stay on its stack
	if _, err := ctx.fanOut(len(ts), func(i int, wctx *ExecCtx) error {
		we := e.on(wctx)
		c, err := we.descendantScan(ts[i], anc, ancSN)
		for err == nil && !c.done() {
			if err = wctx.checkKilled(); err != nil {
				break
			}
			b, n := wctx.nodes.batch(), 0
			if n, c, err = we.fill(c, b); err == nil {
				wctx.nodes.top += n
				streams[i].chunks = append(streams[i].chunks, b[:n])
			}
		}
		return err
	}); err != nil {
		return true, err
	}
	return true, mergeStreams(e, streams, k)
}

// parallelFLWOR fans the first for-clause's bindings out across the worker
// pool when everything evaluated under it is safe to run concurrently. Each
// binding's tuples gather into a per-binding sink; sinks concatenate in
// binding order, reproducing the serial nested-loop order exactly.
// handled=false → the caller runs the serial nested loop.
func parallelFLWOR(fl *FLWOR, e *env, f *focus, iter func(i int, e *env, it Item, pos int, sink *[]flworTuple) error, results *[]flworTuple) (bool, error) {
	ctx := e.ctx
	if len(fl.Clauses) == 0 || fl.Clauses[0].Let {
		return false, nil
	}
	if ctx.updateStmt || !parallelSafeFLWOR(fl, ctx) || ctx.pool().size < 2 {
		ctx.noteFallback()
		return false, nil
	}
	seq, err := evalClauseSeq(fl.Clauses[0], e, f)
	if err != nil {
		return true, err
	}
	// Too small to fan out is not a fallback — there is nothing to
	// parallelize; a constructed node in scope is: expansion of virtual
	// references mutates shared temp nodes. Either way the clause sequence is
	// already evaluated (re-entering the serial loop would evaluate it
	// twice), so bind over it here.
	unsafe := len(seq) >= parallelForMinBindings && (anyTemp(seq) || envHasTemp(e, f))
	if unsafe {
		ctx.noteFallback()
	}
	if unsafe || len(seq) < parallelForMinBindings {
		for pos, it := range seq {
			if err := ctx.checkKilled(); err != nil {
				return true, err
			}
			if err := iter(0, e, it, pos, results); err != nil {
				return true, err
			}
		}
		return true, nil
	}
	sinks := make([][]flworTuple, len(seq))
	if _, err := ctx.fanOut(len(seq), func(i int, wctx *ExecCtx) error {
		return iter(0, e.on(wctx), seq[i], i, &sinks[i])
	}); err != nil {
		return true, err
	}
	for i := range sinks {
		*results = append(*results, sinks[i]...)
	}
	return true, nil
}

// parallelSafeFLWOR reports whether everything evaluated under the first
// for-clause is safe and deterministic to run concurrently: no node
// construction (temp ordinals — the document order of constructed nodes —
// must stay deterministic, and virtual references expand by mutation), no
// user-defined function calls (bodies are not analyzed), and a conservative
// default of unsafe for any expression form the walk does not know.
func parallelSafeFLWOR(fl *FLWOR, ctx *ExecCtx) bool {
	safe := true
	visit := func(x Expr) {
		switch n := x.(type) {
		case *Literal, *VarRef, *ContextItem, *Root, *DocCall, *Step, *Filter, *Sequence,
			*Binary, *Unary, *IfExpr, *Quantified, *FLWOR:
		case *FuncCall:
			if _, userDefined := ctx.funcs[n.Name]; userDefined {
				safe = false
			}
		default:
			// ElementCtor, TextCtor, CommentCtor and anything added later.
			safe = false
		}
	}
	for _, cl := range fl.Clauses[1:] {
		walkExpr(cl.Seq, visit)
	}
	walkExpr(fl.Where, visit)
	for _, spec := range fl.OrderBy {
		walkExpr(spec.Key, visit)
	}
	walkExpr(fl.Return, visit)
	return safe
}

// anyTemp reports whether the sequence holds a constructed node.
func anyTemp(items []Item) bool {
	for _, it := range items {
		if _, ok := it.(*TempItem); ok {
			return true
		}
	}
	return false
}

// envHasTemp reports whether any reachable binding or the focus holds a
// constructed node. Constructed nodes are excluded from parallel sections:
// virtual references expand (mutate) lazily, and their document order is
// the construction ordinal — both would race or become nondeterministic
// across workers.
func envHasTemp(e *env, f *focus) bool {
	if f != nil && f.item != nil {
		if _, ok := f.item.(*TempItem); ok {
			return true
		}
	}
	for b := e.vars; b != nil; b = b.next {
		if anyTemp(b.val) {
			return true
		}
	}
	return false
}
