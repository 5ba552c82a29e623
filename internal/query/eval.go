package query

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"sedna/internal/lock"
	"sedna/internal/metrics"
	"sedna/internal/schema"
	"sedna/internal/storage"
	"sedna/internal/trace"
)

// ExecStats counts executor events; the E5/E8/E9 experiments read them. It
// lives in the metrics package (embedded in QueryProfile) so each event is
// accounted once; the alias keeps the query-level name.
type ExecStats = metrics.ExecStats

// env is the dynamic evaluation context: storage access plus variable
// bindings (an immutable chain so extension is O(1)).
type env struct {
	ctx  *ExecCtx
	r    storage.Reader
	vars *binding
}

type binding struct {
	name string
	val  []Item
	next *binding
}

// on returns e for a worker fork of the statement: same bindings, the fork's
// context and the fork's own reader.
func (e *env) on(wctx *ExecCtx) *env {
	we := *e
	we.ctx, we.r = wctx, wctx.reader()
	return &we
}

func (e *env) bind(name string, val []Item) *env {
	ne := *e
	ne.vars = &binding{name: name, val: val, next: e.vars}
	return &ne
}

func (e *env) lookup(name string) ([]Item, bool) {
	for b := e.vars; b != nil; b = b.next {
		if b.name == name {
			return b.val, true
		}
	}
	return nil, false
}

// focus is the context item, position and size for predicate and path
// evaluation.
type focus struct {
	item Item
	pos  int
	size int
}

// eval evaluates an expression to an item sequence. Sequences are
// materialized between expressions; inside a path expression stored nodes
// flow in batches (slab.go): a step's producers — cursors over page runs —
// fill fixed-capacity batches of slab entries, the step's collector filters
// each batch in place, and only the survivors stay allocated, as entries of
// the statement's slab, never as heap objects.
// Consumers that need no sequence — count(), exists(), an effective boolean
// value, atomization — run the same producers through a collector that
// counts or reads text and keeps nothing.
func eval(x Expr, e *env, f *focus) ([]Item, error) {
	switch n := x.(type) {
	case *Literal:
		return n.val, nil

	case *VarRef:
		v, ok := e.lookup(n.Name)
		if !ok {
			return nil, fmt.Errorf("query: undefined variable $%s", n.Name)
		}
		return v, nil

	case *ContextItem:
		if f == nil || f.item == nil {
			return nil, fmt.Errorf("query: no context item")
		}
		return []Item{f.item}, nil

	case *Root:
		if f == nil || f.item == nil {
			return nil, fmt.Errorf("query: '/' requires a context node")
		}
		ni, ok := f.item.(*NodeItem)
		if !ok {
			return nil, fmt.Errorf("query: '/' requires a stored context node")
		}
		root, err := e.byHandle(ni.Doc, ni.Doc.RootHandle)
		if err != nil {
			return nil, err
		}
		return []Item{root}, nil

	case *DocCall:
		return evalDoc(e, n.Name)

	case *Step:
		return evalStep(n, e, f)

	case *Filter:
		in, err := eval(n.Input, e, f)
		if err != nil {
			return nil, err
		}
		return applyPredicates(in, n.Preds, e)

	case *Sequence:
		var out []Item
		for _, it := range n.Items {
			v, err := eval(it, e, f)
			if err != nil {
				return nil, err
			}
			out = append(out, v...)
		}
		return out, nil

	case *Binary:
		return evalBinary(n, e, f)

	case *Unary:
		v, err := eval(n.X, e, f)
		if err != nil {
			return nil, err
		}
		a, err := singletonNumber(e, v)
		if err != nil {
			return nil, err
		}
		if a == nil {
			return nil, nil
		}
		return []Item{num(-a.NumberValue())}, nil

	case *IfExpr:
		b, err := evalEBV(n.Cond, e, f)
		if err != nil {
			return nil, err
		}
		if b {
			return eval(n.Then, e, f)
		}
		return eval(n.Else, e, f)

	case *Quantified:
		seq, err := eval(n.Seq, e, f)
		if err != nil {
			return nil, err
		}
		for _, it := range seq {
			v, err := eval(n.Pred, e.bind(n.Var, []Item{it}), f)
			if err != nil {
				return nil, err
			}
			b, err := ebv(v)
			if err != nil {
				return nil, err
			}
			if n.Every != b {
				return boolSeq(b), nil
			}
		}
		return boolSeq(n.Every), nil

	case *FLWOR:
		return evalFLWOR(n, e, f)

	case *FuncCall:
		return evalFuncCall(n, e, f)

	case *ElementCtor:
		t, err := evalElementCtor(n, e, f)
		if err != nil {
			return nil, err
		}
		return []Item{&TempItem{N: t}}, nil

	case *TextCtor:
		return evalTextCtor(schema.KindText, n.Content, e, f)

	case *CommentCtor:
		return evalTextCtor(schema.KindComment, n.Content, e, f)

	default:
		return nil, fmt.Errorf("query: cannot evaluate %T", x)
	}
}

// evalTextCtor constructs a text or comment node from the atomized content.
func evalTextCtor(kind schema.NodeKind, content Expr, e *env, f *focus) ([]Item, error) {
	v, err := eval(content, e, f)
	if err != nil {
		return nil, err
	}
	s, err := atomizedString(e, v, " ")
	if err != nil {
		return nil, err
	}
	t := e.ctx.newTempNode(kind, "")
	t.Text = s
	return []Item{&TempItem{N: t}}, nil
}

// lockDocForRead takes the document lock a statement's reads need: none in a
// read-only transaction (it reads its snapshot, §6.3), shared in an update
// transaction — and exclusive from the start for an update statement, whose
// target selection would otherwise hold a shared lock that its later upgrade
// deadlocks on against a concurrent updater.
func (ctx *ExecCtx) lockDocForRead(name string) error {
	if ctx.Tx.ReadOnly() {
		return nil
	}
	mode := lock.Shared
	if ctx.updateStmt {
		mode = lock.Exclusive
	}
	return ctx.Tx.LockDocument(name, mode)
}

// evalDoc resolves doc("name"): it locks the document (lockDocForRead) and
// returns the document node.
func evalDoc(e *env, name string) ([]Item, error) {
	doc, err := e.ctx.Tx.Document(name)
	if err != nil {
		return nil, err
	}
	if err := e.ctx.lockDocForRead(name); err != nil {
		return nil, err
	}
	root, err := e.byHandle(doc, doc.RootHandle)
	if err != nil {
		return nil, err
	}
	return []Item{root}, nil
}

// evalStep evaluates a location step to its node sequence.
func evalStep(s *Step, e *env, f *focus) ([]Item, error) {
	k := collector{e: e}
	err := evalStepTo(s, e, f, &k)
	return k.out, err
}

// stepCount evaluates x, when it is a step whose result needs no
// document-order pass, only for how many nodes it yields (up to limit; 0: all
// of them) — nothing is collected. ok=false: x is not such a step.
func stepCount(x Expr, e *env, f *focus, limit int) (n int, ok bool, err error) {
	s, isStep := x.(*Step)
	if !isStep || s.NeedDDO {
		return 0, false, nil
	}
	k := collector{e: e, discard: true, limit: limit}
	err = evalStepTo(s, e, f, &k)
	return k.n, true, err
}

// evalEBV evaluates x to its effective boolean value; a path is only probed
// for its first node.
func evalEBV(x Expr, e *env, f *focus) (bool, error) {
	m := e.ctx.nodes.mark()
	defer e.ctx.nodes.release(m)
	if n, ok, err := stepCount(x, e, f, 1); ok {
		return n > 0, err
	}
	v, err := eval(x, e, f)
	if err != nil {
		return false, err
	}
	return ebv(v)
}

// evalStepTo is the physical location-step operator: for every context node
// the axis produces matches in document order, predicates filter per context,
// and a final DDO pass runs only when the rewriter could not prove it
// redundant. What passes goes to k. When a trace is open it wraps the
// evaluation in a span reporting nodes yielded and pages touched (including
// nested input steps); the disabled path costs one nil check.
func evalStepTo(s *Step, e *env, f *focus, k *collector) error {
	var sp *trace.Span
	var pages0 uint64
	if e.ctx.span != nil {
		sp = e.ctx.pushSpan("step " + stepText(s))
		if e.ctx.Tx != nil {
			pages0 = e.ctx.Tx.PagesTouched()
		}
	}
	err := evalStepInner(s, e, f, k)
	if err == nil && s.Plan != nil {
		// Estimated vs actual rows: the misestimate is visible per step in
		// PROFILE and aggregated in the opt.est_error_pct histogram.
		recordEstimate(e.ctx, s.Plan.EstRows, k.n)
	}
	if sp == nil {
		return err
	}
	sp.SetInt("nodes", int64(k.n))
	if e.ctx.Tx != nil {
		sp.SetInt("pages", int64(e.ctx.Tx.PagesTouched()-pages0))
	}
	if s.Structural {
		sp.SetStr("mode", "structural")
	}
	if s.Plan != nil {
		sp.SetInt("est_rows", int64(s.Plan.EstRows+0.5))
	}
	e.ctx.popSpan(sp)
	return err
}

func evalStepInner(s *Step, e *env, f *focus, k *collector) error {
	if s.Plan != nil && s.Plan.Probe != nil {
		if out, handled, err := evalIndexProbe(s, e); err != nil || handled {
			k.items(out)
			return err
		}
		// Index or document vanished since planning: fall through to the
		// ordinary evaluation paths.
	}
	if s.Structural {
		if err := evalStructural(s, e, k); err != errStop {
			return err
		}
		return nil
	}
	var one [1]Item
	input := one[:]
	if s.Input == nil {
		if f == nil || f.item == nil {
			return fmt.Errorf("query: step without context")
		}
		one[0] = f.item
	} else {
		var err error
		if input, err = eval(s.Input, e, f); err != nil {
			return err
		}
	}
	// Predicates run on each batch as it is produced, with running
	// positions; one that asks for last() needs the whole context first.
	if !s.wholeContext {
		k.preds = s.Preds
	}
	for _, it := range input {
		// Axis-step boundary: one killed check per context node.
		if err := e.ctx.checkKilled(); err != nil {
			return err
		}
		var local []Item // candidates that had to be materialized
		var err error
		switch n := it.(type) {
		case *NodeItem:
			if s.wholeContext {
				all := collector{e: e}
				err = axisStored(e, n, s.Axis, s.Test, &all)
				local = all.out
			} else {
				k.pos = [streamPreds]int{} // positions restart with the context node
				err = axisStored(e, n, s.Axis, s.Test, k)
			}
		case *TempItem:
			local, err = axisTemp(e, n.N, s.Axis, s.Test, nil)
		default:
			return fmt.Errorf("query: path step over an atomic value")
		}
		if err == nil && len(local) > 0 {
			local, err = applyPredicates(local, s.Preds, e)
			k.items(local)
		}
		if err != nil && err != errStop {
			return err
		}
		if k.full() {
			break
		}
	}
	k.preds = nil
	if s.NeedDDO && len(k.out) > 1 {
		e.ctx.stats().AddDDOOps(1)
		var err error
		k.out, err = ddo(k.out)
		k.n = len(k.out)
		return err
	}
	return nil
}

// usesLast reports whether a predicate may call last(), which only the whole
// context's size can answer.
func usesLast(preds []Expr) bool {
	found := false
	for _, p := range preds {
		walkExpr(p, func(x Expr) {
			if fc, ok := x.(*FuncCall); ok && strings.TrimPrefix(fc.Name, "fn:") == "last" {
				found = true
			}
		})
	}
	return found
}

// predHolds evaluates predicate p for one candidate with XPath predicate
// semantics: a numeric value selects by position, anything else by effective
// boolean value, with position() and last() available through the focus. A
// numeric literal is not evaluated at all. The nodes the predicate reads are
// returned to the slab before the next candidate.
func predHolds(p Expr, e *env, it Item, pos, size int) (bool, error) {
	if lit, ok := p.(*Literal); ok && !lit.IsString {
		return float64(pos) == lit.Number, nil
	}
	if err := e.ctx.checkKilled(); err != nil {
		return false, err
	}
	pf := focus{item: it, pos: pos, size: size}
	if _, isStep := p.(*Step); isStep {
		return evalEBV(p, e, &pf)
	}
	m := e.ctx.nodes.mark()
	defer e.ctx.nodes.release(m)
	v, err := eval(p, e, &pf)
	if err != nil {
		return false, err
	}
	if len(v) == 1 {
		if a, ok := v[0].(*Atomic); ok && a.Kind == AtomNumber {
			return float64(pos) == a.F, nil
		}
	}
	return ebv(v)
}

// applyPredicates filters a materialized sequence through the predicates.
func applyPredicates(items []Item, preds []Expr, e *env) ([]Item, error) {
	for _, p := range preds {
		var kept []Item
		for i, it := range items {
			keep, err := predHolds(p, e, it, i+1, len(items))
			if err != nil {
				return nil, err
			}
			if keep {
				kept = append(kept, it)
			}
		}
		items = kept
	}
	return items, nil
}

// flworTuple is one tuple of the FLWOR tuple stream: the return items plus
// the order-by keys evaluated in the tuple's scope.
type flworTuple struct {
	items []Item
	keys  []*Atomic
}

// evalFLWOR evaluates for/let/where/order-by/return with nested-loop
// semantics; lazy clauses (§5.1.3) evaluate their binding sequence once and
// reuse it across outer iterations. When the first clause is a for-clause
// whose body is safe for concurrent evaluation, the bindings fan out over
// the statement's worker pool (parallelFLWOR) with an order-preserving
// gather; the nested loop below remains the serial path and the semantic
// reference.
func evalFLWOR(fl *FLWOR, e *env, outer *focus) ([]Item, error) {
	var results []flworTuple
	// The closure below may run on worker goroutines: it gets a copy of the
	// focus, so that a caller's focus can stay on its stack.
	var f *focus
	if outer != nil {
		c := *outer
		f = &c
	}

	var run func(i int, e *env, sink *[]flworTuple) error
	var iter func(i int, e *env, it Item, pos int, sink *[]flworTuple) error
	run = func(i int, e *env, sink *[]flworTuple) error {
		if i == len(fl.Clauses) {
			if fl.Where != nil {
				if b, err := evalEBV(fl.Where, e, f); err != nil || !b {
					return err
				}
			}
			var keys []*Atomic
			for _, spec := range fl.OrderBy {
				v, err := eval(spec.Key, e, f)
				if err != nil {
					return err
				}
				var a *Atomic
				if len(v) > 0 {
					a, err = atomize(e, v[0])
					if err != nil {
						return err
					}
				}
				keys = append(keys, a)
			}
			v, err := eval(fl.Return, e, f)
			if err != nil {
				return err
			}
			*sink = append(*sink, flworTuple{items: v, keys: keys})
			return nil
		}
		cl := fl.Clauses[i]
		seq, err := evalClauseSeq(cl, e, f)
		if err != nil {
			return err
		}
		if cl.Let {
			return run(i+1, e.bind(cl.Var, seq), sink)
		}
		for pos, it := range seq {
			// FLWOR iteration boundary: a KILL lands here even when each
			// individual binding is cheap (wide cross joins).
			if err := e.ctx.checkKilled(); err != nil {
				return err
			}
			if err := iter(i, e, it, pos, sink); err != nil {
				return err
			}
		}
		return nil
	}
	// iter binds one item of clause i's sequence and runs what follows.
	iter = func(i int, e *env, it Item, pos int, sink *[]flworTuple) error {
		ne := e.bind(fl.Clauses[i].Var, []Item{it})
		if pv := fl.Clauses[i].PosVar; pv != "" {
			ne = ne.bind(pv, []Item{num(float64(pos + 1))})
		}
		return run(i+1, ne, sink)
	}
	handled, err := parallelFLWOR(fl, e, f, iter, &results)
	if err != nil {
		return nil, err
	}
	if !handled {
		if err := run(0, e, &results); err != nil {
			return nil, err
		}
	}

	if len(fl.OrderBy) > 0 {
		specs := fl.OrderBy
		sort.SliceStable(results, func(a, b int) bool {
			for k := range specs {
				ka, kb := results[a].keys[k], results[b].keys[k]
				c := compareKeys(ka, kb)
				if c == 0 {
					continue
				}
				if specs[k].Descending {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	var out []Item
	for _, r := range results {
		out = append(out, r.items...)
	}
	return out, nil
}

// evalClauseSeq evaluates a for/let binding sequence, honouring the lazy
// flag by caching the first evaluation (§5.1.3).
func evalClauseSeq(cl *ForClause, e *env, f *focus) ([]Item, error) {
	if cl.Lazy {
		if v, ok := e.ctx.lazyLookup(cl.CacheID); ok {
			e.ctx.stats().AddLazyHits(1)
			return v, nil
		}
	}
	v, err := eval(cl.Seq, e, f)
	if err != nil {
		return nil, err
	}
	if cl.Lazy {
		e.ctx.lazyStore(cl.CacheID, v)
	}
	return v, nil
}

// compareKeys orders two order-by keys; empty sequence sorts first.
func compareKeys(a, b *Atomic) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	if a.Kind == AtomNumber || b.Kind == AtomNumber {
		av, bv := a.NumberValue(), b.NumberValue()
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		default:
			return 0
		}
	}
	as, bs := a.StringValue(), b.StringValue()
	switch {
	case as < bs:
		return -1
	case as > bs:
		return 1
	default:
		return 0
	}
}

func evalBinary(n *Binary, e *env, f *focus) ([]Item, error) {
	switch n.Op {
	case OpOr, OpAnd:
		b, err := evalEBV(n.Left, e, f)
		if err == nil && b == (n.Op == OpAnd) {
			b, err = evalEBV(n.Right, e, f)
		}
		return boolSeq(b), err

	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		// General comparison: existential over atomized operands. The
		// operands' nodes are only read for their values.
		m := e.ctx.nodes.mark()
		defer e.ctx.nodes.release(m)
		l, err := eval(n.Left, e, f)
		if err != nil {
			return nil, err
		}
		r, err := eval(n.Right, e, f)
		if err != nil {
			return nil, err
		}
		var la, ra Atomic
		for _, li := range l {
			if err := atomizeTo(e, li, &la); err != nil {
				return nil, err
			}
			for _, ri := range r {
				if err := atomizeTo(e, ri, &ra); err != nil {
					return nil, err
				}
				ok, err := compareAtomic(n.Op, &la, &ra)
				if err != nil {
					return nil, err
				}
				if ok {
					return trueSeq, nil
				}
			}
		}
		return falseSeq, nil

	case OpVEq, OpVNe, OpVLt, OpVLe, OpVGt, OpVGe:
		l, err := evalSingleAtomic(n.Left, e, f)
		if err != nil {
			return nil, err
		}
		r, err := evalSingleAtomic(n.Right, e, f)
		if err != nil {
			return nil, err
		}
		if l == nil || r == nil {
			return nil, nil // empty sequence propagates
		}
		ok, err := compareAtomic(n.Op, l, r)
		return boolSeq(ok), err

	case OpIs, OpBefore, OpAfter:
		l, err := eval(n.Left, e, f)
		if err != nil {
			return nil, err
		}
		r, err := eval(n.Right, e, f)
		if err != nil {
			return nil, err
		}
		if len(l) == 0 || len(r) == 0 {
			return nil, nil
		}
		if len(l) != 1 || len(r) != 1 {
			return nil, fmt.Errorf("query: node comparison requires single nodes")
		}
		switch n.Op {
		case OpIs:
			return boolSeq(sameNode(l[0], r[0])), nil
		case OpBefore:
			return boolSeq(docOrderLess(l[0], r[0])), nil
		default:
			return boolSeq(docOrderLess(r[0], l[0])), nil
		}

	case OpAdd, OpSub, OpMul, OpDiv, OpIDiv, OpMod:
		l, err := eval(n.Left, e, f)
		if err != nil {
			return nil, err
		}
		r, err := eval(n.Right, e, f)
		if err != nil {
			return nil, err
		}
		la, err := singletonNumber(e, l)
		if err != nil {
			return nil, err
		}
		ra, err := singletonNumber(e, r)
		if err != nil {
			return nil, err
		}
		if la == nil || ra == nil {
			return nil, nil
		}
		a, b := la.NumberValue(), ra.NumberValue()
		var v float64
		switch n.Op {
		case OpAdd:
			v = a + b
		case OpSub:
			v = a - b
		case OpMul:
			v = a * b
		case OpDiv:
			v = a / b
		case OpIDiv:
			if b == 0 {
				return nil, fmt.Errorf("query: integer division by zero")
			}
			v = math.Trunc(a / b)
		case OpMod:
			v = math.Mod(a, b)
		}
		return []Item{num(v)}, nil

	case OpTo:
		la, err := evalSingleAtomic(n.Left, e, f)
		if err != nil {
			return nil, err
		}
		ra, err := evalSingleAtomic(n.Right, e, f)
		if err != nil {
			return nil, err
		}
		if la == nil || ra == nil {
			return nil, nil
		}
		lo, hi := int(la.NumberValue()), int(ra.NumberValue())
		if hi < lo {
			return nil, nil
		}
		if hi-lo > 10_000_000 {
			return nil, fmt.Errorf("query: range %d to %d too large", lo, hi)
		}
		out := make([]Item, 0, hi-lo+1)
		for i := lo; i <= hi; i++ {
			out = append(out, num(float64(i)))
		}
		return out, nil

	case OpUnion, OpIntersect, OpExcept:
		l, err := eval(n.Left, e, f)
		if err != nil {
			return nil, err
		}
		r, err := eval(n.Right, e, f)
		if err != nil {
			return nil, err
		}
		e.ctx.stats().AddDDOOps(1)
		if n.Op == OpUnion {
			return ddo(append(append([]Item{}, l...), r...))
		}
		// intersect keeps the left nodes found on the right, except the rest.
		keys := make(map[any]bool)
		for _, it := range r {
			if k, ok := identityKey(it); ok {
				keys[k] = true
			}
		}
		var out []Item
		for _, it := range l {
			if k, ok := identityKey(it); ok && keys[k] == (n.Op == OpIntersect) || !ok && n.Op == OpExcept {
				out = append(out, it)
			}
		}
		return ddo(out)
	default:
		return nil, fmt.Errorf("query: unknown operator %d", n.Op)
	}
}

func evalSingleAtomic(x Expr, e *env, f *focus) (*Atomic, error) {
	v, err := eval(x, e, f)
	if err != nil {
		return nil, err
	}
	if len(v) == 0 {
		return nil, nil
	}
	if len(v) > 1 {
		return nil, fmt.Errorf("query: expected a single value, got %d", len(v))
	}
	return atomize(e, v[0])
}

func singletonNumber(e *env, v []Item) (*Atomic, error) {
	if len(v) == 0 {
		return nil, nil
	}
	if len(v) > 1 {
		return nil, fmt.Errorf("query: arithmetic over a sequence of %d items", len(v))
	}
	return atomize(e, v[0])
}
