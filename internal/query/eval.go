package query

import (
	"fmt"
	"math"
	"sort"

	"sedna/internal/lock"
	"sedna/internal/metrics"
	"sedna/internal/storage"
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

// eval evaluates an expression to a materialized item sequence. The
// executor materializes at expression granularity; the open-next-close
// pipeline of physical steps lives inside path evaluation, where Sedna's
// design concentrates it.
func eval(x Expr, e *env, f *focus) ([]Item, error) {
	switch n := x.(type) {
	case *Literal:
		if n.IsString {
			return []Item{str(n.String)}, nil
		}
		return []Item{num(n.Number)}, nil

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
		root, err := e.storeFor(ni.Doc).root(e, ni.Doc)
		if err != nil {
			return nil, err
		}
		return []Item{&NodeItem{Doc: ni.Doc, D: root}}, nil

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
		c, err := eval(n.Cond, e, f)
		if err != nil {
			return nil, err
		}
		b, err := ebv(c)
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
			if n.Every && !b {
				return []Item{boolean(false)}, nil
			}
			if !n.Every && b {
				return []Item{boolean(true)}, nil
			}
		}
		return []Item{boolean(n.Every)}, nil

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
		v, err := eval(n.Content, e, f)
		if err != nil {
			return nil, err
		}
		s, err := atomizedString(e, v, " ")
		if err != nil {
			return nil, err
		}
		t := e.ctx.newTempNode(kindText(), "")
		t.Text = s
		return []Item{&TempItem{N: t}}, nil

	case *CommentCtor:
		v, err := eval(n.Content, e, f)
		if err != nil {
			return nil, err
		}
		s, err := atomizedString(e, v, " ")
		if err != nil {
			return nil, err
		}
		t := e.ctx.newTempNode(kindComment(), "")
		t.Text = s
		return []Item{&TempItem{N: t}}, nil

	default:
		return nil, fmt.Errorf("query: cannot evaluate %T", x)
	}
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
	root, err := e.storeFor(doc).root(e, doc)
	if err != nil {
		return nil, err
	}
	return []Item{&NodeItem{Doc: doc, D: root}}, nil
}

// evalStep evaluates a location step: for every context node the axis
// produces matches in document order, predicates filter per context, and a
// final DDO pass runs only when the rewriter could not prove it redundant.
// evalStep is the physical location-step operator. When a trace is open it
// wraps the evaluation in a span reporting nodes yielded and pages touched
// (including nested input steps); the disabled path costs one nil check.
func evalStep(s *Step, e *env, f *focus) ([]Item, error) {
	if e.ctx.span == nil {
		out, err := evalStepInner(s, e, f)
		if err == nil && s.Plan != nil {
			recordEstimate(e.ctx, s.Plan.EstRows, len(out))
		}
		return out, err
	}
	sp := e.ctx.pushSpan("step " + stepText(s))
	var pages0 uint64
	if e.ctx.Tx != nil {
		pages0 = e.ctx.Tx.PagesTouched()
	}
	out, err := evalStepInner(s, e, f)
	sp.SetInt("nodes", int64(len(out)))
	if e.ctx.Tx != nil {
		sp.SetInt("pages", int64(e.ctx.Tx.PagesTouched()-pages0))
	}
	if s.Structural {
		sp.SetStr("mode", "structural")
	}
	if s.Plan != nil {
		// Estimated vs actual rows: the misestimate is visible per step in
		// PROFILE and aggregated in the opt.est_error_pct histogram.
		sp.SetInt("est_rows", int64(s.Plan.EstRows+0.5))
		if err == nil {
			recordEstimate(e.ctx, s.Plan.EstRows, len(out))
		}
	}
	e.ctx.annotateStorage(sp, out)
	e.ctx.popSpan(sp)
	return out, err
}

func evalStepInner(s *Step, e *env, f *focus) ([]Item, error) {
	if s.Plan != nil && s.Plan.Probe != nil {
		out, handled, err := evalIndexProbe(s, e)
		if err != nil {
			return nil, err
		}
		if handled {
			return out, nil
		}
		// Index or document vanished since planning: fall through to the
		// ordinary evaluation paths.
	}
	if s.Structural {
		return evalStructural(s, e, f)
	}
	var input []Item
	var err error
	if s.Input == nil {
		if f == nil || f.item == nil {
			return nil, fmt.Errorf("query: step without context")
		}
		input = []Item{f.item}
	} else {
		input, err = eval(s.Input, e, f)
		if err != nil {
			return nil, err
		}
	}
	var out []Item
	for _, it := range input {
		// Axis-step boundary: one killed check per context node.
		if err := e.ctx.checkKilled(); err != nil {
			return nil, err
		}
		var local []Item
		switch n := it.(type) {
		case *NodeItem:
			local, err = axisStored(e, n, s.Axis, s.Test, nil)
			if err != nil {
				return nil, err
			}
		case *TempItem:
			local, err = axisTemp(e, n.N, s.Axis, s.Test, nil)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("query: path step over an atomic value")
		}
		local, err = applyPredicates(local, s.Preds, e)
		if err != nil {
			return nil, err
		}
		out = append(out, local...)
	}
	if s.NeedDDO && len(out) > 1 {
		e.ctx.stats().AddDDOOps(1)
		return ddo(out)
	}
	return out, nil
}

// applyPredicates filters items with XPath predicate semantics: a numeric
// predicate value selects by position, anything else by effective boolean
// value, with position() and last() available through the focus.
func applyPredicates(items []Item, preds []Expr, e *env) ([]Item, error) {
	for _, p := range preds {
		var kept []Item
		n := len(items)
		for i, it := range items {
			if err := e.ctx.checkKilled(); err != nil {
				return nil, err
			}
			pf := &focus{item: it, pos: i + 1, size: n}
			v, err := eval(p, e, pf)
			if err != nil {
				return nil, err
			}
			keep := false
			if len(v) == 1 {
				if a, ok := v[0].(*Atomic); ok && a.Kind == AtomNumber {
					keep = float64(i+1) == a.F
					if keep {
						kept = append(kept, it)
					}
					continue
				}
			}
			keep, err = ebv(v)
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
func evalFLWOR(fl *FLWOR, e *env, f *focus) ([]Item, error) {
	var results []flworTuple

	var run func(i int, e *env, sink *[]flworTuple) error
	run = func(i int, e *env, sink *[]flworTuple) error {
		if i == len(fl.Clauses) {
			if fl.Where != nil {
				v, err := eval(fl.Where, e, f)
				if err != nil {
					return err
				}
				b, err := ebv(v)
				if err != nil {
					return err
				}
				if !b {
					return nil
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
			ne := e.bind(cl.Var, []Item{it})
			if cl.PosVar != "" {
				ne = ne.bind(cl.PosVar, []Item{num(float64(pos + 1))})
			}
			if err := run(i+1, ne, sink); err != nil {
				return err
			}
		}
		return nil
	}
	handled, err := parallelFLWOR(fl, e, f, run, &results)
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
		l, err := eval(n.Left, e, f)
		if err != nil {
			return nil, err
		}
		lb, err := ebv(l)
		if err != nil {
			return nil, err
		}
		if n.Op == OpOr && lb {
			return []Item{boolean(true)}, nil
		}
		if n.Op == OpAnd && !lb {
			return []Item{boolean(false)}, nil
		}
		r, err := eval(n.Right, e, f)
		if err != nil {
			return nil, err
		}
		rb, err := ebv(r)
		if err != nil {
			return nil, err
		}
		return []Item{boolean(rb)}, nil

	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		// General comparison: existential over atomized operands.
		l, err := eval(n.Left, e, f)
		if err != nil {
			return nil, err
		}
		r, err := eval(n.Right, e, f)
		if err != nil {
			return nil, err
		}
		for _, li := range l {
			la, err := atomize(e, li)
			if err != nil {
				return nil, err
			}
			for _, ri := range r {
				ra, err := atomize(e, ri)
				if err != nil {
					return nil, err
				}
				ok, err := compareAtomic(n.Op, la, ra)
				if err != nil {
					return nil, err
				}
				if ok {
					return []Item{boolean(true)}, nil
				}
			}
		}
		return []Item{boolean(false)}, nil

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
		if err != nil {
			return nil, err
		}
		return []Item{boolean(ok)}, nil

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
			return []Item{boolean(sameNode(l[0], r[0]))}, nil
		case OpBefore:
			return []Item{boolean(docOrderLess(l[0], r[0]))}, nil
		default:
			return []Item{boolean(docOrderLess(r[0], l[0]))}, nil
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
		switch n.Op {
		case OpUnion:
			e.ctx.stats().AddDDOOps(1)
			return ddo(append(append([]Item{}, l...), r...))
		case OpIntersect:
			keys := make(map[any]bool)
			for _, it := range r {
				if k, ok := identityKey(it); ok {
					keys[k] = true
				}
			}
			var out []Item
			for _, it := range l {
				if k, ok := identityKey(it); ok && keys[k] {
					out = append(out, it)
				}
			}
			e.ctx.stats().AddDDOOps(1)
			return ddo(out)
		default:
			keys := make(map[any]bool)
			for _, it := range r {
				if k, ok := identityKey(it); ok {
					keys[k] = true
				}
			}
			var out []Item
			for _, it := range l {
				if k, ok := identityKey(it); !ok || !keys[k] {
					out = append(out, it)
				}
			}
			e.ctx.stats().AddDDOOps(1)
			return ddo(out)
		}
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
