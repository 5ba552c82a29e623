package query

// The optimizing rewriter (§5.1): rule-based transformations over the
// operation tree, applied in four passes.
//
//  1. Combining the abbreviated descendant-or-self step with the next step
//     when its predicates are position-independent (§5.1.2).
//  2. Removing unnecessary DDO operations by inferring, for every
//     operation, whether its result is already in distinct document order,
//     has at most one item, or consists of nodes on a common tree level
//     (§5.1.1).
//  3. Marking invariant nested for-clause binding sequences lazy (§5.1.3).
//  4. Extracting structural location-path fragments for schema-level
//     execution (§5.1.4).
//
// A fifth pass marks element constructors whose content is only serialized
// as virtual (§5.2.1).

// Rewrite applies all passes to a statement in place and records which
// rules fired in st.Rewrites (EXPLAIN renders them).
func Rewrite(st *Statement) {
	rw := &rewriter{nextCache: 1}
	exprs := st.exprs()
	for _, fd := range st.Prolog.Funcs {
		fd.Body = rw.rewriteExpr(fd.Body)
	}
	for i, e := range exprs {
		if e != nil {
			*exprs[i] = rw.rewriteExpr(*exprs[i])
			_ = i
		}
	}
	// Virtual-constructor marking: only result-position constructors.
	if st.Query != nil {
		markVirtual(st.Query, true)
	}
	if st.Update != nil && st.Update.Source != nil {
		// Inserted content is materialized into the database anyway; the
		// copy is unavoidable, so no virtual marking.
		markVirtual(st.Update.Source, false)
	}
	if st.Query != nil {
		walkExpr(st.Query, func(x Expr) {
			if c, ok := x.(*ElementCtor); ok && c.Virtual {
				rw.note("virtual-ctor: <" + c.Name + ">")
			}
		})
	}
	st.Rewrites = rw.notes
}

// exprs returns pointers to every top-level expression of the statement.
func (st *Statement) exprs() []*Expr {
	var out []*Expr
	for _, v := range st.Prolog.Vars {
		out = append(out, &v.Seq)
	}
	switch {
	case st.Query != nil:
		out = append(out, &st.Query)
	case st.Update != nil:
		out = append(out, &st.Update.Target)
		if st.Update.Source != nil {
			out = append(out, &st.Update.Source)
		}
	case st.DDL != nil:
		if st.DDL.OnPath != nil {
			out = append(out, &st.DDL.OnPath)
		}
	}
	return out
}

type rewriter struct {
	nextCache int
	// notes records fired rules for EXPLAIN.
	notes []string
	// iterVars tracks enclosing for-iteration variables for the laziness
	// pass.
	iterVars []string
	// singleVars tracks variables known to be bound to single items (for
	// and quantifier bindings), for the DDO property inference.
	singleVars map[string]int
}

func (rw *rewriter) note(s string) { rw.notes = append(rw.notes, s) }

func (rw *rewriter) pushSingle(name string) {
	if rw.singleVars == nil {
		rw.singleVars = make(map[string]int)
	}
	rw.singleVars[name]++
}

func (rw *rewriter) popSingle(name string) {
	rw.singleVars[name]--
	if rw.singleVars[name] <= 0 {
		delete(rw.singleVars, name)
	}
}

// rewriteExpr applies passes 1–4 bottom-up.
func (rw *rewriter) rewriteExpr(x Expr) Expr {
	switch n := x.(type) {
	case *Step:
		if n.Input != nil {
			n.Input = rw.rewriteExpr(n.Input)
		}
		for i := range n.Preds {
			n.Preds[i] = rw.rewriteExpr(n.Preds[i])
		}
		// Pass 1: //-combining. descendant-or-self::node()/child::X →
		// descendant::X when X's predicates are position-independent
		// (//para[1] ≠ /descendant::para[1], the paper's counter-example).
		if in, ok := n.Input.(*Step); ok &&
			in.Axis == AxisDescendantOrSelf && in.Test.Kind == TestNode && len(in.Preds) == 0 &&
			n.Axis == AxisChild && predsPositionFree(n.Preds) {
			n.Axis = AxisDescendant
			n.Input = in.Input
			rw.note("combine-descendant: descendant-or-self::node()/child::" +
				n.Test.Text() + " → descendant::" + n.Test.Text())
		}
		// Pass 2: DDO elimination.
		if n.NeedDDO {
			p := rw.props(n, true)
			if (p.ordered && p.distinct) || p.single {
				n.NeedDDO = false
				rw.note("ddo-removed: " + stepText(n))
			}
		}
		// Pass 4: structural extraction (the last step of a structural
		// chain evaluates over the schema).
		if doc, _ := structuralChain(n, false); doc != nil {
			n.Structural = true
			n.NeedDDO = false
			rw.note("structural-path: " + stepText(n) + " over doc(\"" + doc.Name + "\")")
		}
		return n

	case *Filter:
		n.Input = rw.rewriteExpr(n.Input)
		for i := range n.Preds {
			n.Preds[i] = rw.rewriteExpr(n.Preds[i])
		}
		return n

	case *Sequence:
		for i := range n.Items {
			n.Items[i] = rw.rewriteExpr(n.Items[i])
		}
		return n

	case *Binary:
		n.Left = rw.rewriteExpr(n.Left)
		n.Right = rw.rewriteExpr(n.Right)
		return n

	case *Unary:
		n.X = rw.rewriteExpr(n.X)
		return n

	case *IfExpr:
		n.Cond = rw.rewriteExpr(n.Cond)
		n.Then = rw.rewriteExpr(n.Then)
		n.Else = rw.rewriteExpr(n.Else)
		return n

	case *Quantified:
		n.Seq = rw.rewriteExpr(n.Seq)
		rw.pushSingle(n.Var)
		n.Pred = rw.rewriteExpr(n.Pred)
		rw.popSingle(n.Var)
		return n

	case *FLWOR:
		rw.whereToPredicate(n)
		for _, cl := range n.Clauses {
			cl.Seq = rw.rewriteExpr(cl.Seq)
			// Pass 3: a for-clause binding sequence nested under an outer
			// for-iteration that references no variables at all is
			// invariant: evaluate once, reuse across iterations.
			if !cl.Let && len(rw.iterVars) > 0 && exprIsInvariant(cl.Seq) {
				cl.Lazy = true
				cl.CacheID = rw.nextCache
				rw.nextCache++
				rw.note("lazy-for: $" + cl.Var)
			}
			if !cl.Let {
				rw.iterVars = append(rw.iterVars, cl.Var)
				rw.pushSingle(cl.Var)
				if cl.PosVar != "" {
					rw.pushSingle(cl.PosVar)
				}
			}
		}
		if n.Where != nil {
			n.Where = rw.rewriteExpr(n.Where)
		}
		for i := range n.OrderBy {
			n.OrderBy[i].Key = rw.rewriteExpr(n.OrderBy[i].Key)
		}
		n.Return = rw.rewriteExpr(n.Return)
		// Pop this FLWOR's iteration variables.
		for _, cl := range n.Clauses {
			if !cl.Let {
				rw.iterVars = rw.iterVars[:len(rw.iterVars)-1]
				rw.popSingle(cl.Var)
				if cl.PosVar != "" {
					rw.popSingle(cl.PosVar)
				}
			}
		}
		return rw.forIdentity(n)

	case *FuncCall:
		for i := range n.Args {
			n.Args[i] = rw.rewriteExpr(n.Args[i])
		}
		return n

	case *ElementCtor:
		for _, a := range n.Attrs {
			for i := range a.Value {
				a.Value[i] = rw.rewriteExpr(a.Value[i])
			}
		}
		for i := range n.Content {
			n.Content[i] = rw.rewriteExpr(n.Content[i])
		}
		return n

	case *TextCtor:
		n.Content = rw.rewriteExpr(n.Content)
		return n

	case *CommentCtor:
		n.Content = rw.rewriteExpr(n.Content)
		return n

	default:
		return x
	}
}

// whereToPredicate turns `for $v in P where $v/a/b op L return R`, P a step,
// into `for $v in P[a/b op L] return R` when the where clause alone has the
// in-place shape and starts at the clause's variable: the comparison then
// runs over P's candidates a batch at a time, in the producer, as the step's
// first in-place predicate (collector.pass), instead of after each binding. It
// runs first, so that the passes see the predicate: a step with a predicate
// is not structural. Analyze ran before it, and what it records of a step
// (wholeContext) stays true: the comparison calls no last(), and the rule
// leaves the step within streamPreds predicates.
func (rw *rewriter) whereToPredicate(fl *FLWOR) {
	cmp, ok := fl.Where.(*Binary)
	if !ok || len(fl.Clauses) != 1 || len(fl.OrderBy) > 0 {
		return
	}
	cl := fl.Clauses[0]
	step, ok := cl.Seq.(*Step)
	if !ok || cl.Let || cl.PosVar != "" || len(step.Preds) >= streamPreds {
		return
	}
	if c := inPlaceShape(cmp); c == nil || c.start != cl.Var {
		return
	}
	chain, _ := cmp.Left.(*Step)
	if chain == nil {
		chain = cmp.Right.(*Step)
	}
	for in, ok := chain.Input.(*Step); ok; in, ok = chain.Input.(*Step) {
		chain = in
	}
	chain.Input = nil // $v is now the candidate, the predicate's context item
	step.Preds = append(step.Preds, cmp)
	fl.Where = nil
	rw.note("where-to-predicate: $" + cl.Var)
}

// forIdentity returns the step P for `for $v in P return $v`, the shape a
// where clause moved into P's predicates leaves behind, and fl itself for any
// other FLWOR. A lazy P keeps its loop, which replays the cached sequence.
func (rw *rewriter) forIdentity(fl *FLWOR) Expr {
	if len(fl.Clauses) != 1 || fl.Where != nil || len(fl.OrderBy) > 0 {
		return fl
	}
	cl := fl.Clauses[0]
	step, ok := cl.Seq.(*Step)
	if v, isVar := fl.Return.(*VarRef); !ok || !isVar || v.Name != cl.Var || cl.Let || cl.PosVar != "" || cl.Lazy {
		return fl
	}
	rw.note("for-identity: $" + cl.Var)
	return step
}

// exprIsInvariant reports whether an expression references no variables and
// no context item, so its value cannot change across iterations.
func exprIsInvariant(x Expr) bool {
	fv := make(map[string]bool)
	freeVars(x, map[string]bool{}, fv)
	if len(fv) > 0 {
		return false
	}
	return !usesContext(x)
}

func usesContext(x Expr) bool {
	found := false
	inspect(x, func(e Expr) bool {
		switch n := e.(type) {
		case *ContextItem, *Root:
			found = true
		case *Step:
			// A predicate's context item is the step's candidate.
			found = found || n.Input == nil || usesContext(n.Input)
			return false
		case *Filter:
			found = found || usesContext(n.Input)
			return false
		case *FuncCall:
			if n.Name == "position" || n.Name == "last" {
				found = true
			}
			if len(n.Args) == 0 {
				switch n.Name {
				case "string", "number", "name", "local-name", "string-length",
					"normalize-space", "root", "text", "node-kind":
					found = true // defaults to the context item
				}
			}
		}
		return !found
	})
	return found
}

// predsPositionFree reports whether predicates depend neither explicitly
// nor implicitly on context position or size — the §5.1.2 safety condition
// for combining // with the next step.
func predsPositionFree(preds []Expr) bool {
	for _, p := range preds {
		// A predicate whose value may be numeric acts positionally.
		if mayBeNumeric(p) {
			return false
		}
		posDep := false
		walkExpr(p, func(e Expr) {
			if fc, ok := e.(*FuncCall); ok && (fc.Name == "position" || fc.Name == "last" ||
				fc.Name == "fn:position" || fc.Name == "fn:last") {
				posDep = true
			}
		})
		if posDep {
			return false
		}
	}
	return true
}

// mayBeNumeric conservatively reports whether an expression can evaluate to
// a numeric value (making a predicate positional).
func mayBeNumeric(x Expr) bool {
	switch n := x.(type) {
	case *Literal:
		return !n.IsString
	case *Binary:
		switch n.Op {
		case OpAdd, OpSub, OpMul, OpDiv, OpIDiv, OpMod, OpTo:
			return true
		default:
			return false // comparisons and logic yield booleans
		}
	case *Unary:
		return true
	case *FuncCall:
		switch n.Name {
		case "not", "exists", "empty", "boolean", "contains", "starts-with",
			"ends-with", "true", "false":
			return false
		case "string", "concat", "string-join", "normalize-space", "substring",
			"upper-case", "lower-case", "name", "local-name":
			return false
		default:
			return true // count(), sum(), user functions, …
		}
	case *Step, *Filter, *DocCall, *Root, *ContextItem, *VarRef:
		// Node sequences and variables: variables may hold numbers, so be
		// conservative for VarRef only.
		_, isVar := x.(*VarRef)
		return isVar
	case *Quantified:
		return false
	case *IfExpr:
		return mayBeNumeric(n.Then) || mayBeNumeric(n.Else)
	default:
		return true
	}
}

// walkExpr visits every node of an expression tree.
func walkExpr(x Expr, visit func(Expr)) {
	inspect(x, func(e Expr) bool { visit(e); return true })
}

// inspect visits the nodes of an expression tree in preorder, the children
// of a node only when visit returns true for it.
func inspect(x Expr, visit func(Expr) bool) {
	if x == nil || !visit(x) {
		return
	}
	switch n := x.(type) {
	case *Step:
		inspect(n.Input, visit)
		for _, p := range n.Preds {
			inspect(p, visit)
		}
	case *Filter:
		inspect(n.Input, visit)
		for _, p := range n.Preds {
			inspect(p, visit)
		}
	case *Sequence:
		for _, it := range n.Items {
			inspect(it, visit)
		}
	case *Binary:
		inspect(n.Left, visit)
		inspect(n.Right, visit)
	case *Unary:
		inspect(n.X, visit)
	case *IfExpr:
		inspect(n.Cond, visit)
		inspect(n.Then, visit)
		inspect(n.Else, visit)
	case *Quantified:
		inspect(n.Seq, visit)
		inspect(n.Pred, visit)
	case *FLWOR:
		for _, cl := range n.Clauses {
			inspect(cl.Seq, visit)
		}
		inspect(n.Where, visit)
		for _, o := range n.OrderBy {
			inspect(o.Key, visit)
		}
		inspect(n.Return, visit)
	case *FuncCall:
		for _, a := range n.Args {
			inspect(a, visit)
		}
	case *ElementCtor:
		for _, a := range n.Attrs {
			for _, v := range a.Value {
				inspect(v, visit)
			}
		}
		for _, c := range n.Content {
			inspect(c, visit)
		}
	case *TextCtor:
		inspect(n.Content, visit)
	case *CommentCtor:
		inspect(n.Content, visit)
	}
}

// seqProps are the properties §5.1.1 infers for every operation's result.
type seqProps struct {
	ordered   bool // already in document order
	distinct  bool // no duplicate nodes
	single    bool // at most one item
	sameLevel bool // all nodes on a common level of one XML tree
}

// props infers the result properties of an expression. For a Step,
// beforeDDO selects the properties of the raw axis concatenation (used to
// decide whether the DDO is redundant).
func (rw *rewriter) props(x Expr, beforeDDO bool) seqProps {
	switch n := x.(type) {
	case *DocCall, *Root, *ContextItem:
		return seqProps{ordered: true, distinct: true, single: true, sameLevel: true}
	case *VarRef:
		if rw.singleVars[n.Name] > 0 {
			return seqProps{ordered: true, distinct: true, single: true, sameLevel: true}
		}
		return seqProps{}
	case *Literal:
		return seqProps{ordered: true, distinct: true, single: true}
	case *Filter:
		return rw.props(n.Input, false)
	case *Step:
		var in seqProps
		if n.Input == nil {
			in = seqProps{ordered: true, distinct: true, single: true, sameLevel: true}
		} else {
			in = rw.props(n.Input, false)
		}
		var out seqProps
		switch n.Axis {
		case AxisSelf:
			out = in
		case AxisChild, AxisAttribute:
			if in.ordered && in.distinct && in.sameLevel {
				out = seqProps{ordered: true, distinct: true, sameLevel: true}
			}
			if in.single {
				out.ordered, out.distinct, out.sameLevel = true, true, true
			}
		case AxisDescendant, AxisDescendantOrSelf:
			if in.ordered && in.distinct && in.sameLevel {
				out = seqProps{ordered: true, distinct: true}
			}
			if in.single {
				out.ordered, out.distinct = true, true
			}
		case AxisParent:
			if in.single {
				out = seqProps{ordered: true, distinct: true, single: true, sameLevel: true}
			}
		case AxisFollowingSibling, AxisPrecedingSibling:
			if in.single {
				out = seqProps{ordered: true, distinct: true, sameLevel: true}
			}
		case AxisAncestor, AxisAncestorOrSelf:
			if in.single {
				out = seqProps{ordered: true, distinct: true}
			}
		}
		if !beforeDDO && n.NeedDDO {
			out.ordered, out.distinct = true, true
		}
		return out
	case *Sequence:
		if len(n.Items) == 1 {
			return rw.props(n.Items[0], false)
		}
		return seqProps{}
	case *ElementCtor, *TextCtor, *CommentCtor:
		return seqProps{ordered: true, distinct: true, single: true, sameLevel: true}
	default:
		return seqProps{}
	}
}

// markVirtual implements the §5.2.1 analysis: constructors whose results
// only flow to serialization positions keep references instead of deep
// copies. safe propagates "this expression's value is only serialized".
func markVirtual(x Expr, safe bool) {
	switch n := x.(type) {
	case *ElementCtor:
		n.Virtual = safe
		for _, a := range n.Attrs {
			for _, v := range a.Value {
				markVirtual(v, false) // attribute values are atomized anyway
			}
		}
		for _, c := range n.Content {
			// Content of a serialized constructor is itself only
			// serialized.
			markVirtual(c, safe)
		}
	case *TextCtor:
		markVirtual(n.Content, false)
	case *CommentCtor:
		markVirtual(n.Content, false)
	case *Sequence:
		for _, it := range n.Items {
			markVirtual(it, safe)
		}
	case *IfExpr:
		markVirtual(n.Cond, false)
		markVirtual(n.Then, safe)
		markVirtual(n.Else, safe)
	case *FLWOR:
		for _, cl := range n.Clauses {
			markVirtual(cl.Seq, false)
		}
		markVirtual(n.Where, false)
		for _, o := range n.OrderBy {
			markVirtual(o.Key, false)
		}
		markVirtual(n.Return, safe)
	case *Step:
		markVirtual(n.Input, false)
		for _, p := range n.Preds {
			markVirtual(p, false)
		}
	case *Filter:
		markVirtual(n.Input, false)
		for _, p := range n.Preds {
			markVirtual(p, false)
		}
	case *Binary:
		markVirtual(n.Left, false)
		markVirtual(n.Right, false)
	case *Unary:
		markVirtual(n.X, false)
	case *Quantified:
		markVirtual(n.Seq, false)
		markVirtual(n.Pred, false)
	case *FuncCall:
		for _, a := range n.Args {
			markVirtual(a, false)
		}
	case nil:
	}
}

// clearVirtualFlags forces deep-copy semantics everywhere (the E9
// baseline).
func clearVirtualFlags(st *Statement) {
	clear := func(e Expr) {
		walkExpr(e, func(x Expr) {
			if c, ok := x.(*ElementCtor); ok {
				c.Virtual = false
			}
		})
	}
	for _, fd := range st.Prolog.Funcs {
		clear(fd.Body)
	}
	for _, pv := range st.Prolog.Vars {
		clear(pv.Seq)
	}
	if st.Query != nil {
		clear(st.Query)
	}
	if st.Update != nil {
		clear(st.Update.Target)
		if st.Update.Source != nil {
			clear(st.Update.Source)
		}
	}
}
