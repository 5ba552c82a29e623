package query

// In-place value comparisons: a general comparison of a literal with a chain
// of named child steps (or child steps and a last attribute step), starting at
// the context item or at a variable, reads the values where they lie
// (storage.ValueWalk) and compares each as bytes with the literal, converted
// once. A step's producer evaluates a leading one at the context item for a
// whole batch of candidates in one walk, before it decodes any (pass). Any
// other start or leaf takes evalBinary's general path.

import (
	"bytes"
	"sync"

	"sedna/internal/opt"
	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
)

// inPlaceCmp is a comparison's in-place mark (Binary.inPlace).
type inPlaceCmp struct {
	start string   // the variable the chain starts at; "": the context item
	names []string // the steps' names, first step first
	attr  bool     // the last step is an attribute step
	op    BinOp    // the operator with the chain on the left
	isStr bool
	s     []byte  // a string literal
	f     float64 // a numeric literal
}

// mirror maps each general comparison to the one with its operands swapped.
var mirror = map[BinOp]BinOp{OpEq: OpEq, OpNe: OpNe, OpLt: OpGt, OpLe: OpGe, OpGt: OpLt, OpGe: OpLe}

// markInPlace sets (on) or clears the in-place mark of every comparison of
// the statement. It runs after the optimizer, so that a step it planned an
// index probe for keeps the general path.
func markInPlace(st *Statement, on bool) {
	mark := func(x Expr) {
		if b, ok := x.(*Binary); ok {
			b.inPlace = nil
			if on {
				b.inPlace = inPlaceShape(b)
			}
		}
	}
	for _, fd := range st.Prolog.Funcs {
		walkExpr(fd.Body, mark)
	}
	for _, x := range st.exprs() {
		walkExpr(*x, mark)
	}
}

// inPlaceShape returns the mark of a comparison of the in-place shape, nil for
// any other.
func inPlaceShape(b *Binary) *inPlaceCmp {
	op, ok := mirror[b.Op]
	if !ok {
		return nil
	}
	path, other := b.Left, b.Right
	if _, isLit := path.(*Literal); isLit {
		path, other = other, path
	} else {
		op = b.Op
	}
	lit, ok := other.(*Literal)
	if !ok {
		return nil
	}
	c := &inPlaceCmp{op: op, isStr: lit.IsString, s: []byte(lit.String), f: lit.Number}
	x := path
	for s, ok := x.(*Step); ok; s, ok = x.(*Step) {
		if len(s.Preds) > 0 || s.Plan != nil && s.Plan.Probe != nil ||
			s.Test.Kind != TestName || s.Test.Name == "*" || s.Test.Name == "" ||
			s.Axis != AxisChild && (s.Axis != AxisAttribute || len(c.names) > 0) {
			return nil
		}
		c.attr = c.attr || s.Axis == AxisAttribute
		c.names = append([]string{s.Test.Name}, c.names...)
		x = s.Input
	}
	switch v := x.(type) {
	case *VarRef:
		c.start = v.Name
	case nil, *ContextItem:
	default:
		return nil
	}
	if len(c.names) == 0 {
		return nil
	}
	return c
}

// resolvedPath is a marked chain resolved from one start schema node.
type resolvedPath struct {
	c     *inPlaceCmp
	sn    *schema.Node
	slots []int // each step's schema-child slot, an element leaf's text child's; nil: no match
	ok    bool  // false: the leaf is not simple content, the general path decides
}

// inPlaceSlots resolves c's chain from a start node of schema node sn (nil:
// unknown, the general path decides). A read-only statement resolves it once
// per start schema node: the schema of its snapshot does not change.
func (ctx *ExecCtx) inPlaceSlots(c *inPlaceCmp, sn *schema.Node) ([]int, bool) {
	if sn == nil {
		return nil, false
	}
	for i := range ctx.paths {
		if p := &ctx.paths[i]; p.c == c && p.sn == sn {
			return p.slots, p.ok
		}
	}
	p := resolvedPath{c: c, sn: sn, ok: true}
	for i, name := range c.names {
		kind := schema.KindElement
		if c.attr && i == len(c.names)-1 {
			kind = schema.KindAttribute
		}
		child := sn.Child(kind, name)
		if child == nil {
			p.slots = nil
			break
		}
		p.slots, sn = append(p.slots, sn.ChildIndex(child)), child
	}
	if p.slots != nil && !c.attr {
		text, simple := simpleContent(sn)
		p.slots, p.ok = append(p.slots, sn.ChildIndex(text)), simple
	}
	if ctx.Tx != nil && ctx.Tx.ReadOnly() {
		ctx.paths = append(ctx.paths, p)
	}
	return p.slots, p.ok
}

// walks keeps value walks, with the frontiers they grew, from one statement
// to the next: a statement's ExecCtx is new, and most read a few values.
var walks = sync.Pool{New: func() any { return new(storage.ValueWalk) }}

// valueWalk returns the statement's value walk, taken from walks at its first
// use in an execution or serialization phase.
func (ctx *ExecCtx) valueWalk() *storage.ValueWalk {
	if ctx.walk == nil {
		ctx.walk = walks.Get().(*storage.ValueWalk)
	}
	return ctx.walk
}

// release ends an execution or serialization phase: the held page views go,
// and the value walk goes back to walks.
func (ctx *ExecCtx) release() {
	ctx.views.release()
	if ctx.walk != nil {
		walks.Put(ctx.walk)
		ctx.walk = nil
	}
}

// evalInPlace evaluates a marked comparison for one start; handled=false
// sends it down the general path. A step's producer evaluates a leading one
// for a whole batch of candidates instead (collector.pass).
func evalInPlace(c *inPlaceCmp, e *env, f *focus) (holds, handled bool, err error) {
	var start Item
	if c.start == "" && f != nil {
		start = f.item
	} else if v, _ := e.lookup(c.start); c.start != "" && len(v) == 1 {
		start = v[0]
	}
	n, ok := start.(*NodeItem)
	if !ok {
		return false, false, nil
	}
	slots, ok := e.ctx.inPlaceSlots(c, n.Doc.Schema.ByID(n.D.SchemaID))
	if !ok || slots == nil {
		return false, ok, nil
	}
	e.ctx.textBuf, holds, err = e.values(n, slots, !c.attr, e.ctx.textBuf[:0], c.holds)
	return holds, true, err
}

// values walks a chain of slots from one node (storage.ValueWalk with one
// start) and reports whether a value held.
func (e *env) values(n *NodeItem, slots []int, text bool, dst []byte, visit func([]byte) bool) ([]byte, bool, error) {
	w := e.ctx.valueWalk()
	w.Reset()
	w.Add(&n.D, slots[0])
	dst, err := w.Run(e.r, slots, text, dst, visit)
	return dst, err == nil && w.Held(0), err
}

// inPlace returns k's batched comparison and its chain's slots from c's
// schema node when the producer evaluates it on c's candidates (nil: the
// collector does, node by node).
func (k *collector) inPlace(c cursor) (*inPlaceCmp, []int) {
	if cmp := k.batched(); cmp != nil && c.sn != nil {
		if slots, ok := k.e.ctx.inPlaceSlots(cmp, c.sn); ok {
			return cmp, slots
		}
	}
	return nil, nil
}

// pass reads c's next candidates, up to max, straight from their list as the
// starts of the statement's value walk (storage.ValueWalk.Scan), evaluates
// k's batched comparison over them in one walk and appends the addresses of
// those it holds for to dst, in order. It returns the cursor advanced past
// them. k.pos[0] counts the candidates.
func (k *collector) pass(c cursor, max int, dst []sas.XPtr) ([]sas.XPtr, cursor, error) {
	e, w := k.e, k.e.ctx.valueWalk()
	cmp, slots := k.inPlace(c)
	slot := -1
	if slots != nil {
		slot = slots[0]
	}
	next, n, err := w.Scan(e.r, c.at, c.parent, c.under, max, slot)
	if n == 0 && !next.IsNil() && err == nil {
		// An overflowed label: ReadRun reads it for the range check, and a
		// walk of its own compares the one node. Its entry is scratch: a
		// merge calls pass while it fills a batch of the node slab.
		s := &e.ctx.scratch
		defer s.release(s.mark())
		one := s.take(1)
		c.at = next
		if n, c, err = e.fill(c, one); err != nil || n == 0 {
			return dst, c, err
		}
		k.pos[0]++
		var holds bool
		if slots != nil {
			e.ctx.textBuf, holds, err = e.values(&one[0], slots, !cmp.attr, e.ctx.textBuf[:0], cmp.holds)
		}
		if holds {
			dst = append(dst, one[0].D.Ptr)
		}
		return dst, c, err
	}
	c.at, k.pos[0] = next, k.pos[0]+n
	if err != nil || slots == nil { // no slots: the chain leads nowhere
		return dst, c, err
	}
	e.ctx.textBuf, err = w.Run(e.r, slots, !cmp.attr, e.ctx.textBuf[:0], cmp.holds)
	return w.AppendHeld(dst), c, err
}

// holds compares a value with the literal as compareAtomic compares an
// untyped atomic with it.
func (c *inPlaceCmp) holds(v []byte) bool {
	if c.isStr {
		return cmpResult(c.op, bytes.Compare(v, c.s))
	}
	f, _ := opt.ParseDouble(v)
	ok, _ := compareFloats(c.op, f, c.f)
	return ok
}
