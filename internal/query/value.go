package query

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"sedna/internal/nid"
	"sedna/internal/opt"
	"sedna/internal/schema"
	"sedna/internal/storage"
)

// Item is one item of the XQuery data model: a stored node, a constructed
// (temporary) node, or an atomic value.
type Item interface{ isItem() }

// NodeItem is a node stored in the database, referenced by direct pointer
// (its descriptor) as intermediate query results are in Sedna (§5.2). It is a
// fixed-size entry of a statement-owned slab (slab.go): the label and
// child-pointer bytes D points at live in the slab's arena.
type NodeItem struct {
	Doc *storage.Doc
	D   storage.Desc
}

// TempItem is a node constructed during query evaluation.
type TempItem struct{ N *TempNode }

// AtomKind classifies atomic values.
type AtomKind int

// Atomic kinds.
const (
	AtomString AtomKind = iota + 1
	AtomNumber
	AtomBool
	AtomUntyped // untyped atomic from node atomization
)

// Atomic is an atomic value.
type Atomic struct {
	Kind AtomKind
	S    string
	F    float64
	B    bool
}

func (*NodeItem) isItem() {}
func (*TempItem) isItem() {}
func (*Atomic) isItem()   {}

// Convenience constructors.
func str(s string) *Atomic     { return &Atomic{Kind: AtomString, S: s} }
func untyped(s string) *Atomic { return &Atomic{Kind: AtomUntyped, S: s} }
func num(f float64) *Atomic    { return &Atomic{Kind: AtomNumber, F: f} }
func boolean(b bool) *Atomic   { return &Atomic{Kind: AtomBool, B: b} }

// boolSeq returns a boolean as a (shared, immutable) singleton sequence.
func boolSeq(b bool) []Item {
	if b {
		return trueSeq
	}
	return falseSeq
}

var trueSeq, falseSeq = []Item{boolean(true)}, []Item{boolean(false)}

// StringValue returns the atomic's lexical form.
func (a *Atomic) StringValue() string {
	switch a.Kind {
	case AtomString, AtomUntyped:
		return a.S
	case AtomNumber:
		return formatNumber(a.F)
	case AtomBool:
		if a.B {
			return "true"
		}
		return "false"
	default:
		return ""
	}
}

func formatNumber(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// NumberValue converts to a double, an untyped or string value as xs:double
// does (opt.ParseDouble; NaN on failure, per XPath).
func (a *Atomic) NumberValue() float64 {
	switch a.Kind {
	case AtomNumber:
		return a.F
	case AtomBool:
		if a.B {
			return 1
		}
		return 0
	default:
		f, _ := opt.ParseDouble(a.S)
		return f
	}
}

// nodeText appends the string value of a stored node to dst: its own value
// for text-carrying kinds, else the concatenation of its descendant text
// nodes in document order, streamed without the text nodes becoming items.
// When the descriptive schema says the node holds nothing but text, those
// are its children in its text slot, read in place (storage.ValueWalk);
// otherwise they come from the schema-driven descendant scan.
func nodeText(env *env, n *NodeItem, dst []byte) ([]byte, error) {
	sn := n.Doc.Schema.ByID(n.D.SchemaID)
	if sn == nil {
		return nil, fmt.Errorf("query: unknown schema node %d", n.D.SchemaID)
	}
	if sn.Kind.HasText() {
		return env.text(n, dst)
	}
	k := collector{e: env, text: true, buf: dst}
	var err error
	if text, ok := simpleContent(sn); !ok {
		err = descendantAxis(env, n, sn, NodeTest{Kind: TestText}, &k)
	} else if text != nil {
		k.buf, _, err = env.values(n, []int{sn.ChildIndex(text)}, true, dst, oneValue)
	}
	return k.buf, err
}

// oneValue is the visitor of a walk that reads one value.
func oneValue([]byte) bool { return true }

// simpleContent reports whether every non-attribute schema child of sn is its
// one text child, and returns that child (nil when sn has no content at all).
func simpleContent(sn *schema.Node) (text *schema.Node, ok bool) {
	for _, c := range sn.Children {
		switch {
		case c.Kind == schema.KindAttribute:
		case c.Kind == schema.KindText && text == nil:
			text = c
		default:
			return nil, false
		}
	}
	return text, true
}

// nodeStringValue computes the string value of a stored node.
func nodeStringValue(env *env, n *NodeItem) (string, error) {
	b, err := nodeText(env, n, env.ctx.textBuf[:0])
	env.ctx.textBuf = b
	return string(b), err
}

// itemStringValue is the string value of any item.
func itemStringValue(env *env, it Item) (string, error) {
	switch x := it.(type) {
	case *Atomic:
		return x.StringValue(), nil
	case *NodeItem:
		return nodeStringValue(env, x)
	case *TempItem:
		return x.N.stringValue(env)
	default:
		return "", fmt.Errorf("query: unknown item type %T", it)
	}
}

// atomizeTo sets a to the item's typed value (untyped atomic for nodes).
func atomizeTo(env *env, it Item, a *Atomic) error {
	if x, ok := it.(*Atomic); ok {
		*a = *x
		return nil
	}
	s, err := itemStringValue(env, it)
	*a = Atomic{Kind: AtomUntyped, S: s}
	return err
}

// atomize is atomizeTo for a value that becomes an item.
func atomize(env *env, it Item) (*Atomic, error) {
	if x, ok := it.(*Atomic); ok {
		return x, nil
	}
	a := new(Atomic)
	return a, atomizeTo(env, it, a)
}

// ebv computes the effective boolean value of a sequence.
func ebv(items []Item) (bool, error) {
	if len(items) == 0 {
		return false, nil
	}
	switch first := items[0].(type) {
	case *NodeItem, *TempItem:
		return true, nil
	case *Atomic:
		if len(items) > 1 {
			return false, fmt.Errorf("query: effective boolean value of multi-item atomic sequence")
		}
		switch first.Kind {
		case AtomBool:
			return first.B, nil
		case AtomNumber:
			return first.F != 0 && !math.IsNaN(first.F), nil
		default:
			return first.S != "", nil
		}
	}
	return false, fmt.Errorf("query: cannot compute effective boolean value")
}

// compareAtomic applies a value comparison between two atomics following
// the (simplified) XPath rules: numbers compare numerically, untyped values
// adapt to the other operand, strings compare lexicographically.
func compareAtomic(op BinOp, a, b *Atomic) (bool, error) {
	numeric := a.Kind == AtomNumber || b.Kind == AtomNumber
	if a.Kind == AtomBool || b.Kind == AtomBool {
		// Booleans compare as booleans (numbers coerce).
		av, bv := a.NumberValue(), b.NumberValue()
		return compareFloats(op, av, bv)
	}
	if numeric {
		return compareFloats(op, a.NumberValue(), b.NumberValue())
	}
	cmp := strings.Compare(a.StringValue(), b.StringValue())
	return cmpResult(op, cmp), nil
}

func compareFloats(op BinOp, a, b float64) (bool, error) {
	if math.IsNaN(a) || math.IsNaN(b) {
		// NaN compares false except under != which is true.
		return op == OpNe || op == OpVNe, nil
	}
	switch {
	case a < b:
		return cmpResult(op, -1), nil
	case a > b:
		return cmpResult(op, 1), nil
	default:
		return cmpResult(op, 0), nil
	}
}

func cmpResult(op BinOp, cmp int) bool {
	switch op {
	case OpEq, OpVEq:
		return cmp == 0
	case OpNe, OpVNe:
		return cmp != 0
	case OpLt, OpVLt:
		return cmp < 0
	case OpLe, OpVLe:
		return cmp <= 0
	case OpGt, OpVGt:
		return cmp > 0
	case OpGe, OpVGe:
		return cmp >= 0
	default:
		return false
	}
}

// ---- node identity and document order ----

// identityKey returns a comparable identity for a node item.
func identityKey(it Item) (any, bool) {
	switch x := it.(type) {
	case *NodeItem:
		return [2]uint64{uint64(x.Doc.ID), uint64(x.D.Handle)}, true
	case *TempItem:
		return x.N, true
	default:
		return nil, false
	}
}

// docOrderLess orders two node items in document order. Stored nodes order
// by (document, label); constructed nodes follow all stored nodes and order
// by construction ordinal.
func docOrderLess(a, b Item) bool {
	an, aok := a.(*NodeItem)
	bn, bok := b.(*NodeItem)
	switch {
	case aok && bok:
		if an.Doc.ID != bn.Doc.ID {
			return an.Doc.ID < bn.Doc.ID
		}
		return nid.Compare(an.D.Label, bn.D.Label) < 0
	case aok:
		return true
	case bok:
		return false
	default:
		at, aok2 := a.(*TempItem)
		bt, bok2 := b.(*TempItem)
		if aok2 && bok2 {
			return at.N.ord < bt.N.ord
		}
		return false
	}
}

// ddo sorts node items into document order and removes duplicates — the
// explicit DDO operation of §5.1.1. It reports an error when the sequence
// mixes nodes and atomics (such sequences have no document order).
func ddo(items []Item) ([]Item, error) {
	for _, it := range items {
		if _, ok := it.(*Atomic); ok {
			return nil, fmt.Errorf("query: document-order operation over atomic values")
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return docOrderLess(items[i], items[j]) })
	out := items[:0]
	var lastKey any
	for i, it := range items {
		k, _ := identityKey(it)
		if i > 0 && k == lastKey {
			continue
		}
		out = append(out, it)
		lastKey = k
	}
	return out, nil
}

// sameNode reports node identity between two items.
func sameNode(a, b Item) bool {
	ka, ok1 := identityKey(a)
	kb, ok2 := identityKey(b)
	return ok1 && ok2 && ka == kb
}
