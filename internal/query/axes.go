package query

import (
	"fmt"

	"sedna/internal/nid"
	"sedna/internal/schema"
	"sedna/internal/storage"
)

// Axis evaluation over stored nodes. The implementations exploit the
// descriptive-schema clustering exactly as §4.1/§5 describe: a named child
// step touches only the blocks of the one matching schema node, and a
// descendant step resolves the matching schema nodes in main memory first
// and then scans only their block lists: each scan starts at the context
// node's first instance, found through the node's own child pointers, and
// ends where the context's numbering-scheme label stops being an ancestor.

// matchesSchema reports whether a schema node satisfies the node test.
func matchesSchema(sn *schema.Node, test NodeTest) bool {
	switch test.Kind {
	case TestName:
		if sn.Kind != schema.KindElement {
			return false
		}
		return test.Name == "*" || sn.Name == test.Name
	case TestNode:
		return true
	case TestText:
		return sn.Kind == schema.KindText
	case TestComment:
		return sn.Kind == schema.KindComment
	case TestPI:
		return sn.Kind == schema.KindPI && (test.Name == "" || test.Name == "*" || sn.Name == test.Name)
	case TestElement:
		return sn.Kind == schema.KindElement && (test.Name == "" || test.Name == "*" || sn.Name == test.Name)
	case TestAttrTest:
		return sn.Kind == schema.KindAttribute && (test.Name == "" || test.Name == "*" || sn.Name == test.Name)
	default:
		return false
	}
}

// attributeTest adapts a test for the attribute axis: a plain name test
// matches attribute nodes there.
func attributeTest(test NodeTest) NodeTest {
	if test.Kind == TestName {
		return NodeTest{Kind: TestAttrTest, Name: test.Name}
	}
	return test
}

// axisStored evaluates an axis step for one stored context node, appending
// matches in document order. All storage access routes through the
// document's store, so the same code serves paged and resident backends.
func axisStored(env *env, n *NodeItem, axis Axis, test NodeTest, out []Item) ([]Item, error) {
	st := env.storeFor(n.Doc)
	switch axis {
	case AxisChild:
		return childAxis(env, st, n, test, false, out)
	case AxisAttribute:
		return childAxis(env, st, n, attributeTest(test), true, out)
	case AxisSelf:
		if matchesStoredNode(n, test) {
			out = append(out, n)
		}
		return out, nil
	case AxisParent:
		p, ok, err := st.parent(env, n.Doc, &n.D)
		if err != nil {
			return nil, err
		}
		if ok {
			pi := &NodeItem{Doc: n.Doc, D: p}
			if matchesStoredNode(pi, test) {
				out = append(out, pi)
			}
		}
		return out, nil
	case AxisAncestor, AxisAncestorOrSelf:
		var chain []Item
		cur := *n
		if axis == AxisAncestorOrSelf && matchesStoredNode(n, test) {
			chain = append(chain, n)
		}
		for {
			p, ok, err := st.parent(env, n.Doc, &cur.D)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			pi := &NodeItem{Doc: n.Doc, D: p}
			if matchesStoredNode(pi, test) {
				chain = append(chain, pi)
			}
			cur = *pi
		}
		// Ancestors accumulate bottom-up; document order is top-down.
		for i := len(chain) - 1; i >= 0; i-- {
			out = append(out, chain[i])
		}
		return out, nil
	case AxisDescendant:
		return descendantAxis(env, st, n, test, false, out)
	case AxisDescendantOrSelf:
		return descendantAxis(env, st, n, test, true, out)
	case AxisFollowingSibling:
		cur := n.D
		for {
			if err := env.ctx.checkKilled(); err != nil {
				return nil, err
			}
			d, ok, err := st.nextSibling(env, n.Doc, &cur)
			if err != nil {
				return nil, err
			}
			if !ok {
				return out, nil
			}
			si := &NodeItem{Doc: n.Doc, D: d}
			if matchesStoredNode(si, test) {
				out = append(out, si)
			}
			cur = d
		}
	case AxisPrecedingSibling:
		var rev []Item
		cur := n.D
		for {
			if err := env.ctx.checkKilled(); err != nil {
				return nil, err
			}
			d, ok, err := st.prevSibling(env, n.Doc, &cur)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			si := &NodeItem{Doc: n.Doc, D: d}
			if matchesStoredNode(si, test) {
				rev = append(rev, si)
			}
			cur = d
		}
		for i := len(rev) - 1; i >= 0; i-- {
			out = append(out, rev[i])
		}
		return out, nil
	default:
		return nil, fmt.Errorf("query: unsupported axis %v", axis)
	}
}

func matchesStoredNode(n *NodeItem, test NodeTest) bool {
	sn := n.Doc.Schema.ByID(n.D.SchemaID)
	return sn != nil && matchesSchema(sn, test)
}

// childAxis returns the children of n matching test in document order. For
// a specific name/kind test it touches only the matching schema node's
// children (per-schema slot chain or resident index range); for wildcard
// tests it walks the sibling chain.
func childAxis(env *env, st docStore, n *NodeItem, test NodeTest, attrs bool, out []Item) ([]Item, error) {
	sn := n.Doc.Schema.ByID(n.D.SchemaID)
	if sn == nil {
		return nil, fmt.Errorf("query: unknown schema node %d", n.D.SchemaID)
	}
	// Identify matching schema children.
	var matched []*schema.Node
	for _, c := range sn.Children {
		isAttr := c.Kind == schema.KindAttribute
		if isAttr != attrs {
			continue
		}
		if matchesSchema(c, test) {
			matched = append(matched, c)
		}
	}
	if len(matched) == 0 {
		return out, nil
	}
	if len(matched) == 1 {
		kids, err := st.childrenOfSchema(env, n.Doc, &n.D, sn, matched[0])
		if err != nil {
			return nil, err
		}
		for i := range kids {
			out = append(out, &NodeItem{Doc: n.Doc, D: kids[i]})
		}
		return out, nil
	}
	// Several schema children match (wildcard): walk the sibling chain for
	// global document order.
	kids, err := st.children(env, n.Doc, &n.D)
	if err != nil {
		return nil, err
	}
	for i := range kids {
		csn := n.Doc.Schema.ByID(kids[i].SchemaID)
		if csn == nil {
			continue
		}
		isAttr := csn.Kind == schema.KindAttribute
		if isAttr == attrs && matchesSchema(csn, test) {
			out = append(out, &NodeItem{Doc: n.Doc, D: kids[i]})
		}
	}
	return out, nil
}

// descendantAxis evaluates descendant(-or-self) with the schema-driven
// strategy: matching schema nodes are found in main memory, then only their
// per-schema streams are scanned (the context's range of each block list,
// or resident index-list slices) and merged by document order.
func descendantAxis(env *env, st docStore, n *NodeItem, test NodeTest, orSelf bool, out []Item) ([]Item, error) {
	sn := n.Doc.Schema.ByID(n.D.SchemaID)
	if sn == nil {
		return nil, fmt.Errorf("query: unknown schema node %d", n.D.SchemaID)
	}
	if orSelf && matchesSchema(sn, test) {
		out = append(out, n)
	}
	matched := sn.Descendants(func(c *schema.Node) bool {
		return c.Kind != schema.KindAttribute && matchesSchema(c, test)
	})
	if len(matched) == 0 {
		return out, nil
	}
	if merged, ok, err := parallelStreams(env, n.Doc, matched, st, &n.D, out); err != nil {
		return nil, err
	} else if ok {
		return merged, nil
	}
	streams := make([]descStream, 0, len(matched))
	for _, m := range matched {
		s, err := st.descendantScan(env, n.Doc, m, &n.D)
		if err != nil {
			return nil, err
		}
		if s != nil && s.valid() {
			streams = append(streams, s)
		}
	}
	return mergeStreams(env, n.Doc, streams, out)
}

// rangeScan iterates the descriptors of one schema node whose labels fall
// inside the descendant range of an ancestor label.
type rangeScan struct {
	anc nid.Label
	cur storage.Desc
	ok  bool
}

// newRangeScan positions a scan at the first descriptor of sn inside anc's
// subtree; nil when none exists. The start comes from anc's own child
// pointers (storage.FirstInRange), so opening a scan costs the same for the
// first context node of a document as for the last.
func newRangeScan(env *env, doc *storage.Doc, sn *schema.Node, anc *storage.Desc) (*rangeScan, error) {
	env.ctx.stats().AddSchemaScans(1)
	ancSN := doc.Schema.ByID(anc.SchemaID)
	if ancSN == nil {
		return nil, fmt.Errorf("query: unknown schema node %d", anc.SchemaID)
	}
	d, ok, err := storage.FirstInRange(env.r, anc, ancSN, sn)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	return &rangeScan{anc: anc.Label, cur: d, ok: true}, nil
}

func (rs *rangeScan) advance(env *env) error {
	n, ok, err := storage.NextInList(env.r, &rs.cur)
	if err != nil {
		return err
	}
	if !ok || !nid.IsAncestor(rs.anc, n.Label) {
		rs.ok = false
		return nil
	}
	rs.cur = n
	return nil
}

// rangeScan is the paged descStream.
func (rs *rangeScan) valid() bool         { return rs.ok }
func (rs *rangeScan) desc() *storage.Desc { return &rs.cur }

// mergeStreams merges label-ordered streams into document order. The loop is
// the executor's main cancellation point for long storage scans: one
// iteration per yielded node, each starting with a killed check.
func mergeStreams(env *env, doc *storage.Doc, streams []descStream, out []Item) ([]Item, error) {
	for {
		if err := env.ctx.checkKilled(); err != nil {
			return nil, err
		}
		best := -1
		for i, s := range streams {
			if s == nil || !s.valid() {
				continue
			}
			if best < 0 || nid.Compare(s.desc().Label, streams[best].desc().Label) < 0 {
				best = i
			}
		}
		if best < 0 {
			return out, nil
		}
		d := *streams[best].desc()
		out = append(out, &NodeItem{Doc: doc, D: d})
		if err := streams[best].advance(env); err != nil {
			return nil, err
		}
	}
}
