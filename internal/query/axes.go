package query

import (
	"fmt"

	"sedna/internal/sas"
	"sedna/internal/schema"
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
	return matchesKind(sn.Kind, sn.Name, test)
}

// matchesKind reports whether a node of the given kind and name — stored or
// constructed — satisfies the node test.
func matchesKind(kind schema.NodeKind, name string, test NodeTest) bool {
	anyName := test.Name == "" || test.Name == "*" || name == test.Name
	switch test.Kind {
	case TestName:
		return kind == schema.KindElement && (test.Name == "*" || name == test.Name)
	case TestNode:
		return true
	case TestText:
		return kind == schema.KindText
	case TestComment:
		return kind == schema.KindComment
	case TestPI:
		return kind == schema.KindPI && anyName
	case TestElement:
		return kind == schema.KindElement && anyName
	case TestAttrTest:
		return kind == schema.KindAttribute && anyName
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

// axisStored evaluates an axis step for one stored context node, handing
// matches to k in document order. All storage access routes through the
// statement's reader (store.go).
func axisStored(env *env, n *NodeItem, axis Axis, test NodeTest, k *collector) error {
	sn := n.Doc.Schema.ByID(n.D.SchemaID)
	if sn == nil {
		return fmt.Errorf("query: unknown schema node %d", n.D.SchemaID)
	}
	switch axis {
	case AxisChild:
		return childAxis(env, n, sn, test, 0, k)
	case AxisAttribute:
		return childAxis(env, n, sn, attributeTest(test), 1, k)
	case AxisSelf, AxisDescendantOrSelf, AxisDescendant:
		if axis != AxisDescendant && matchesSchema(sn, test) {
			if _, err := k.item(n, 0); err != nil {
				return err
			}
		}
		if axis == AxisSelf {
			return nil
		}
		return descendantAxis(env, n, sn, test, k)
	case AxisParent, AxisAncestor, AxisAncestorOrSelf:
		var chain []*NodeItem
		if axis == AxisAncestorOrSelf {
			chain = append(chain, n)
		}
		for cur := n; ; {
			p, err := env.parent(cur)
			if err != nil {
				return err
			}
			if p == nil {
				break
			}
			if chain, cur = append(chain, p), p; axis == AxisParent {
				break
			}
		}
		// Ancestors accumulate bottom-up; document order is top-down.
		for i := len(chain) - 1; i >= 0; i-- {
			if matchesStoredNode(chain[i], test) {
				if _, err := k.item(chain[i], 0); err != nil {
					return err
				}
			}
		}
		return nil
	case AxisFollowingSibling:
		return siblings(env, following(n), test, -1, sas.NilPtr, k)
	case AxisPrecedingSibling:
		// The parent's children up to n.
		p, err := env.parent(n)
		if err != nil || p == nil {
			return err
		}
		c, err := env.children(p)
		if err != nil {
			return err
		}
		if err := siblings(env, c, test, -1, n.D.Handle, k); err != errStop {
			return err
		}
		return nil // stopped at n
	default:
		return fmt.Errorf("query: unsupported axis %v", axis)
	}
}

func matchesStoredNode(n *NodeItem, test NodeTest) bool {
	sn := n.Doc.Schema.ByID(n.D.SchemaID)
	return sn != nil && matchesSchema(sn, test)
}

// siblings drains a sibling-chain cursor through k with the node test
// applied on the way (attrs as collector.attrs), stopping before until.
func siblings(env *env, c cursor, test NodeTest, attrs int8, until sas.XPtr, k *collector) error {
	k.filter, k.test, k.attrs, k.until = true, test, attrs, until
	err := drain(env, c, k)
	k.filter, k.until = false, sas.NilPtr
	return err
}

// childAxis hands k the children of n matching test in document order. For
// a specific name/kind test it touches only the matching schema node's
// children (its per-schema slot chain); for wildcard tests it walks the
// sibling chain.
func childAxis(env *env, n *NodeItem, sn *schema.Node, test NodeTest, attrs int8, k *collector) error {
	var only *schema.Node
	matched := 0
	for _, c := range sn.Children {
		if (c.Kind == schema.KindAttribute) == (attrs == 1) && matchesSchema(c, test) {
			only, matched = c, matched+1
		}
	}
	switch matched {
	case 0:
		return nil
	case 1:
		c := childrenOfSchema(n, sn, only)
		// person[k]: the first k-1 children are stepped over by the
		// candidate read, following no slot, not decoded.
		for skip := k.positionSkip(); skip > 0 && !c.done(); {
			var skipped int
			var err error
			if c.at, skipped, err = env.ctx.valueWalk().Scan(env.r, c.at, c.parent, nil, min(skip, batchCap), -1); err != nil {
				return err
			}
			skip, k.pos[0] = skip-skipped, k.pos[0]+skipped
		}
		return drain(env, c, k)
	}
	// Several schema children match (wildcard): walk the sibling chain for
	// global document order.
	c, err := env.children(n)
	if err != nil {
		return err
	}
	return siblings(env, c, test, attrs, sas.NilPtr, k)
}

// descendantTargets appends to out the schema nodes below sn that a
// descendant step with the given test scans.
func descendantTargets(sn *schema.Node, test NodeTest, out []*schema.Node) []*schema.Node {
	for _, c := range sn.Children {
		if c.Kind != schema.KindAttribute && matchesSchema(c, test) {
			out = append(out, c)
		}
		out = descendantTargets(c, test, out)
	}
	return out
}

// descendantAxis evaluates the descendant axis with the schema-driven
// strategy: matching schema nodes are found in main memory, then only their
// per-schema streams are scanned (the context's range of each block list)
// and merged by document order.
func descendantAxis(env *env, n *NodeItem, sn *schema.Node, test NodeTest, k *collector) error {
	var tbuf [8]*schema.Node
	return scanTargets(env, descendantTargets(sn, test, tbuf[:0]), n, sn, k)
}

// scanTargets merges the instances of the target schema nodes inside anc's
// subtree into k.
func scanTargets(env *env, targets []*schema.Node, anc *NodeItem, ancSN *schema.Node, k *collector) error {
	var sbuf [4]nodeStream
	streams := sbuf[:0]
	for _, m := range targets {
		c, err := env.descendantScan(m, anc, ancSN)
		if err != nil {
			return err
		}
		if !c.done() {
			streams = append(streams, nodeStream{c: c})
		}
	}
	return mergeStreams(env, streams, k)
}
