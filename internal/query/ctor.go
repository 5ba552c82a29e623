package query

import (
	"fmt"
	"strings"

	"sedna/internal/schema"
)

// evalElementCtor constructs an element. Default semantics deep-copy node
// content; a constructor the rewriter marked Virtual stores references
// instead (§5.2.1) — semantically equivalent because the analysis proved the
// content is only serialized.
func evalElementCtor(c *ElementCtor, e *env, f *focus) (*TempNode, error) {
	t := e.ctx.newTempNode(schema.KindElement, c.Name)
	for _, a := range c.Attrs {
		var sb strings.Builder
		for _, part := range a.Value {
			v, err := eval(part, e, f)
			if err != nil {
				return nil, err
			}
			s, err := atomizedString(e, v, " ")
			if err != nil {
				return nil, err
			}
			sb.WriteString(s)
		}
		at := e.ctx.newTempNode(schema.KindAttribute, a.Name)
		at.Text = sb.String()
		t.append(at)
	}
	for _, part := range c.Content {
		v, err := eval(part, e, f)
		if err != nil {
			return nil, err
		}
		// Adjacent atomic values merge into one text node separated by
		// spaces.
		var atomRun []string
		flushAtoms := func() {
			if len(atomRun) == 0 {
				return
			}
			tn := e.ctx.newTempNode(schema.KindText, "")
			tn.Text = strings.Join(atomRun, " ")
			t.append(tn)
			atomRun = nil
		}
		for _, it := range v {
			switch x := it.(type) {
			case *Atomic:
				atomRun = append(atomRun, x.StringValue())
			case *TempItem:
				flushAtoms()
				// Constructed content is adopted directly (it already is a
				// copy); this is the embedded-constructor optimisation: the
				// nested constructor's result parents straight into the
				// enclosing element with no further copying.
				t.append(x.N)
			case *NodeItem:
				flushAtoms()
				if c.Virtual {
					ref := e.ctx.newTempNode(schema.KindElement, "")
					ref.Ref = x
					t.append(ref)
					e.ctx.stats().AddVirtualRefs(1)
				} else {
					e.ctx.stats().AddDeepCopies(1)
					cp, err := deepCopyStored(e, x)
					if err != nil {
						return nil, err
					}
					t.append(cp)
				}
			}
		}
		flushAtoms()
	}
	return t, nil
}

// atomizedString atomizes a sequence and joins the values with sep.
func atomizedString(e *env, items []Item, sep string) (string, error) {
	var parts []string
	for _, it := range items {
		a, err := atomize(e, it)
		if err != nil {
			return "", err
		}
		parts = append(parts, a.StringValue())
	}
	return strings.Join(parts, sep), nil
}

// axisTemp evaluates axes over constructed nodes; virtual references expand
// lazily when navigation enters them.
func axisTemp(e *env, n *TempNode, axis Axis, test NodeTest, out []Item) ([]Item, error) {
	if err := n.expand(e); err != nil {
		return nil, err
	}
	var cands []*TempNode // in document order; the node test applies below
	switch axis {
	case AxisChild, AxisAttribute:
		wantAttr := axis == AxisAttribute
		if wantAttr {
			test = attributeTest(test)
		}
		for _, c := range n.Children {
			if c.Ref != nil {
				// A referenced stored subtree: match against the stored
				// node.
				sn := c.Ref.Doc.Schema.ByID(c.Ref.D.SchemaID)
				if (sn.Kind == schema.KindAttribute) == wantAttr && matchesSchema(sn, test) {
					out = append(out, c.Ref)
				}
			} else if (c.Kind == schema.KindAttribute) == wantAttr && matchesTempNode(c, test) {
				out = append(out, &TempItem{N: c})
			}
		}
		return out, nil
	case AxisSelf:
		cands = []*TempNode{n}
	case AxisParent:
		if n.Parent != nil {
			cands = []*TempNode{n.Parent}
		}
	case AxisAncestor, AxisAncestorOrSelf:
		for p := n.Parent; p != nil; p = p.Parent {
			cands = append([]*TempNode{p}, cands...)
		}
		if axis == AxisAncestorOrSelf {
			cands = append(cands, n)
		}
	case AxisDescendant, AxisDescendantOrSelf:
		if axis == AxisDescendantOrSelf && matchesTempNode(n, test) {
			out = append(out, &TempItem{N: n})
		}
		var rec func(t *TempNode) error
		rec = func(t *TempNode) error {
			if err := t.expand(e); err != nil {
				return err
			}
			for _, c := range t.Children {
				if c.Ref != nil {
					k := collector{e: e, out: out}
					if err := axisStored(e, c.Ref, AxisDescendantOrSelf, test, &k); err != nil {
						return err
					}
					out = k.out
					continue
				}
				if c.Kind == schema.KindAttribute {
					continue
				}
				if matchesTempNode(c, test) {
					out = append(out, &TempItem{N: c})
				}
				if err := rec(c); err != nil {
					return err
				}
			}
			return nil
		}
		return out, rec(n)
	case AxisFollowingSibling, AxisPrecedingSibling:
		if n.Parent == nil {
			return out, nil
		}
		for i, s := range n.Parent.Children {
			if s == n && axis == AxisFollowingSibling {
				cands = n.Parent.Children[i+1:]
			} else if s == n {
				cands = n.Parent.Children[:i]
			}
		}
	default:
		return nil, fmt.Errorf("query: unsupported axis %v over constructed nodes", axis)
	}
	for _, c := range cands {
		if matchesTempNode(c, test) {
			out = append(out, &TempItem{N: c})
		}
	}
	return out, nil
}

func matchesTempNode(t *TempNode, test NodeTest) bool {
	return matchesKind(t.Kind, t.Name, test)
}
