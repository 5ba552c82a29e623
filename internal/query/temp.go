package query

import (
	"strings"

	"sedna/internal/schema"
)

// TempNode is a node constructed during query evaluation (§5.2.1). By
// default element construction deep-copies its content into temp nodes; a
// constructor the rewriter proved "virtual" instead stores references to
// stored subtrees (Ref children), avoiding the copy. Navigation into a
// virtual subtree expands the reference lazily, preserving semantics.
type TempNode struct {
	Kind schema.NodeKind
	Name string
	Text string

	Parent   *TempNode
	Children []*TempNode

	// Ref marks a virtual reference to a stored subtree; such a node has no
	// Children of its own until expanded.
	Ref *NodeItem

	ord uint64 // construction ordinal: document order among temp nodes
}

// newTempNode allocates a constructed node with the next ordinal. The
// counter is atomic for safety, but parallel sections exclude constructors
// (parallelSafeFLWOR) precisely because worker interleaving would make these
// ordinals — the document order of constructed nodes — nondeterministic.
func (c *ExecCtx) newTempNode(kind schema.NodeKind, name string) *TempNode {
	return &TempNode{Kind: kind, Name: name, ord: c.shared().tempOrd.Add(1)}
}

// append links child under n.
func (n *TempNode) append(child *TempNode) {
	child.Parent = n
	n.Children = append(n.Children, child)
}

// expand materializes a virtual reference into real temp children (deep
// copy on demand). env provides storage access; the expansion counts as a
// deep copy for the E9 statistics.
func (n *TempNode) expand(env *env) error {
	if n.Ref == nil {
		return nil
	}
	ref := n.Ref
	n.Ref = nil
	env.ctx.stats().AddDeepCopies(1)
	copied, err := deepCopyStored(env, ref)
	if err != nil {
		return err
	}
	// Graft the copied node's identity onto n.
	n.Kind, n.Name, n.Text = copied.Kind, copied.Name, copied.Text
	n.Children = copied.Children
	for _, c := range n.Children {
		c.Parent = n
	}
	return nil
}

// deepCopyStored copies a stored subtree into temp nodes — the expensive
// operation element constructors pay by default (§5.2.1). The copy holds no
// stored node, so the slab entries the walk read are returned.
func deepCopyStored(env *env, it *NodeItem) (*TempNode, error) {
	m := env.ctx.nodes.mark()
	defer env.ctx.nodes.release(m)
	sn := it.Doc.Schema.ByID(it.D.SchemaID)
	t := env.ctx.newTempNode(sn.Kind, sn.Name)
	if sn.Kind.HasText() {
		b, err := it.st.text(env, it, nil)
		if err != nil {
			return nil, err
		}
		t.Text = string(b)
		env.ctx.stats().AddBytesCopied(uint64(len(b)))
		return t, nil
	}
	kids, err := storedChildren(env, it)
	if err != nil {
		return nil, err
	}
	for _, kid := range kids {
		ct, err := deepCopyStored(env, kid.(*NodeItem))
		if err != nil {
			return nil, err
		}
		t.append(ct)
	}
	return t, nil
}

// storedChildren lists the children of a stored node in document order.
func storedChildren(env *env, it *NodeItem) ([]Item, error) {
	c, err := it.st.children(env, it)
	if err != nil {
		return nil, err
	}
	k := collector{e: env}
	err = drain(env, c, &k)
	return k.out, err
}

// stringValue concatenates descendant text of a temp node.
func (n *TempNode) stringValue(env *env) (string, error) {
	if n.Kind.HasText() {
		return n.Text, nil
	}
	var sb strings.Builder
	var rec func(t *TempNode) error
	rec = func(t *TempNode) error {
		if t.Ref != nil {
			s, err := nodeStringValue(env, t.Ref)
			if err != nil {
				return err
			}
			sb.WriteString(s)
			return nil
		}
		if t.Kind == schema.KindText {
			sb.WriteString(t.Text)
			return nil
		}
		if t.Kind == schema.KindAttribute || t.Kind == schema.KindComment || t.Kind == schema.KindPI {
			if t != n {
				return nil // attribute/comment/PI text is not element content
			}
			sb.WriteString(t.Text)
			return nil
		}
		for _, c := range t.Children {
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	err := rec(n)
	return sb.String(), err
}
