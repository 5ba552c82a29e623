package query

// The executor's storage access. Every axis step, text read and serialization
// walk reads the block chains of §4.1: producers open cursors at a node's own
// child, sibling or list pointers, and fill decodes the runs of descriptors
// that lie on one page under a single page view (storage.ReadRun), straight
// into slab entries.
//
// A statement reads through its ExecCtx's reader. Over a snapshot that is
// heldViews: the last pages the statement viewed stay pinned (or, for a page
// a writer has superseded, referenced on its version chain), and the next
// read of one of them is served from the view it already has.

import (
	"sedna/internal/core"
	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
	"sedna/internal/txn"
)

// byHandle returns the node of doc with the given handle (the document node:
// Doc.RootHandle; an index probe's result).
func (e *env) byHandle(doc *storage.Doc, h sas.XPtr) (*NodeItem, error) {
	d, err := storage.DescOf(e.r, h)
	if err != nil {
		return nil, err
	}
	return e.node(doc, d), nil
}

// parent returns n's parent (nil for the document node).
func (e *env) parent(n *NodeItem) (*NodeItem, error) {
	if n.D.Parent.IsNil() {
		return nil, nil
	}
	return e.byHandle(n.Doc, n.D.Parent)
}

// text appends n's own text value to dst.
func (e *env) text(n *NodeItem, dst []byte) ([]byte, error) {
	return storage.AppendText(e.r, n.D.Text, n.D.TextLen, dst)
}

// children opens n's children in document order.
func (e *env) children(n *NodeItem) (cursor, error) {
	first, err := storage.FirstChildPtr(e.r, &n.D)
	return cursor{doc: n.Doc, at: first, link: storage.SiblingLink}, err
}

// following opens n's right siblings.
func following(n *NodeItem) cursor {
	return cursor{doc: n.Doc, at: n.D.RightSib, link: storage.SiblingLink}
}

// childrenOfSchema opens n's children clustered under one schema child — the
// single-schema-child fast path of the child axis: the child's slot, then the
// in-list chain while the parent stays the same (children of one parent are
// contiguous in the schema node's list).
func childrenOfSchema(n *NodeItem, parent, child *schema.Node) cursor {
	return cursor{doc: n.Doc, at: n.D.ChildAtSlot(parent.ChildIndex(child)), link: storage.ListLink, parent: n.D.Handle, sn: child}
}

// descendantScan opens sn's instances inside the subtree of anc, an instance
// of ancSN. It starts at anc's first instance of sn, found through anc's own
// child pointers (storage.FirstInRange), so opening a scan costs the same for
// the first context node of a document as for the last; the runs end where
// anc's numbering-scheme label stops being an ancestor — never under the
// document node, which every node of a list lies under. Counts one schema
// scan.
func (e *env) descendantScan(sn *schema.Node, anc *NodeItem, ancSN *schema.Node) (cursor, error) {
	e.ctx.stats().AddSchemaScans(1)
	first, err := storage.FirstInRange(e.r, &anc.D, ancSN, sn)
	c := cursor{doc: anc.Doc, at: first, link: storage.ListLink, sn: sn}
	if !anc.D.Parent.IsNil() {
		c.under = &anc.D.Label
	}
	return c, err
}

// schemaScan opens every instance of sn (the whole-document structural-path
// fast path). Counts one schema scan.
func (e *env) schemaScan(doc *storage.Doc, sn *schema.Node) cursor {
	e.ctx.stats().AddSchemaScans(1)
	return cursor{doc: doc, at: sn.FirstBlock, link: storage.ListLink, sn: sn}
}

// fill decodes the cursor's next nodes into dst — at least one unless the
// cursor is done — and returns the cursor advanced past them.
func (e *env) fill(c cursor, dst []NodeItem) (int, cursor, error) {
	s := &e.ctx.nodes
	s.dst, s.n, s.doc = dst, 0, c.doc
	var err error
	c.at, err = storage.ReadRun(e.r, c.at, c.link, c.parent, c.under, s)
	s.dst = nil
	return s.n, c, err
}

// storeAccess adapts the executor's storage access to core.NodeAccess for
// result serialization. A node's children stay in the slab for as long as the
// serializer works on them.
type storeAccess struct{ e *env }

func (a storeAccess) SchemaID(n Item) uint32 { return n.(*NodeItem).D.SchemaID }

func (a storeAccess) Children(n Item, v core.ChildVisitor[Item]) error {
	m := a.e.ctx.nodes.mark()
	defer a.e.ctx.nodes.release(m)
	kids, err := storedChildren(a.e, n.(*NodeItem))
	if err != nil {
		return err
	}
	return v.SerializeChildren(n, kids)
}

// Text reuses one buffer: the serializer writes a value out before it asks
// for the next.
func (a storeAccess) Text(n Item) ([]byte, error) {
	b, err := a.e.text(n.(*NodeItem), a.e.ctx.textBuf[:0])
	a.e.ctx.textBuf = b
	return b, err
}

// maxHeldViews is how many page views one statement keeps. A value
// comparison two child steps below a context node reads five pages per node —
// the context's own list, one page per step, the text node and the text
// record — and those pages change slowly from node to node.
const maxHeldViews = 8

// heldViews is the storage.Reader of one statement over a snapshot
// transaction. It keeps the maxHeldViews pages it viewed most recently and
// serves a read of one of them from the view it holds: no stripe lock, map
// lookup or pin. What it holds cannot change under it — committed bytes are
// immutable in the buffer pool, and a writer's first touch re-points the
// frame instead of writing into them — and is the page as of the snapshot
// for the whole statement. The views are let go when the statement ends
// (release). Update transactions read through the transaction itself, one
// view per read: PinWrite re-points a frame under its own writer.
//
// Not safe for concurrent use.
type heldViews struct {
	tx    *txn.Tx
	clock uint32
	views [maxHeldViews]heldView
}

// heldView is one held page; page is nil in a free slot.
type heldView struct {
	base sas.XPtr // the page's base pointer
	page []byte
	pin  any
	used uint32 // heldViews.clock at the last read, for LRU replacement
}

var _ storage.Reader = (*heldViews)(nil)

// ViewPage implements storage.Reader. The view stays held; the nil pin makes
// the caller's ReleasePage a no-op.
func (h *heldViews) ViewPage(p sas.XPtr) ([]byte, any, error) {
	base := p.PageBase()
	h.clock++
	victim := &h.views[0]
	for i := range h.views {
		v := &h.views[i]
		if v.base == base && v.page != nil {
			v.used = h.clock
			return v.page, nil, nil
		}
		if v.used < victim.used {
			victim = v
		}
	}
	page, pin, err := h.tx.ViewPage(p)
	if err != nil {
		return nil, nil, err
	}
	if victim.page != nil {
		h.tx.ReleasePage(victim.pin)
	}
	*victim = heldView{base: base, page: page, pin: pin, used: h.clock}
	return page, nil, nil
}

// ReleasePage implements storage.Reader: held views are let go by release.
func (h *heldViews) ReleasePage(any) {}

// ReadPage implements storage.Reader.
func (h *heldViews) ReadPage(p sas.XPtr, fn func(page []byte) error) error {
	page, _, err := h.ViewPage(p)
	if err != nil {
		return err
	}
	return fn(page)
}

// release lets every held view go.
func (h *heldViews) release() {
	for i := range h.views {
		if v := &h.views[i]; v.page != nil {
			h.tx.ReleasePage(v.pin)
			*v = heldView{}
		}
	}
}
