package query

// The executor's document-storage interface. Every axis step, text read and
// serialization walk goes through a docStore, of which there are two
// implementations: pagedStore decodes runs of descriptors out of the block
// chains (one page view per run, storage.ReadRun), and residentStore reads
// the compressed in-memory resident representation (a per-document structural
// array built under a snapshot and cached with commit-timestamp validation).
// Which one serves a document is decided once per statement and document in
// env.source, and every node carries its source from then on; both produce
// the same nodes in the same order, so query output is byte-identical across
// backends.

import (
	"sedna/internal/core"
	"sedna/internal/resident"
	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
	"sedna/internal/trace"
)

// Storage-backend names, used for the per-step EXPLAIN/PROFILE annotation.
const (
	storagePaged    = "paged"
	storageResident = "resident"
)

// docSource is a document as one statement reads it: the document and the
// store that serves it. Every NodeItem points at one.
type docSource struct {
	Doc *storage.Doc
	st  docStore
}

// docStore is the small storage interface the executor runs against. The
// producers return cursors; fill decodes a cursor's next nodes into a batch.
type docStore interface {
	kind() string
	// byHandle returns the node with the given handle (the document node:
	// Doc.RootHandle; an index probe's result).
	byHandle(e *env, h sas.XPtr) (*NodeItem, error)
	// parent returns n's parent (nil for the document node).
	parent(e *env, n *NodeItem) (*NodeItem, error)
	// text appends n's text value to dst.
	text(e *env, n *NodeItem, dst []byte) ([]byte, error)
	// children opens n's children, following opens n's right siblings, in
	// document order.
	children(e *env, n *NodeItem) (cursor, error)
	following(n *NodeItem) cursor
	// childrenOfSchema opens n's children clustered under one schema child —
	// the single-schema-child fast path of the child axis.
	childrenOfSchema(n *NodeItem, parent, child *schema.Node) cursor
	// descendantScan opens sn's instances inside the subtree of anc, an
	// instance of ancSN. Counts one schema scan.
	descendantScan(e *env, sn *schema.Node, anc *NodeItem, ancSN *schema.Node) (cursor, error)
	// schemaScan opens every instance of sn (the whole-document
	// structural-path fast path). Counts one schema scan.
	schemaScan(e *env, sn *schema.Node) cursor
	// fill decodes the cursor's next nodes into dst — at least one unless the
	// cursor is done — and returns the cursor advanced past them.
	fill(e *env, c cursor, dst []NodeItem) (int, cursor, error)
}

// source resolves (and memoizes per statement) how doc is read. The first
// resolution per document may build the resident representation, so it runs
// outside the registry lock; registration also reconciles the transaction's
// readahead depth — prefetch is suppressed while every document touched so
// far is resident (the executor never dereferences their chain pages), and
// restored as soon as any paged document joins.
func (e *env) source(doc *storage.Doc) *docSource {
	sh := e.ctx.shared()
	sh.storeMu.Lock()
	if src, ok := sh.stores[doc.ID]; ok {
		sh.storeMu.Unlock()
		return src
	}
	sh.storeMu.Unlock()

	src := e.resolveSource(doc)

	sh.storeMu.Lock()
	defer sh.storeMu.Unlock()
	if prev, ok := sh.stores[doc.ID]; ok {
		// A concurrent worker registered first; use its source.
		return prev
	}
	if sh.stores == nil {
		sh.stores = make(map[uint32]*docSource)
	}
	sh.stores[doc.ID] = src
	if e.ctx.Tx != nil && e.ctx.Tx.DB() != nil {
		// One access per statement and document: the residency advisor's
		// hotness signal.
		e.ctx.Tx.DB().Catalog().NoteAccess(doc.Name)
	}
	if src.st.kind() == storageResident {
		sh.residentDocs++
	} else {
		sh.pagedDocs++
	}
	if e.ctx.Tx != nil {
		if sh.residentDocs > 0 && sh.pagedDocs == 0 {
			e.ctx.Tx.SetPrefetchDepth(0)
		} else {
			e.ctx.Tx.SetPrefetchDepth(sh.prefetchDepth)
		}
	}
	return src
}

// resolveSource picks the backend for doc: resident only for read-only
// statements when the mode is on and the cache yields a representation for
// this snapshot's version of the document.
func (e *env) resolveSource(doc *storage.Doc) *docSource {
	ctx := e.ctx
	paged := &docSource{Doc: doc}
	ps := &pagedStore{src: paged}
	paged.st = ps
	if ctx.Tx == nil || ctx.updateStmt || !ctx.Tx.ReadOnly() {
		return paged
	}
	rep, deferred := ctx.Tx.ResidentFor(doc)
	if rep == nil {
		ps.deferred = deferred
		return paged
	}
	src := &docSource{Doc: doc}
	src.st = &residentStore{src: src, rep: rep, paged: ps}
	return src
}

// annotateStorage records on a step span which backend served the step: the
// store of its first stored node (nothing when there are none). A paged step
// whose document would have been resident but for a deferred build says so.
func (ctx *ExecCtx) annotateStorage(sp *trace.Span, items []Item) {
	for _, it := range items {
		if ni, ok := it.(*NodeItem); ok {
			sp.SetStr("storage", ni.st.kind())
			if ps, ok := ni.st.(*pagedStore); ok && ps.deferred {
				sp.SetStr("resident", "deferred")
			}
			return
		}
	}
}

// storeAccess adapts the stores to core.NodeAccess so result serialization
// runs over the backend that produced the nodes. A node's children stay in
// the slab for as long as the serializer works on them.
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
	b, err := n.(*NodeItem).st.text(a.e, n.(*NodeItem), a.e.ctx.textBuf[:0])
	a.e.ctx.textBuf = b
	return b, err
}

// ---------------------------------------------------------------------------
// Paged implementation: page runs over the block chains.

type pagedStore struct {
	src *docSource
	// deferred marks a document the resident cache would serve but whose
	// build it put off (PROFILE shows resident=deferred).
	deferred bool
}

func (*pagedStore) kind() string { return storagePaged }

func (ps *pagedStore) byHandle(e *env, h sas.XPtr) (*NodeItem, error) {
	d, err := storage.DescOf(e.r, h)
	if err != nil {
		return nil, err
	}
	return e.node(ps.src, d), nil
}

func (ps *pagedStore) parent(e *env, n *NodeItem) (*NodeItem, error) {
	if n.D.Parent.IsNil() {
		return nil, nil
	}
	return ps.byHandle(e, n.D.Parent)
}

func (*pagedStore) text(e *env, n *NodeItem, dst []byte) ([]byte, error) {
	return storage.AppendText(e.r, n.D.Text, n.D.TextLen, dst)
}

func (ps *pagedStore) children(e *env, n *NodeItem) (cursor, error) {
	first, err := storage.FirstChildPtr(e.r, &n.D)
	return cursor{src: ps.src, at: first, link: storage.SiblingLink}, err
}

func (ps *pagedStore) following(n *NodeItem) cursor {
	return cursor{src: ps.src, at: n.D.RightSib, link: storage.SiblingLink}
}

func (ps *pagedStore) childrenOfSchema(n *NodeItem, parent, child *schema.Node) cursor {
	// One schema child: its slot, then the in-list chain while the parent
	// stays the same (children of one parent are contiguous in the schema
	// node's list).
	return cursor{src: ps.src, at: n.D.ChildAtSlot(parent.ChildIndex(child)), link: storage.ListLink, parent: n.D.Handle}
}

// descendantScan starts at anc's first instance of sn, found through anc's
// own child pointers (storage.FirstInRange), so opening a scan costs the same
// for the first context node of a document as for the last; the runs end
// where anc's numbering-scheme label stops being an ancestor.
func (ps *pagedStore) descendantScan(e *env, sn *schema.Node, anc *NodeItem, ancSN *schema.Node) (cursor, error) {
	e.ctx.stats().AddSchemaScans(1)
	first, err := storage.FirstInRange(e.r, &anc.D, ancSN, sn)
	return cursor{src: ps.src, at: first, link: storage.ListLink, under: &anc.D.Label}, err
}

func (ps *pagedStore) schemaScan(e *env, sn *schema.Node) cursor {
	e.ctx.stats().AddSchemaScans(1)
	return cursor{src: ps.src, at: sn.FirstBlock, link: storage.ListLink}
}

func (ps *pagedStore) fill(e *env, c cursor, dst []NodeItem) (int, cursor, error) {
	s := &e.ctx.nodes
	s.dst, s.n, s.src = dst, 0, c.src
	var err error
	c.at, err = storage.ReadRun(e.r, c.at, c.link, c.parent, c.under, s)
	s.dst = nil
	return s.n, c, err
}

// ---------------------------------------------------------------------------
// Resident implementation: structural-array iteration. An entry carries its
// index in the array (D.Resident), so a step from it needs no lookup.

type residentStore struct {
	src *docSource
	rep *resident.Rep
	// paged serves a handle the array does not hold (impossible for the
	// document's own nodes, but cheap to guard): paged reads stay valid under
	// the same snapshot.
	paged *pagedStore
}

func (*residentStore) kind() string { return storageResident }

// set writes node i into a slab entry.
func (rs *residentStore) set(it *NodeItem, i int32) *NodeItem {
	nd := &rs.rep.Nodes[i]
	*it = NodeItem{docSource: rs.src, D: storage.Desc{
		SchemaID: nd.SchemaID, DocID: rs.rep.DocID, Handle: nd.Handle, Label: rs.rep.Label(i), Resident: i + 1,
	}}
	return it
}

func (rs *residentStore) byHandle(e *env, h sas.XPtr) (*NodeItem, error) {
	i, ok := rs.rep.IndexOf(h)
	if !ok {
		return rs.paged.byHandle(e, h)
	}
	return rs.set(&e.ctx.nodes.take(1)[0], i), nil
}

func (rs *residentStore) parent(e *env, n *NodeItem) (*NodeItem, error) {
	p := rs.rep.Nodes[n.D.Resident-1].Parent
	if p < 0 {
		return nil, nil
	}
	return rs.set(&e.ctx.nodes.take(1)[0], p), nil
}

func (rs *residentStore) text(e *env, n *NodeItem, dst []byte) ([]byte, error) {
	return append(dst, rs.rep.NodeText(n.D.Resident-1)...), nil
}

func (rs *residentStore) children(e *env, n *NodeItem) (cursor, error) {
	return cursor{src: rs.src, sib: rs.rep.FirstChild(n.D.Resident-1) + 1}, nil
}

func (rs *residentStore) following(n *NodeItem) cursor {
	return cursor{src: rs.src, sib: rs.rep.NextSib(n.D.Resident-1) + 1}
}

func (rs *residentStore) childrenOfSchema(n *NodeItem, parent, child *schema.Node) cursor {
	// Schema nodes have a fixed depth, so the schema child's instances inside
	// n's subtree are exactly n's children.
	return cursor{src: rs.src, list: rs.rep.DescendantRange(child.ID, n.D.Resident-1)}
}

func (rs *residentStore) descendantScan(e *env, sn *schema.Node, anc *NodeItem, ancSN *schema.Node) (cursor, error) {
	e.ctx.stats().AddSchemaScans(1)
	return cursor{src: rs.src, list: rs.rep.DescendantRange(sn.ID, anc.D.Resident-1)}, nil
}

func (rs *residentStore) schemaScan(e *env, sn *schema.Node) cursor {
	e.ctx.stats().AddSchemaScans(1)
	return cursor{src: rs.src, list: rs.rep.BySchema[sn.ID]}
}

func (rs *residentStore) fill(e *env, c cursor, dst []NodeItem) (int, cursor, error) {
	n := 0
	for ; n < len(dst) && n < len(c.list); n++ {
		rs.set(&dst[n], c.list[n])
	}
	c.list = c.list[n:]
	for ; n < len(dst) && c.sib > 0; n++ {
		rs.set(&dst[n], c.sib-1)
		c.sib = rs.rep.NextSib(c.sib-1) + 1
	}
	return n, c, nil
}
