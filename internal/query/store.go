package query

// The executor's document-storage interface. Every axis step, text read and
// serialization walk goes through a docStore, of which there are two
// implementations: pagedStore iterates the block chains exactly as before,
// and residentStore iterates the compressed in-memory resident
// representation (a per-document structural array built under a snapshot and
// cached with commit-timestamp validation). Which one serves a document is
// decided once per statement and document in storeFor; both produce the same
// descriptors in the same order, so query output is byte-identical across
// backends.

import (
	"sedna/internal/resident"
	"sedna/internal/schema"
	"sedna/internal/storage"
	"sedna/internal/trace"
)

// Storage-backend names, used for the per-step EXPLAIN/PROFILE annotation.
const (
	storagePaged    = "paged"
	storageResident = "resident"
)

// docStore is the small storage interface the executor runs against.
// Descriptors returned by a resident store carry no paged navigation fields
// (block pointers, child slots), so callers must navigate them only through
// the store that produced them.
type docStore interface {
	kind() string
	// root returns the document node's descriptor.
	root(e *env, doc *storage.Doc) (storage.Desc, error)
	// parent returns d's parent (ok=false for the document node).
	parent(e *env, doc *storage.Doc, d *storage.Desc) (storage.Desc, bool, error)
	// nextSibling / prevSibling step the sibling chain (ok=false at an end).
	nextSibling(e *env, doc *storage.Doc, d *storage.Desc) (storage.Desc, bool, error)
	prevSibling(e *env, doc *storage.Doc, d *storage.Desc) (storage.Desc, bool, error)
	// children returns d's children in document order.
	children(e *env, doc *storage.Doc, d *storage.Desc) ([]storage.Desc, error)
	// childrenOfSchema returns d's children clustered under one schema
	// child, in document order — the single-schema-child fast path of the
	// child axis.
	childrenOfSchema(e *env, doc *storage.Doc, d *storage.Desc, parent, child *schema.Node) ([]storage.Desc, error)
	// text returns d's text value (nil for nodes without text).
	text(e *env, doc *storage.Doc, d *storage.Desc) ([]byte, error)
	// descendantScan opens a document-order stream over sn's instances
	// inside anc's subtree (nil when empty). Counts one schema scan.
	descendantScan(e *env, doc *storage.Doc, sn *schema.Node, anc *storage.Desc) (descStream, error)
	// schemaScan visits every instance of sn in document order (the
	// whole-document structural-path fast path). Counts one schema scan.
	schemaScan(e *env, doc *storage.Doc, sn *schema.Node, fn func(storage.Desc) (bool, error)) error
}

// descStream is one per-schema-node document-order stream of a descendant
// scan; mergeStreams k-way merges streams by NID label.
type descStream interface {
	valid() bool
	desc() *storage.Desc
	advance(e *env) error
}

// storeFor resolves (and memoizes per statement) the store serving doc. The
// first resolution per document may build the resident representation, so it
// runs outside the registry lock; registration also reconciles the
// transaction's readahead depth — prefetch is suppressed while every
// document touched so far is resident (the executor never dereferences
// their chain pages), and restored as soon as any paged document joins.
func (e *env) storeFor(doc *storage.Doc) docStore {
	sh := e.ctx.shared()
	sh.storeMu.Lock()
	if st, ok := sh.stores[doc.ID]; ok {
		sh.storeMu.Unlock()
		return st
	}
	sh.storeMu.Unlock()

	st := e.resolveStore(doc)

	sh.storeMu.Lock()
	if prev, ok := sh.stores[doc.ID]; ok {
		// A concurrent worker registered first; use its store.
		st = prev
	} else {
		if sh.stores == nil {
			sh.stores = make(map[uint32]docStore)
		}
		sh.stores[doc.ID] = st
		if e.ctx.Tx != nil && e.ctx.Tx.DB() != nil {
			// One access per statement and document: the residency advisor's
			// hotness signal.
			e.ctx.Tx.DB().Catalog().NoteAccess(doc.Name)
		}
		if st.kind() == storageResident {
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
	}
	sh.storeMu.Unlock()
	return st
}

// resolveStore picks the backend for doc: resident only for read-only
// statements when the mode is on and the cache yields a representation for
// this snapshot's version of the document.
func (e *env) resolveStore(doc *storage.Doc) docStore {
	ctx := e.ctx
	if ctx.Tx == nil || ctx.updateStmt || !ctx.Tx.ReadOnly() {
		return pagedStore{}
	}
	rep, deferred := ctx.Tx.ResidentFor(doc)
	if rep != nil {
		return &residentStore{rep: rep}
	}
	return pagedStore{deferred: deferred}
}

// annotateStorage records on a step span which backend served the step that
// produced items: the store of the first stored node's document (nothing
// when there are no stored nodes). A paged step whose document would have
// been resident but for a deferred build says so.
func (ctx *ExecCtx) annotateStorage(sp *trace.Span, items []Item) {
	for _, it := range items {
		ni, ok := it.(*NodeItem)
		if !ok {
			continue
		}
		sh := ctx.shared()
		sh.storeMu.Lock()
		st := sh.stores[ni.Doc.ID]
		sh.storeMu.Unlock()
		if st == nil {
			return
		}
		sp.SetStr("storage", st.kind())
		if ps, ok := st.(pagedStore); ok && ps.deferred {
			sp.SetStr("resident", "deferred")
		}
		return
	}
}

// storeAccess adapts a docStore to core.NodeAccess so result serialization
// runs over the same backend that produced the nodes (resident-origin
// descriptors carry no paged navigation fields).
type storeAccess struct {
	e   *env
	doc *storage.Doc
	st  docStore
}

func (a storeAccess) Children(d *storage.Desc) ([]storage.Desc, error) {
	return a.st.children(a.e, a.doc, d)
}

func (a storeAccess) Text(d *storage.Desc) ([]byte, error) {
	return a.st.text(a.e, a.doc, d)
}

// ---------------------------------------------------------------------------
// Paged implementation: block-chain iteration.

type pagedStore struct {
	// deferred marks a document the resident cache would serve but whose
	// build it put off (PROFILE shows resident=deferred).
	deferred bool
}

func (pagedStore) kind() string { return storagePaged }

func (pagedStore) root(e *env, doc *storage.Doc) (storage.Desc, error) {
	return storage.DescOf(e.r, doc.RootHandle)
}

func (pagedStore) parent(e *env, doc *storage.Doc, d *storage.Desc) (storage.Desc, bool, error) {
	return storage.ParentOf(e.r, d)
}

func (pagedStore) nextSibling(e *env, doc *storage.Doc, d *storage.Desc) (storage.Desc, bool, error) {
	if d.RightSib.IsNil() {
		return storage.Desc{}, false, nil
	}
	nd, err := storage.ReadDesc(e.r, d.RightSib)
	if err != nil {
		return storage.Desc{}, false, err
	}
	return nd, true, nil
}

func (pagedStore) prevSibling(e *env, doc *storage.Doc, d *storage.Desc) (storage.Desc, bool, error) {
	if d.LeftSib.IsNil() {
		return storage.Desc{}, false, nil
	}
	nd, err := storage.ReadDesc(e.r, d.LeftSib)
	if err != nil {
		return storage.Desc{}, false, err
	}
	return nd, true, nil
}

func (pagedStore) children(e *env, doc *storage.Doc, d *storage.Desc) ([]storage.Desc, error) {
	var out []storage.Desc
	c, ok, err := storage.FirstChild(e.r, d)
	for {
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		if err := e.ctx.checkKilled(); err != nil {
			return nil, err
		}
		out = append(out, c)
		if c.RightSib.IsNil() {
			return out, nil
		}
		c, err = storage.ReadDesc(e.r, c.RightSib)
	}
}

func (pagedStore) childrenOfSchema(e *env, doc *storage.Doc, d *storage.Desc, parent, child *schema.Node) ([]storage.Desc, error) {
	// One schema child: follow its slot and the in-list chain while the
	// parent stays the same (children of one parent are contiguous in the
	// schema node's list).
	first := d.ChildAtSlot(parent.ChildIndex(child))
	if first.IsNil() {
		return nil, nil
	}
	cd, err := storage.ReadDesc(e.r, first)
	if err != nil {
		return nil, err
	}
	out := make([]storage.Desc, 0, 1)
	for {
		if err := e.ctx.checkKilled(); err != nil {
			return nil, err
		}
		out = append(out, cd)
		next, ok, err := storage.NextSameParent(e.r, &cd)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		cd = next
	}
}

func (pagedStore) text(e *env, doc *storage.Doc, d *storage.Desc) ([]byte, error) {
	return storage.Text(e.r, d)
}

func (pagedStore) descendantScan(e *env, doc *storage.Doc, sn *schema.Node, anc *storage.Desc) (descStream, error) {
	rs, err := newRangeScan(e, doc, sn, anc)
	if err != nil {
		return nil, err
	}
	if rs == nil {
		return nil, nil
	}
	return rs, nil
}

func (pagedStore) schemaScan(e *env, doc *storage.Doc, sn *schema.Node, fn func(storage.Desc) (bool, error)) error {
	e.ctx.stats().AddSchemaScans(1)
	return storage.ScanSchema(e.r, sn, fn)
}

// ---------------------------------------------------------------------------
// Resident implementation: structural-array iteration. Context descriptors
// resolve into the array by the index they carry, or by node handle when
// they came from a block (an index probe's result); a paged-origin
// descriptor that is not in the array (impossible for the document's own
// nodes, but cheap to guard) falls back to paged navigation per operation —
// paged reads stay valid under the same snapshot.

type residentStore struct {
	rep *resident.Rep
}

func (rs *residentStore) kind() string { return storageResident }

func (rs *residentStore) root(e *env, doc *storage.Doc) (storage.Desc, error) {
	return rs.rep.Desc(0), nil
}

func (rs *residentStore) parent(e *env, doc *storage.Doc, d *storage.Desc) (storage.Desc, bool, error) {
	i, ok := rs.rep.Index(d)
	if !ok {
		return pagedStore{}.parent(e, doc, d)
	}
	p := rs.rep.Nodes[i].Parent
	if p < 0 {
		return storage.Desc{}, false, nil
	}
	return rs.rep.Desc(p), true, nil
}

func (rs *residentStore) nextSibling(e *env, doc *storage.Doc, d *storage.Desc) (storage.Desc, bool, error) {
	i, ok := rs.rep.Index(d)
	if !ok {
		return pagedStore{}.nextSibling(e, doc, d)
	}
	s := rs.rep.Nodes[i].NextSib
	if s < 0 {
		return storage.Desc{}, false, nil
	}
	return rs.rep.Desc(s), true, nil
}

func (rs *residentStore) prevSibling(e *env, doc *storage.Doc, d *storage.Desc) (storage.Desc, bool, error) {
	i, ok := rs.rep.Index(d)
	if !ok {
		return pagedStore{}.prevSibling(e, doc, d)
	}
	s := rs.rep.Nodes[i].PrevSib
	if s < 0 {
		return storage.Desc{}, false, nil
	}
	return rs.rep.Desc(s), true, nil
}

func (rs *residentStore) children(e *env, doc *storage.Doc, d *storage.Desc) ([]storage.Desc, error) {
	i, ok := rs.rep.Index(d)
	if !ok {
		return pagedStore{}.children(e, doc, d)
	}
	var out []storage.Desc
	for c := rs.rep.Nodes[i].FirstChild; c >= 0; c = rs.rep.Nodes[c].NextSib {
		out = append(out, rs.rep.Desc(c))
	}
	return out, nil
}

func (rs *residentStore) childrenOfSchema(e *env, doc *storage.Doc, d *storage.Desc, parent, child *schema.Node) ([]storage.Desc, error) {
	i, ok := rs.rep.Index(d)
	if !ok {
		return pagedStore{}.childrenOfSchema(e, doc, d, parent, child)
	}
	list := rs.rep.ChildrenOfSchema(child.ID, i)
	if len(list) == 0 {
		return nil, nil
	}
	out := make([]storage.Desc, len(list))
	for k, ci := range list {
		out[k] = rs.rep.Desc(ci)
	}
	return out, nil
}

func (rs *residentStore) text(e *env, doc *storage.Doc, d *storage.Desc) ([]byte, error) {
	i, ok := rs.rep.Index(d)
	if !ok {
		return storage.Text(e.r, d)
	}
	return rs.rep.NodeText(i), nil
}

func (rs *residentStore) descendantScan(e *env, doc *storage.Doc, sn *schema.Node, anc *storage.Desc) (descStream, error) {
	i, ok := rs.rep.Index(anc)
	if !ok {
		return pagedStore{}.descendantScan(e, doc, sn, anc)
	}
	e.ctx.stats().AddSchemaScans(1)
	list := rs.rep.DescendantRange(sn.ID, i)
	if len(list) == 0 {
		return nil, nil
	}
	return &residentScan{rep: rs.rep, list: list, d: rs.rep.Desc(list[0])}, nil
}

func (rs *residentStore) schemaScan(e *env, doc *storage.Doc, sn *schema.Node, fn func(storage.Desc) (bool, error)) error {
	e.ctx.stats().AddSchemaScans(1)
	for _, i := range rs.rep.BySchema[sn.ID] {
		cont, err := fn(rs.rep.Desc(i))
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
	}
	return nil
}

// residentScan streams one per-schema index-list slice, materializing
// descriptors on demand.
type residentScan struct {
	rep  *resident.Rep
	list []int32
	pos  int
	d    storage.Desc
}

func (s *residentScan) valid() bool         { return s.pos < len(s.list) }
func (s *residentScan) desc() *storage.Desc { return &s.d }

func (s *residentScan) advance(e *env) error {
	s.pos++
	if s.valid() {
		s.d = s.rep.Desc(s.list[s.pos])
	}
	return nil
}
