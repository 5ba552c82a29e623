package storage

import (
	"fmt"

	"sedna/internal/nid"
	"sedna/internal/sas"
	"sedna/internal/schema"
)

// Streaming bulk loader. The paper treats bulk load as a first-class path:
// a document arriving as a token stream is in document order, so descriptor
// blocks can be constructed append-only per schema node instead of funneling
// every node through the generic insert. The consequences the loader
// exploits:
//
//   - Sibling and parent back-patches always land in builder memory. A new
//     node's left sibling and its parent are, by document order, the most
//     recently appended descriptors of their schema nodes — and the loader
//     keeps exactly one open (in-memory) block per schema node, flushing a
//     block only when its successor opens. The open elements of the parse
//     stack are therefore always patchable without a page write.
//   - NIDs are assigned sequentially from evenly pre-spaced labels per
//     level (nid.BulkNth), never by midpoint re-derivation between two
//     existing labels.
//   - Text goes straight into builder-owned text blocks; indirection
//     entries are appended into builder-owned indirection blocks.
//   - A completed block is handed to the transaction as a whole page
//     (Writer.WritePage): the transaction layer logs it as one whole-page
//     WAL image, so recovery replays the load physically, and the slice
//     becomes the buffer pool's frame for the page with no copy, no read
//     and, for a page nobody else can see, no pre-image. The builder never
//     touches a flushed page's slice again; a later patch of a flushed
//     block goes through WriteAt.
//
// Widening keeps the §4.1 delayed-widening economics: when an open element
// gains a child of a previously unseen kind, only that element's descriptor
// (by the open-block invariant, the last of its block) is popped and
// re-appended at the new width; earlier blocks keep their narrower layout.
//
// The loader requires a freshly created document (only the root descriptor
// exists): appends start after "nothing", so every chain is built from
// scratch and rollback reduces to the transaction's ordinary page
// pre-images plus the registered Defer undos.

// BulkNode is the loader's view of one appended node. Callers hold
// BulkNodes only for open elements (the parse stack); leaves need none.
type BulkNode struct {
	handle sas.XPtr
	ptr    sas.XPtr
	sn     *schema.Node
	label  nid.Label
	parent *BulkNode

	slots     int    // child-pointer slots of the encoded descriptor
	ord       uint64 // next child ordinal (BulkSpacing pre-spaced labels)
	lastChild sas.XPtr

	// external marks a descriptor living outside builder memory — the
	// pre-existing root before its adoption into a builder block.
	external bool
}

// BulkStats summarizes one completed bulk load.
type BulkStats struct {
	Nodes        uint64 // descriptors appended (the pre-existing root excluded)
	Blocks       uint64 // node blocks built
	TextBytes    uint64 // text payload bytes stored
	PagesFlushed uint64 // whole pages written (node + indirection + text)
}

// bulkBlock is one in-construction node block: a private page image plus
// its live header. The header is encoded into the image only at flush time.
type bulkBlock struct {
	base sas.XPtr
	page []byte
	h    nodeBlockHeader
}

// hasRoom reports whether one more descriptor fits. Builder blocks are
// append-only (no free chain), so geometry is the whole answer.
func (blk *bulkBlock) hasRoom() bool {
	return int(blk.h.SlotTop)+blk.h.DescSize <= sas.PageSize
}

// append encodes d into the next slot and links it at the chain tail.
func (blk *bulkBlock) append(d *Desc, ov sas.XPtr, ovLen int) sas.XPtr {
	off := blk.h.SlotTop
	prev := blk.h.LastDesc
	encodeDesc(blk.page[off:int(off)+blk.h.DescSize], d, ov, ovLen, 0, prev)
	if prev == 0 {
		blk.h.FirstDesc = off
	} else {
		putU16(blk.page, int(prev)+dNextIn, off)
	}
	blk.h.LastDesc = off
	blk.h.SlotTop = off + uint16(blk.h.DescSize)
	blk.h.Count++
	return blk.base.Add(uint32(off))
}

// appendRaw places already-encoded descriptor bytes (zero-extended to this
// block's width) into the next slot, fixing only the in-block chain fields.
func (blk *bulkBlock) appendRaw(raw []byte) sas.XPtr {
	off := blk.h.SlotTop
	prev := blk.h.LastDesc
	copy(blk.page[off:int(off)+blk.h.DescSize], raw)
	putU16(blk.page, int(off)+dNextIn, 0)
	putU16(blk.page, int(off)+dPrevIn, prev)
	if prev == 0 {
		blk.h.FirstDesc = off
	} else {
		putU16(blk.page, int(prev)+dNextIn, off)
	}
	blk.h.LastDesc = off
	blk.h.SlotTop = off + uint16(blk.h.DescSize)
	blk.h.Count++
	return blk.base.Add(uint32(off))
}

// bulkSchemaState tracks the builder-owned tail of one schema node's block
// chain.
type bulkSchemaState struct {
	sn      *schema.Node
	open    *bulkBlock
	first   sas.XPtr // first builder-built block
	oldLast sas.XPtr // sn.LastBlock when the builder first touched sn
	blocks  uint32
	nodes   uint64
}

// bulkPage is a builder-owned indirection or text page under construction.
type bulkPage struct {
	base sas.XPtr
	page []byte
}

// BulkLoader constructs a freshly created document's storage directly from
// a document-order node stream. All block construction happens in private
// page images; pages reach the buffer pool (and the WAL) only as completed
// wholes, plus the handful of real writes that stitch builder chains onto
// the document's pre-existing root and indirection block at Finish.
type BulkLoader struct {
	w   Writer
	doc *Doc

	states map[uint32]*bulkSchemaState
	// mem maps page base -> private image for every open builder page, so
	// back-patches and reads are resolved in memory first and fall back to
	// ordinary logged writes only for real pages.
	mem map[sas.XPtr][]byte

	indir        *bulkPage
	indirTop     uint16
	indirCount   uint16
	indirFirst   sas.XPtr
	oldIndirLast sas.XPtr

	text          *bulkPage
	textSlots     uint16
	textDataStart int
	textFirst     sas.XPtr
	oldTextLast   sas.XPtr

	root  *BulkNode
	stats BulkStats

	// flushHook, when set, runs after every whole-page write; an error
	// aborts the load (crash-injection tests hook here).
	flushHook func(pagesFlushed uint64) error
}

// NewBulkLoader prepares a bulk load into doc, which must be freshly
// created in this transaction (root descriptor only).
func NewBulkLoader(w Writer, doc *Doc) (*BulkLoader, error) {
	if len(doc.Schema.Root.Children) != 0 || doc.Schema.Root.NodeCount != 1 {
		return nil, fmt.Errorf("storage: bulk loader requires a freshly created document, %q is not", doc.Name)
	}
	d, err := DescOf(w, doc.RootHandle)
	if err != nil {
		return nil, err
	}
	b := &BulkLoader{
		w:            w,
		doc:          doc,
		states:       make(map[uint32]*bulkSchemaState),
		mem:          make(map[sas.XPtr][]byte),
		oldIndirLast: doc.IndirLast,
		oldTextLast:  doc.TextLast,
	}
	b.root = &BulkNode{
		handle:   doc.RootHandle,
		ptr:      d.Ptr,
		sn:       doc.Schema.Root,
		label:    d.Label,
		slots:    d.ChildSlots,
		external: true,
	}
	return b, nil
}

// Root returns the document node every load starts under.
func (b *BulkLoader) Root() *BulkNode { return b.root }

// SetFlushHook installs a callback invoked after every whole-page write;
// returning an error aborts the load mid-stream (used by crash tests).
func (b *BulkLoader) SetFlushHook(fn func(pagesFlushed uint64) error) { b.flushHook = fn }

// AppendElement appends an element as the next child of parent (which must
// be the innermost open element) and returns its open node.
func (b *BulkLoader) AppendElement(parent *BulkNode, name string) (*BulkNode, error) {
	n := &BulkNode{}
	if err := b.appendNode(parent, schema.KindElement, name, nil, n); err != nil {
		return nil, err
	}
	return n, nil
}

// AppendLeaf appends a childless node (attribute, text, comment, PI) as the
// next child of parent.
func (b *BulkLoader) AppendLeaf(parent *BulkNode, kind schema.NodeKind, name string, text []byte) error {
	var n BulkNode
	return b.appendNode(parent, kind, name, text, &n)
}

// appendNode places one node in document order: schema maintenance, a
// sequential pre-spaced label, descriptor encoding into the schema node's
// open block, text and indirection allocation, and the two back-patches
// (left sibling's forward pointer, parent's first-child slot) that the
// open-block invariant guarantees land in builder memory.
func (b *BulkLoader) appendNode(parent *BulkNode, kind schema.NodeKind, name string, text []byte, out *BulkNode) error {
	doc := b.doc
	sn, created := doc.Schema.EnsureChild(parent.sn, kind, name)
	if created {
		b.w.NoteSchemaNode(doc, parent.sn, sn)
		b.w.Defer(func() { doc.Schema.Remove(sn) })
	}
	label := nid.BulkNth(parent.label, parent.ord)
	parent.ord++
	slotIdx := parent.sn.ChildIndex(sn)
	if slotIdx < 0 {
		return fmt.Errorf("storage: bulk load: %s is not a schema child of %s", sn.Path(), parent.sn.Path())
	}
	if slotIdx >= parent.slots {
		if err := b.widen(parent, len(parent.sn.Children)); err != nil {
			return err
		}
	}
	ss := b.state(sn)
	blk := ss.open
	if blk == nil || !blk.hasRoom() {
		var err error
		blk, err = b.rollBlock(ss, len(sn.Children))
		if err != nil {
			return err
		}
	}
	var textPtr sas.XPtr
	if len(text) > 0 {
		var err error
		textPtr, err = b.allocText(text)
		if err != nil {
			return err
		}
		b.stats.TextBytes += uint64(len(text))
	}
	var ovPtr sas.XPtr
	if len(label.Prefix) > nidInlineCap {
		var err error
		ovPtr, err = b.allocText(label.Prefix)
		if err != nil {
			return err
		}
	}
	ptr := blk.base.Add(uint32(blk.h.SlotTop))
	handle, err := b.allocHandle(ptr)
	if err != nil {
		return err
	}
	d := Desc{
		Label:   label,
		Handle:  handle,
		Parent:  parent.handle,
		LeftSib: parent.lastChild,
		Text:    textPtr,
		TextLen: uint32(len(text)),
	}
	blk.append(&d, ovPtr, len(label.Prefix))
	if !parent.lastChild.IsNil() {
		if err := b.patchPtr(parent.lastChild.Add(dRightSib), ptr); err != nil {
			return err
		}
	}
	// The first child of this kind in document order claims the parent's
	// child slot; later siblings of the kind leave it alone.
	slotAddr := parent.ptr.Add(uint32(dChildren + 8*slotIdx))
	cur, err := b.readPtr(slotAddr)
	if err != nil {
		return err
	}
	if cur.IsNil() {
		if err := b.patchPtr(slotAddr, ptr); err != nil {
			return err
		}
	}
	parent.lastChild = ptr
	ss.nodes++
	b.stats.Nodes++
	*out = BulkNode{handle: handle, ptr: ptr, sn: sn, label: label, parent: parent, slots: blk.h.ChildSlots}
	return nil
}

// state returns (creating on first touch) the builder state of sn.
func (b *BulkLoader) state(sn *schema.Node) *bulkSchemaState {
	ss := b.states[sn.ID]
	if ss == nil {
		ss = &bulkSchemaState{sn: sn, oldLast: sn.LastBlock}
		b.states[sn.ID] = ss
	}
	return ss
}

// rollBlock opens a fresh builder block of (at least) the given width for
// ss, sealing and flushing the previous open block behind it.
func (b *BulkLoader) rollBlock(ss *bulkSchemaState, width int) (*bulkBlock, error) {
	if ss.open != nil && width < ss.open.h.ChildSlots {
		width = ss.open.h.ChildSlots
	}
	id, err := b.w.AllocPage()
	if err != nil {
		return nil, err
	}
	base := id.Ptr()
	blk := &bulkBlock{base: base, page: make([]byte, sas.PageSize)}
	blk.h = nodeBlockHeader{
		ChildSlots: width,
		SchemaID:   ss.sn.ID,
		DocID:      b.doc.ID,
		DescSize:   descSizeFor(width),
		SlotTop:    nodeBlockHeaderSize,
	}
	if ss.open != nil {
		blk.h.Prev = ss.open.base
		if err := b.flushNodeBlock(ss.open, base); err != nil {
			return nil, err
		}
	} else {
		blk.h.Prev = ss.oldLast
	}
	if ss.first.IsNil() {
		ss.first = base
	}
	ss.open = blk
	ss.blocks++
	b.stats.Blocks++
	b.mem[base] = blk.page
	return blk, nil
}

// widen grows n's descriptor to the given child-slot width. By the
// open-block invariant, only open elements widen and an open element is
// always the last descriptor of its schema node's open block, so the move
// is a pop off the block tail plus one re-append — never a run move.
func (b *BulkLoader) widen(n *BulkNode, width int) error {
	if width <= n.slots {
		return nil
	}
	if n.external {
		return b.adopt(n, width)
	}
	ss := b.states[n.sn.ID]
	if ss == nil || ss.open == nil {
		return fmt.Errorf("storage: bulk widen: no open block for %s", n.sn.Path())
	}
	blk := ss.open
	off := uint16(n.ptr.PageOffset())
	if blk.base != n.ptr.PageBase() || blk.h.LastDesc != off {
		return fmt.Errorf("storage: bulk widen: node %v is not the tail of its open block", n.ptr)
	}
	oldPtr := n.ptr
	oldSize := blk.h.DescSize
	raw := make([]byte, descSizeFor(width))
	copy(raw, blk.page[off:int(off)+oldSize])
	// Pop n off the block tail. Builder blocks are append-only, so the
	// slot space is simply rolled back.
	prevOff := getU16(blk.page[off:], dPrevIn)
	zero(blk.page[off : int(off)+oldSize])
	blk.h.Count--
	blk.h.SlotTop = off
	blk.h.LastDesc = prevOff
	if prevOff == 0 {
		blk.h.FirstDesc = 0
	} else {
		putU16(blk.page, int(prevOff)+dNextIn, 0)
	}
	var dst *bulkBlock
	if blk.h.Count == 0 {
		// The block held only n: re-open the same page at the new width
		// instead of leaving an empty block in the chain.
		blk.h.ChildSlots = width
		blk.h.DescSize = descSizeFor(width)
		dst = blk
	} else {
		nb, err := b.rollBlock(ss, width)
		if err != nil {
			return err
		}
		dst = nb
	}
	newPtr := dst.appendRaw(raw)
	// Constant-cost fixups (§4.1): the indirection entry, the left
	// sibling's forward pointer, and possibly the parent's child slot.
	// Children found their parent through the handle and need nothing.
	if err := b.patchPtr(n.handle, newPtr); err != nil {
		return err
	}
	if ls := getPtr(raw, dLeftSib); !ls.IsNil() {
		if err := b.patchPtr(ls.Add(dRightSib), newPtr); err != nil {
			return err
		}
	}
	if n.parent != nil {
		if err := b.repointParentSlot(n.parent, n.sn, oldPtr, newPtr); err != nil {
			return err
		}
		if n.parent.lastChild == oldPtr {
			n.parent.lastChild = newPtr
		}
	}
	n.ptr = newPtr
	n.slots = width
	return nil
}

// adopt moves the pre-existing root descriptor (created by CreateDoc in a
// real zero-width block) into a builder block of the required width, so
// that from the first child on the whole document is builder-constructed.
func (b *BulkLoader) adopt(n *BulkNode, width int) error {
	base := n.ptr.PageBase()
	off := uint16(n.ptr.PageOffset())
	raw := make([]byte, descSizeFor(width))
	err := b.w.ReadPage(base, func(page []byte) error {
		h, err := decodeNodeHeader(page)
		if err != nil {
			return err
		}
		size := h.DescSize
		if size > len(raw) {
			size = len(raw)
		}
		copy(raw, page[int(off):int(off)+size])
		return nil
	})
	if err != nil {
		return err
	}
	empty, err := unlinkInBlock(b.w, base, off)
	if err != nil {
		return err
	}
	if !empty {
		return fmt.Errorf("storage: bulk adopt: block %v still holds descriptors", base)
	}
	if err := freeNodeBlock(b.w, b.doc, n.sn, base); err != nil {
		return err
	}
	ss := b.state(n.sn)
	dst, err := b.rollBlock(ss, width)
	if err != nil {
		return err
	}
	newPtr := dst.appendRaw(raw)
	if err := b.patchPtr(n.handle, newPtr); err != nil {
		return err
	}
	n.ptr = newPtr
	n.slots = width
	n.external = false
	return nil
}

// repointParentSlot redirects parent's first-child slot for child's kind
// from old to new, if it currently points at old.
func (b *BulkLoader) repointParentSlot(parent *BulkNode, child *schema.Node, old, new sas.XPtr) error {
	si := parent.sn.ChildIndex(child)
	if si < 0 || si >= parent.slots {
		return nil
	}
	addr := parent.ptr.Add(uint32(dChildren + 8*si))
	cur, err := b.readPtr(addr)
	if err != nil {
		return err
	}
	if cur == old {
		return b.patchPtr(addr, new)
	}
	return nil
}

// patchPtr writes an 8-byte pointer, in builder memory when the target page
// is still open, through the transaction otherwise.
func (b *BulkLoader) patchPtr(p sas.XPtr, v sas.XPtr) error {
	if page, ok := b.mem[p.PageBase()]; ok {
		putPtr(page, int(p.PageOffset()), v)
		return nil
	}
	return writePtrAt(b.w, p, v)
}

// readPtr reads an 8-byte pointer, preferring builder memory.
func (b *BulkLoader) readPtr(p sas.XPtr) (sas.XPtr, error) {
	if page, ok := b.mem[p.PageBase()]; ok {
		return getPtr(page, int(p.PageOffset())), nil
	}
	return readPtrAt(b.w, p)
}

// allocHandle appends an indirection entry pointing at desc.
func (b *BulkLoader) allocHandle(desc sas.XPtr) (sas.XPtr, error) {
	if b.indir == nil || int(b.indirTop)+indirEntrySize > sas.PageSize {
		if err := b.rollIndir(); err != nil {
			return sas.NilPtr, err
		}
	}
	off := b.indirTop
	putPtr(b.indir.page, int(off), desc)
	b.indirTop += indirEntrySize
	b.indirCount++
	return b.indir.base.Add(uint32(off)), nil
}

func (b *BulkLoader) rollIndir() error {
	id, err := b.w.AllocPage()
	if err != nil {
		return err
	}
	base := id.Ptr()
	page := make([]byte, sas.PageSize)
	page[0] = blockKindIndir
	prev := b.oldIndirLast
	if b.indir != nil {
		prev = b.indir.base
		putPtr(b.indir.page, ibNext, base)
		if err := b.flushIndir(); err != nil {
			return err
		}
	}
	putPtr(page, ibPrev, prev)
	if b.indirFirst.IsNil() {
		b.indirFirst = base
	}
	b.indir = &bulkPage{base: base, page: page}
	b.indirTop = indirBlockHeaderSize
	b.indirCount = 0
	b.mem[base] = page
	return nil
}

func (b *BulkLoader) flushIndir() error {
	putU16(b.indir.page, ibCount, b.indirCount)
	putU16(b.indir.page, ibSlotTop, b.indirTop)
	return b.flushPage(b.indir.base, b.indir.page)
}

// allocText stores data in builder-owned text blocks, chunked back to front
// exactly like AllocText so each chunk knows its successor.
func (b *BulkLoader) allocText(data []byte) (sas.XPtr, error) {
	if len(data) == 0 {
		return sas.NilPtr, nil
	}
	var next sas.XPtr
	for start := (len(data) - 1) / maxChunkPayload * maxChunkPayload; start >= 0; start -= maxChunkPayload {
		end := start + maxChunkPayload
		if end > len(data) {
			end = len(data)
		}
		slot, err := b.placeChunk(next, data[start:end])
		if err != nil {
			return sas.NilPtr, err
		}
		next = slot
	}
	return next, nil
}

func (b *BulkLoader) placeChunk(next sas.XPtr, payload []byte) (sas.XPtr, error) {
	need := textChunkHeader + len(payload)
	if b.text == nil || textBlockHeaderSize+(int(b.textSlots)+1)*textSlotSize+need > b.textDataStart {
		if err := b.rollText(); err != nil {
			return sas.NilPtr, err
		}
	}
	slotOff := textBlockHeaderSize + int(b.textSlots)*textSlotSize
	recOff := b.textDataStart - need
	putPtr(b.text.page, recOff, next)
	copy(b.text.page[recOff+textChunkHeader:recOff+need], payload)
	putU16(b.text.page, slotOff, uint16(recOff))
	putU16(b.text.page, slotOff+2, uint16(need))
	b.textSlots++
	b.textDataStart = recOff
	return b.text.base.Add(uint32(slotOff)), nil
}

func (b *BulkLoader) rollText() error {
	id, err := b.w.AllocPage()
	if err != nil {
		return err
	}
	base := id.Ptr()
	page := make([]byte, sas.PageSize)
	page[0] = blockKindText
	prev := b.oldTextLast
	if b.text != nil {
		prev = b.text.base
		putPtr(b.text.page, tbNext, base)
		if err := b.flushText(); err != nil {
			return err
		}
	}
	putPtr(page, tbPrev, prev)
	if b.textFirst.IsNil() {
		b.textFirst = base
	}
	b.text = &bulkPage{base: base, page: page}
	b.textSlots = 0
	b.textDataStart = sas.PageSize
	b.mem[base] = page
	return nil
}

func (b *BulkLoader) flushText() error {
	putU16(b.text.page, tbSlotCount, b.textSlots)
	putU16(b.text.page, tbDataStart, uint16(b.textDataStart))
	return b.flushPage(b.text.base, b.text.page)
}

func (b *BulkLoader) flushNodeBlock(blk *bulkBlock, next sas.XPtr) error {
	blk.h.Next = next
	encodeNodeHeader(blk.page, blk.h)
	return b.flushPage(blk.base, blk.page)
}

// flushPage hands one completed builder page to the transaction (one
// whole-page WAL image, and the pool's frame for the page) and forgets it.
func (b *BulkLoader) flushPage(base sas.XPtr, page []byte) error {
	delete(b.mem, base)
	if err := b.w.WritePage(sas.PageIDOf(base), page); err != nil {
		return err
	}
	b.stats.PagesFlushed++
	if b.flushHook != nil {
		if err := b.flushHook(b.stats.PagesFlushed); err != nil {
			return err
		}
	}
	return nil
}

// Finish flushes every open builder page, splices the builder chains onto
// the document's pre-existing structures, and updates schema-node and
// document metadata (with Defer-registered undos, so a later rollback of
// the surrounding transaction restores all in-memory state). The caller
// logs the bulk-load WAL record and commits.
func (b *BulkLoader) Finish() (BulkStats, error) {
	w, doc := b.w, b.doc
	for _, ss := range b.states {
		if ss.open == nil {
			continue
		}
		if ss.open.h.Count == 0 {
			return b.stats, fmt.Errorf("storage: bulk load left an empty open block for %s", ss.sn.Path())
		}
		if err := b.flushNodeBlock(ss.open, sas.NilPtr); err != nil {
			return b.stats, err
		}
	}
	if b.indir != nil {
		if err := b.flushIndir(); err != nil {
			return b.stats, err
		}
	}
	if b.text != nil {
		if err := b.flushText(); err != nil {
			return b.stats, err
		}
	}
	for _, ss := range b.states {
		if ss.first.IsNil() {
			continue
		}
		sn := ss.sn
		if !ss.oldLast.IsNil() {
			if err := writePtrAt(w, ss.oldLast.Add(nbNext), ss.first); err != nil {
				return b.stats, err
			}
		}
		oldFirst, oldLastB, oldBlocks, oldNodes := sn.FirstBlock, sn.LastBlock, sn.BlockCount, sn.NodeCount
		if sn.FirstBlock.IsNil() {
			sn.FirstBlock = ss.first
		}
		sn.LastBlock = ss.open.base
		sn.BlockCount += ss.blocks
		sn.NodeCount += ss.nodes
		w.Defer(func() {
			sn.FirstBlock, sn.LastBlock, sn.BlockCount, sn.NodeCount = oldFirst, oldLastB, oldBlocks, oldNodes
		})
		w.NoteSchemaBlocks(doc, sn)
	}
	docMeta := false
	if !b.indirFirst.IsNil() {
		oldF, oldL := doc.IndirFirst, doc.IndirLast
		if b.oldIndirLast.IsNil() {
			doc.IndirFirst = b.indirFirst
		} else {
			if err := writePtrAt(w, b.oldIndirLast.Add(ibNext), b.indirFirst); err != nil {
				return b.stats, err
			}
		}
		doc.IndirLast = b.indir.base
		w.Defer(func() { doc.IndirFirst, doc.IndirLast = oldF, oldL })
		docMeta = true
	}
	if !b.textFirst.IsNil() {
		oldF, oldL := doc.TextFirst, doc.TextLast
		if b.oldTextLast.IsNil() {
			doc.TextFirst = b.textFirst
		} else {
			if err := writePtrAt(w, b.oldTextLast.Add(tbNext), b.textFirst); err != nil {
				return b.stats, err
			}
		}
		doc.TextLast = b.text.base
		w.Defer(func() { doc.TextFirst, doc.TextLast = oldF, oldL })
		docMeta = true
	}
	if docMeta {
		w.NoteDocMeta(doc)
	}
	w.TouchDoc(doc)
	return b.stats, nil
}

func zero(s []byte) {
	for i := range s {
		s[i] = 0
	}
}
