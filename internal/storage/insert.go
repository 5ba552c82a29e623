package storage

import (
	"fmt"
	"sync/atomic"

	"sedna/internal/nid"
	"sedna/internal/sas"
	"sedna/internal/schema"
)

// CreateDoc materializes an empty document: a fresh descriptive schema, the
// document node's descriptor and its indirection entry.
func CreateDoc(w Writer, id uint32, name string) (*Doc, error) {
	doc := &Doc{ID: id, Name: name, Schema: schema.New()}
	sn := doc.Schema.Root
	block, err := newNodeBlock(w, doc, sn, 0, sas.NilPtr)
	if err != nil {
		return nil, err
	}
	off, err := allocDescSlot(w, block)
	if err != nil {
		return nil, err
	}
	ptr := block.Add(uint32(off))
	handle, err := AllocHandle(w, doc, ptr)
	if err != nil {
		return nil, err
	}
	d := Desc{Label: nid.Root(), Handle: handle}
	buf := make([]byte, descSizeFor(0))
	encodeDesc(buf, &d, sas.NilPtr, 0, 0, 0)
	if err := w.WriteAt(ptr, buf); err != nil {
		return nil, err
	}
	if err := linkInBlock(w, block, off, 0); err != nil {
		return nil, err
	}
	doc.RootHandle = handle
	sn.NodeCount++
	w.Defer(func() { sn.NodeCount-- })
	w.NoteDocMeta(doc)
	w.TouchDoc(doc)
	return doc, nil
}

// InsertNode inserts a new node under the parent identified by handle
// parentH, between siblings leftH and rightH (either may be nil, meaning
// first/last position). It maintains the descriptive schema incrementally,
// assigns a relabel-free numbering-scheme label, places the descriptor in
// the right block of its schema node's list (splitting or widening blocks
// as needed) and wires all pointers. It returns the new node's handle.
func InsertNode(w Writer, doc *Doc, parentH, leftH, rightH sas.XPtr, kind schema.NodeKind, name string, text []byte) (sas.XPtr, error) {
	parent, err := DescOf(w, parentH)
	if err != nil {
		return sas.NilPtr, fmt.Errorf("storage: insert: parent: %w", err)
	}
	parentSn := doc.Schema.ByID(parent.SchemaID)
	if parentSn == nil {
		return sas.NilPtr, fmt.Errorf("storage: insert: unknown parent schema node %d", parent.SchemaID)
	}
	if parentSn.Kind != schema.KindDocument && parentSn.Kind != schema.KindElement {
		return sas.NilPtr, fmt.Errorf("storage: cannot insert under a %v node", parentSn.Kind)
	}

	// Maintain the descriptive schema.
	sn, created := doc.Schema.EnsureChild(parentSn, kind, name)
	if created {
		w.NoteSchemaNode(doc, parentSn, sn)
		w.Defer(func() { doc.Schema.Remove(sn) })
	}

	// Resolve the insertion point to the actual adjacent pair in the
	// sibling chain: a given left implies its current right sibling (and
	// vice versa); neither given means "append as last child".
	var left, right *Desc
	switch {
	case !leftH.IsNil():
		d, err := DescOf(w, leftH)
		if err != nil {
			return sas.NilPtr, err
		}
		if d.Parent != parentH {
			return sas.NilPtr, fmt.Errorf("storage: left sibling is not a child of the parent")
		}
		left = &d
		if !d.RightSib.IsNil() {
			rd, err := ReadDesc(w, d.RightSib)
			if err != nil {
				return sas.NilPtr, err
			}
			right = &rd
		}
	case !rightH.IsNil():
		d, err := DescOf(w, rightH)
		if err != nil {
			return sas.NilPtr, err
		}
		if d.Parent != parentH {
			return sas.NilPtr, fmt.Errorf("storage: right sibling is not a child of the parent")
		}
		right = &d
		if !d.LeftSib.IsNil() {
			ld, err := ReadDesc(w, d.LeftSib)
			if err != nil {
				return sas.NilPtr, err
			}
			left = &ld
		}
	default:
		lc, ok, err := LastChild(w, &parent)
		if err != nil {
			return sas.NilPtr, err
		}
		if ok {
			left = &lc
		}
	}
	var ll, rl *nid.Label
	if left != nil {
		ll = &left.Label
	}
	if right != nil {
		rl = &right.Label
	}
	label := nid.Between(parent.Label, ll, rl)

	// Make sure the parent descriptor has a child slot for sn, widening its
	// block lazily (delayed per-block widening, §4.1).
	slotIdx := parentSn.ChildIndex(sn)
	if slotIdx >= parent.ChildSlots {
		if err := widenDesc(w, doc, parentSn, parent, len(parentSn.Children)); err != nil {
			return sas.NilPtr, err
		}
	}

	// Decide where the descriptor goes in sn's block list and ensure room.
	predH, succH, err := findListPosition(w, sn, parentH, slotIdx, label, left, right, listWalk.Load())
	if err != nil {
		return sas.NilPtr, err
	}
	block, after, err := makeRoom(w, doc, sn, predH, succH)
	if err != nil {
		return sas.NilPtr, err
	}

	// Allocate the slot, the handle, the text value, and an overflow record
	// for a long label.
	off, err := allocDescSlot(w, block)
	if err != nil {
		return sas.NilPtr, err
	}
	ptr := block.Add(uint32(off))
	handle, err := AllocHandle(w, doc, ptr)
	if err != nil {
		return sas.NilPtr, err
	}
	var textPtr sas.XPtr
	if kind.HasText() && len(text) > 0 {
		textPtr, err = AllocText(w, doc, text)
		if err != nil {
			return sas.NilPtr, err
		}
	}
	var ovPtr sas.XPtr
	if len(label.Prefix) > nidInlineCap {
		ovPtr, err = AllocText(w, doc, label.Prefix)
		if err != nil {
			return sas.NilPtr, err
		}
	}

	// Splits during makeRoom may have moved the siblings: re-resolve their
	// current addresses through their immutable handles.
	if left != nil {
		d, err := DescOf(w, left.Handle)
		if err != nil {
			return sas.NilPtr, err
		}
		left = &d
	}
	if right != nil {
		d, err := DescOf(w, right.Handle)
		if err != nil {
			return sas.NilPtr, err
		}
		right = &d
	}

	blockH, err := readNodeHeader(w, block)
	if err != nil {
		return sas.NilPtr, err
	}
	d := Desc{
		Label:   label,
		Handle:  handle,
		Parent:  parentH,
		Text:    textPtr,
		TextLen: uint32(len(text)),
	}
	if left != nil {
		d.LeftSib = left.Ptr
	}
	if right != nil {
		d.RightSib = right.Ptr
	}
	buf := make([]byte, blockH.DescSize)
	encodeDesc(buf, &d, ovPtr, len(label.Prefix), 0, 0)
	if err := w.WriteAt(ptr, buf); err != nil {
		return sas.NilPtr, err
	}
	if err := linkInBlock(w, block, off, after); err != nil {
		return sas.NilPtr, err
	}

	// Sibling backlinks.
	if left != nil {
		if err := writePtrAt(w, left.Ptr.Add(dRightSib), ptr); err != nil {
			return sas.NilPtr, err
		}
	}
	if right != nil {
		if err := writePtrAt(w, right.Ptr.Add(dLeftSib), ptr); err != nil {
			return sas.NilPtr, err
		}
	}

	// Parent child-slot pointer: it points to the first child of this
	// schema type in document order.
	pPtr, err := DerefHandle(w, parentH)
	if err != nil {
		return sas.NilPtr, err
	}
	slotAddr := pPtr.Add(uint32(dChildren + 8*slotIdx))
	cur, err := readPtrAt(w, slotAddr)
	if err != nil {
		return sas.NilPtr, err
	}
	setSlot := cur.IsNil()
	if !setSlot {
		cd, err := ReadDesc(w, cur)
		if err != nil {
			return sas.NilPtr, err
		}
		setSlot = nid.Compare(label, cd.Label) < 0
	}
	if setSlot {
		if err := writePtrAt(w, slotAddr, ptr); err != nil {
			return sas.NilPtr, err
		}
	}

	sn.NodeCount++
	w.Defer(func() { sn.NodeCount-- })
	w.TouchDoc(doc)
	return handle, nil
}

// widenDesc relocates the descriptor d (and its in-block followers) into a
// block wide enough for `width` child slots, unless its block already is.
func widenDesc(w Writer, doc *Doc, sn *schema.Node, d Desc, width int) error {
	block := d.Ptr.PageBase()
	h, err := readNodeHeader(w, block)
	if err != nil {
		return err
	}
	if h.ChildSlots >= width {
		return nil
	}
	return moveRun(w, doc, sn, block, uint16(d.Ptr.PageOffset()), width)
}

// listWalk makes findListPosition walk the list descriptor by descriptor,
// with neither the parent search nor the block skip — the cost the property
// test measures the search against. Both find the same position.
var listWalk atomic.Bool

// listSearchPeeks bounds each walk of the parent search. Past it the block
// skip runs, so a sparse schema node never costs more than that search.
const listSearchPeeks = 16

// findListPosition locates the in-list neighbours (as handles) of a new
// node of sn with the given label under the parent parentH, whose child slot
// for sn is slot. left/right are its tree siblings when they exist, enabling
// the constant-time fast paths that cover bulk loading and ordinary sibling
// insertion. Otherwise it returns the list predecessor when there is one,
// else the successor — the pair the walk over every descriptor (walk set)
// finds, so placement never depends on which search ran.
func findListPosition(r Reader, sn *schema.Node, parentH sas.XPtr, slot int, label nid.Label, left, right *Desc, walk bool) (predH, succH sas.XPtr, err error) {
	// Fast path: a tree sibling of the same schema node is the immediate
	// list neighbour (everything between them in document order is a
	// descendant of the left sibling, which has a different path).
	if left != nil && left.SchemaID == sn.ID {
		return left.Handle, sas.NilPtr, nil
	}
	if right != nil && right.SchemaID == sn.ID {
		return sas.NilPtr, right.Handle, nil
	}
	if sn.FirstBlock.IsNil() {
		return sas.NilPtr, sas.NilPtr, nil
	}
	if !walk {
		predH, succH, ok, err := parentSearch(r, sn, parentH, slot, left)
		if err != nil || ok {
			return predH, succH, err
		}
	}
	// Fast path: append at the end of the list.
	last, ok, err := LastOfSchema(r, sn)
	if err != nil {
		return sas.NilPtr, sas.NilPtr, err
	}
	if !ok {
		return sas.NilPtr, sas.NilPtr, nil
	}
	if nid.Compare(last.Label, label) < 0 {
		return last.Handle, sas.NilPtr, nil
	}
	// General case: the label falls inside the list. Descriptors are
	// ordered across blocks (§4.1), so a block whose last descriptor
	// precedes the label is skipped on its header and that one descriptor;
	// only the block holding the first descriptor after the label is
	// scanned. The list position is the same one a walk over every
	// descriptor finds.
	var pred Desc
	var h nodeBlockHeader
	for block := sn.FirstBlock; !block.IsNil(); block = h.Next {
		if h, err = readNodeHeader(r, block); err != nil {
			return sas.NilPtr, sas.NilPtr, err
		}
		if h.LastDesc == 0 {
			continue // emptied block
		}
		blockLast, err := ReadDesc(r, block.Add(uint32(h.LastDesc)))
		if err != nil {
			return sas.NilPtr, sas.NilPtr, err
		}
		if nid.Compare(blockLast.Label, label) < 0 && !walk {
			pred = blockLast
			continue
		}
		for ptr := block.Add(uint32(h.FirstDesc)); !ptr.IsNil(); ptr = pred.NextInBlock {
			d, err := ReadDesc(r, ptr)
			if err != nil {
				return sas.NilPtr, sas.NilPtr, err
			}
			if nid.Compare(label, d.Label) < 0 {
				if pred.Handle.IsNil() {
					return sas.NilPtr, d.Handle, nil
				}
				return pred.Handle, sas.NilPtr, nil
			}
			pred = d
		}
	}
	return pred.Handle, sas.NilPtr, nil
}

// parentSearch finds the list neighbours of a new node of sn under the
// parent P (handle parentH) through P's first-child slot for sn, without
// reading a label. Nodes of sn are children of nodes of P's schema node,
// which never nest, so sn's list runs in the order of P's list:
//   - when P has children of sn, the nearest one left of the insertion point
//     is the predecessor; with none there, P's first one is the successor;
//   - otherwise the first child of sn of the first node after P in P's list
//     that has one is the successor, and at the end of that list the new
//     node is the last of sn.
//
// ok=false when a walk would take more than listSearchPeeks peeks.
func parentSearch(r Reader, sn *schema.Node, parentH sas.XPtr, slot int, left *Desc) (predH, succH sas.XPtr, ok bool, err error) {
	pPtr, err := DerefHandle(r, parentH)
	if err != nil {
		return sas.NilPtr, sas.NilPtr, false, err
	}
	p, _, err := peekDesc(r, pPtr, slot, nil)
	if err != nil {
		return sas.NilPtr, sas.NilPtr, false, err
	}
	if !p.child.IsNil() {
		if left != nil {
			for at, n := left.LeftSib, 0; !at.IsNil(); n++ {
				if n == listSearchPeeks {
					return sas.NilPtr, sas.NilPtr, false, nil
				}
				page, pin, err := r.ViewPage(at)
				if err != nil {
					return sas.NilPtr, sas.NilPtr, false, err
				}
				b := page[at.PageOffset():]
				same, h := getU32(page, nbSchemaID) == sn.ID, getPtr(b, dHandle)
				at = getPtr(b, dLeftSib)
				r.ReleasePage(pin)
				if same {
					return h, sas.NilPtr, true, nil
				}
			}
		}
		return beforeDesc(r, p.child)
	}
	at := p.next
	for n := 0; n < listSearchPeeks; n++ {
		q, _, err := peekDesc(r, at, slot, nil)
		if err != nil {
			return sas.NilPtr, sas.NilPtr, false, err
		}
		if q.at.IsNil() {
			// P's list ended: every node of sn precedes the new one.
			last, found, err := LastOfSchema(r, sn)
			if err != nil {
				return sas.NilPtr, sas.NilPtr, false, err
			}
			if found {
				predH = last.Handle
			}
			return predH, sas.NilPtr, true, nil
		}
		if !q.child.IsNil() {
			return beforeDesc(r, q.child)
		}
		at = q.next
	}
	return sas.NilPtr, sas.NilPtr, false, nil
}

// beforeDesc returns the list neighbours of a new node whose successor is
// the descriptor at succ: its predecessor when it has one, else succ.
func beforeDesc(r Reader, succ sas.XPtr) (predH, succH sas.XPtr, ok bool, err error) {
	page, pin, h, at, err := viewDesc(r, succ)
	if err != nil {
		return sas.NilPtr, sas.NilPtr, false, err
	}
	b := page[at.PageOffset():]
	succH = getPtr(b, dHandle)
	if prev := getU16(b, dPrevIn); prev != 0 {
		predH = getPtr(page[prev:], dHandle)
	}
	r.ReleasePage(pin)
	if !predH.IsNil() {
		return predH, sas.NilPtr, true, nil
	}
	// succ heads its block: the predecessor is the last descriptor of the
	// nearest earlier block that is not empty.
	for block, n := h.Prev, 0; !block.IsNil(); n++ {
		if n == listSearchPeeks {
			return sas.NilPtr, sas.NilPtr, false, nil
		}
		bh, err := readNodeHeader(r, block)
		if err != nil {
			return sas.NilPtr, sas.NilPtr, false, err
		}
		if bh.LastDesc != 0 {
			predH, err = readPtrAt(r, block.Add(uint32(bh.LastDesc)+dHandle))
			return predH, sas.NilPtr, err == nil, err
		}
		block = bh.Prev
	}
	return sas.NilPtr, succH, true, nil
}

// makeRoom guarantees a free descriptor slot at the list position described
// by predH/succH (insert after pred, or before succ, or into an empty
// list), splitting blocks or creating new ones while preserving the partial
// order of descriptors across blocks. It returns the target block and the
// in-block offset to link after (0 = front). A new descriptor whose place is
// inside a full block goes into that block: splitTail moves at most
// splitTailLen descriptors from its end, none at or before the new one's
// place. One that would be last in a full block goes to the front of the
// next block when that has room, else into a fresh block; one before the
// first descriptor of a full block gets a fresh block of its own.
func makeRoom(w Writer, doc *Doc, sn *schema.Node, predH, succH sas.XPtr) (sas.XPtr, uint16, error) {
	width := len(sn.Children)
	switch {
	case !predH.IsNil():
		pd, err := DescOf(w, predH)
		if err != nil {
			return sas.NilPtr, 0, err
		}
		block := pd.Ptr.PageBase()
		h, err := readNodeHeader(w, block)
		if err != nil {
			return sas.NilPtr, 0, err
		}
		if blockHasRoom(h) {
			return block, uint16(pd.Ptr.PageOffset()), nil
		}
		if pd.NextInBlock.IsNil() {
			// pred is the last descriptor of a full block: use the front of
			// the next block if it has room, else chain in a fresh block.
			if !h.Next.IsNil() {
				nh, err := readNodeHeader(w, h.Next)
				if err != nil {
					return sas.NilPtr, 0, err
				}
				if blockHasRoom(nh) {
					return h.Next, 0, nil
				}
			}
			nb, err := newNodeBlock(w, doc, sn, width, block)
			if err != nil {
				return sas.NilPtr, 0, err
			}
			return nb, 0, nil
		}
		// Split: move the block's tail, never pred, so the new descriptor
		// goes in right after pred.
		after := uint16(pd.Ptr.PageOffset())
		if err := splitTail(w, doc, sn, block, h, after); err != nil {
			return sas.NilPtr, 0, err
		}
		return block, after, nil

	case !succH.IsNil():
		sd, err := DescOf(w, succH)
		if err != nil {
			return sas.NilPtr, 0, err
		}
		block := sd.Ptr.PageBase()
		h, err := readNodeHeader(w, block)
		if err != nil {
			return sas.NilPtr, 0, err
		}
		after := uint16(0)
		if !sd.PrevInBlock.IsNil() {
			after = uint16(sd.PrevInBlock.PageOffset())
		}
		if blockHasRoom(h) {
			return block, after, nil
		}
		if after == 0 {
			// Insert before the block's first descriptor: prepend a block.
			nb, err := newNodeBlock(w, doc, sn, width, h.Prev)
			if err != nil {
				return sas.NilPtr, 0, err
			}
			return nb, 0, nil
		}
		// Split: move the block's tail, never succ's in-block predecessor,
		// so the new descriptor goes in right after it — before succ, or
		// last in the block when succ moved on.
		if err := splitTail(w, doc, sn, block, h, after); err != nil {
			return sas.NilPtr, 0, err
		}
		return block, after, nil

	default:
		if !sn.FirstBlock.IsNil() {
			h, err := readNodeHeader(w, sn.FirstBlock)
			if err != nil {
				return sas.NilPtr, 0, err
			}
			if blockHasRoom(h) && h.Count == 0 {
				return sn.FirstBlock, 0, nil
			}
		}
		nb, err := newNodeBlock(w, doc, sn, width, sas.NilPtr)
		if err != nil {
			return sas.NilPtr, 0, err
		}
		return nb, 0, nil
	}
}
