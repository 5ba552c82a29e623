package storage

import (
	"fmt"
	"slices"

	"sedna/internal/sas"
	"sedna/internal/schema"
)

// Node-block list management. Blocks of one schema node form a bidirectional
// list; descriptors are partly ordered: every descriptor of block i precedes
// every descriptor of block j in document order when i < j, while within a
// block order is kept by the next/prev-in-block chain only (§4.1).

// newNodeBlock allocates an empty node block for sn with the given
// descriptor width and links it into sn's block list after prev (nil = at
// the front).
func newNodeBlock(w Writer, doc *Doc, sn *schema.Node, childSlots int, prev sas.XPtr) (sas.XPtr, error) {
	id, err := w.AllocPage()
	if err != nil {
		return sas.NilPtr, err
	}
	base := id.Ptr()
	page := make([]byte, sas.PageSize)
	encodeNodeHeader(page, nodeBlockHeader{
		ChildSlots: childSlots,
		SchemaID:   sn.ID,
		DocID:      doc.ID,
		DescSize:   descSizeFor(childSlots),
		SlotTop:    nodeBlockHeaderSize,
	})
	return base, linkNodeBlocks(w, doc, sn, prev, []sas.XPtr{base}, [][]byte{page})
}

// linkNodeBlocks hands the page images of freshly allocated blocks (at
// bases) to w whole and chains them, in order, into sn's block list after
// prev (nil = at the front). Each image is complete but for its list links,
// which are set here, so each new block is written — and logged — once;
// the images belong to w afterwards.
func linkNodeBlocks(w Writer, doc *Doc, sn *schema.Node, prev sas.XPtr, bases []sas.XPtr, pages [][]byte) error {
	next := sn.FirstBlock
	if !prev.IsNil() {
		h, err := readNodeHeader(w, prev)
		if err != nil {
			return err
		}
		next = h.Next
	}
	for i, page := range pages {
		p, n := prev, next
		if i > 0 {
			p = bases[i-1]
		}
		if i+1 < len(bases) {
			n = bases[i+1]
		}
		putPtr(page, nbPrev, p)
		putPtr(page, nbNext, n)
		if err := w.WritePage(sas.PageIDOf(bases[i]), page); err != nil {
			return err
		}
	}

	first, last := bases[0], bases[len(bases)-1]
	oldFirst, oldLast, oldBlocks := sn.FirstBlock, sn.LastBlock, sn.BlockCount
	if prev.IsNil() {
		sn.FirstBlock = first
	} else if err := writePtrAt(w, prev.Add(nbNext), first); err != nil {
		return err
	}
	if next.IsNil() {
		sn.LastBlock = last
	} else if err := writePtrAt(w, next.Add(nbPrev), last); err != nil {
		return err
	}
	sn.BlockCount += uint32(len(bases))
	w.Defer(func() { sn.FirstBlock, sn.LastBlock, sn.BlockCount = oldFirst, oldLast, oldBlocks })
	w.NoteSchemaBlocks(doc, sn)
	return nil
}

// freeNodeBlock unlinks an empty node block from sn's list and releases the
// page.
func freeNodeBlock(w Writer, doc *Doc, sn *schema.Node, block sas.XPtr) error {
	h, err := readNodeHeader(w, block)
	if err != nil {
		return err
	}
	if h.Count != 0 {
		return fmt.Errorf("storage: freeing non-empty node block %v (%d descriptors)", block, h.Count)
	}
	if !h.Prev.IsNil() {
		if err := writePtrAt(w, h.Prev.Add(nbNext), h.Next); err != nil {
			return err
		}
	}
	if !h.Next.IsNil() {
		if err := writePtrAt(w, h.Next.Add(nbPrev), h.Prev); err != nil {
			return err
		}
	}
	oldFirst, oldLast, oldBlocks := sn.FirstBlock, sn.LastBlock, sn.BlockCount
	if sn.FirstBlock == block {
		sn.FirstBlock = h.Next
	}
	if sn.LastBlock == block {
		sn.LastBlock = h.Prev
	}
	sn.BlockCount--
	w.Defer(func() { sn.FirstBlock, sn.LastBlock, sn.BlockCount = oldFirst, oldLast, oldBlocks })
	w.NoteSchemaBlocks(doc, sn)
	return w.FreePage(sas.PageIDOf(block))
}

// blockHasRoom reports whether one more descriptor fits.
func blockHasRoom(h nodeBlockHeader) bool {
	return h.FreeHead != 0 || int(h.SlotTop)+h.DescSize <= sas.PageSize
}

// allocDescSlot takes a descriptor slot in the block (the caller must have
// ensured room) and increments the live count. The slot content is
// unspecified until the caller writes the descriptor.
func allocDescSlot(w Writer, block sas.XPtr) (uint16, error) {
	h, err := readNodeHeader(w, block)
	if err != nil {
		return 0, err
	}
	var off uint16
	if h.FreeHead != 0 {
		off = h.FreeHead
		next, err := readU16At(w, block.Add(uint32(off)))
		if err != nil {
			return 0, err
		}
		if err := writeU16At(w, block.Add(nbFreeHead), next); err != nil {
			return 0, err
		}
	} else {
		if int(h.SlotTop)+h.DescSize > sas.PageSize {
			return 0, fmt.Errorf("storage: node block %v has no room", block)
		}
		off = h.SlotTop
		if err := writeU16At(w, block.Add(nbSlotTop), h.SlotTop+uint16(h.DescSize)); err != nil {
			return 0, err
		}
	}
	if err := writeU16At(w, block.Add(nbCount), uint16(h.Count+1)); err != nil {
		return 0, err
	}
	return off, nil
}

// linkInBlock inserts the descriptor at off into the in-block document-order
// chain after the descriptor at after (0 = at the front), updating the
// block's first/last markers. The descriptor bytes must already be written.
func linkInBlock(w Writer, block sas.XPtr, off, after uint16) error {
	h, err := readNodeHeader(w, block)
	if err != nil {
		return err
	}
	var next uint16
	if after == 0 {
		next = h.FirstDesc
		if err := writeU16At(w, block.Add(nbFirstDesc), off); err != nil {
			return err
		}
	} else {
		n, err := readU16At(w, block.Add(uint32(after)+dNextIn))
		if err != nil {
			return err
		}
		next = n
		if err := writeU16At(w, block.Add(uint32(after)+dNextIn), off); err != nil {
			return err
		}
	}
	if err := writeU16At(w, block.Add(uint32(off)+dPrevIn), after); err != nil {
		return err
	}
	if err := writeU16At(w, block.Add(uint32(off)+dNextIn), next); err != nil {
		return err
	}
	if next == 0 {
		return writeU16At(w, block.Add(nbLastDesc), off)
	}
	return writeU16At(w, block.Add(uint32(next)+dPrevIn), off)
}

// unlinkInBlock removes the descriptor at off from the in-block chain,
// returns the slot to the free chain and decrements the count. It reports
// whether the block became empty (the caller then frees it).
func unlinkInBlock(w Writer, block sas.XPtr, off uint16) (empty bool, err error) {
	h, err := readNodeHeader(w, block)
	if err != nil {
		return false, err
	}
	prev, err := readU16At(w, block.Add(uint32(off)+dPrevIn))
	if err != nil {
		return false, err
	}
	next, err := readU16At(w, block.Add(uint32(off)+dNextIn))
	if err != nil {
		return false, err
	}
	if prev == 0 {
		if err := writeU16At(w, block.Add(nbFirstDesc), next); err != nil {
			return false, err
		}
	} else {
		if err := writeU16At(w, block.Add(uint32(prev)+dNextIn), next); err != nil {
			return false, err
		}
	}
	if next == 0 {
		if err := writeU16At(w, block.Add(nbLastDesc), prev); err != nil {
			return false, err
		}
	} else {
		if err := writeU16At(w, block.Add(uint32(next)+dPrevIn), prev); err != nil {
			return false, err
		}
	}
	// Push the slot onto the free chain (its first two bytes hold the next
	// free offset).
	if err := writeU16At(w, block.Add(uint32(off)), h.FreeHead); err != nil {
		return false, err
	}
	if err := writeU16At(w, block.Add(nbFreeHead), off); err != nil {
		return false, err
	}
	if err := writeU16At(w, block.Add(nbCount), uint16(h.Count-1)); err != nil {
		return false, err
	}
	return h.Count-1 == 0, nil
}

// splitTailLen is how many descriptors a split of a full block moves at
// most: the last ones of its in-block chain (splitTail). Chosen by a sweep of
// the first inserts into freshly loaded documents against the steady state
// of a hot one (CHANGES.md).
const splitTailLen = 16

// splitTail frees room in the full block (header h) for a descriptor linked
// after the one at offset after, which must not be the last of the in-block
// chain. It moves the last splitTailLen descriptors of the chain, or all
// those after after when fewer: nothing at or before the new descriptor's
// place moves, so it goes into the block next to its neighbour. The partial
// order of §4.1 holds because the moved descriptors stay the block's last
// and end up the first of the next block — at the front of the one already
// there when it has room for them and is at least as wide, else in a fresh
// block linked in between.
func splitTail(w Writer, doc *Doc, sn *schema.Node, block sas.XPtr, h nodeBlockHeader, after uint16) error {
	page, pin, err := w.ViewPage(block)
	if err != nil {
		return err
	}
	from, n := h.LastDesc, 1
	for ; n < splitTailLen; n++ {
		prev := getU16(page[from:], dPrevIn)
		if prev == after {
			break
		}
		from = prev
	}
	w.ReleasePage(pin)
	if !h.Next.IsNil() {
		nh, err := readNodeHeader(w, h.Next)
		if err != nil {
			return err
		}
		if nh.ChildSlots >= h.ChildSlots && nodeBlockCapacity(nh.ChildSlots)-nh.Count >= n {
			return prependRun(w, doc, sn, block, from, h.Next)
		}
	}
	return moveRun(w, doc, sn, block, from, len(sn.Children))
}

// movedDesc is a descriptor on its way to another block.
type movedDesc struct {
	d      Desc
	nidOv  sas.XPtr
	nidLen int
	oldOff uint16
	// predParent is the parent of the descriptor before it in the list, nil
	// when there is none in the same block (predKnown false).
	predParent sas.XPtr
	predKnown  bool
}

// readRun decodes the descriptors from fromOff to the end of the in-block
// chain of block, in document order, together with the block's header.
func readRun(r Reader, block sas.XPtr, fromOff uint16) ([]movedDesc, nodeBlockHeader, error) {
	h, err := readNodeHeader(r, block)
	if err != nil {
		return nil, h, err
	}
	var run []movedDesc
	err = r.ReadPage(block, func(page []byte) error {
		var predParent sas.XPtr
		prev := getU16(page[fromOff:], dPrevIn)
		if prev != 0 {
			predParent = getPtr(page[prev:], dParent)
		}
		predKnown := prev != 0
		for off := fromOff; off != 0; {
			var d Desc
			decodeDescAt(&d, page, block, off, &h, make([]byte, descVarLen(page[off:], &h)))
			ov, nl := overflowOf(page[off:])
			run = append(run, movedDesc{d: d, nidOv: ov, nidLen: int(nl), oldOff: off, predParent: predParent, predKnown: predKnown})
			predParent, predKnown = d.Parent, true
			off = getU16(page[off:], dNextIn)
		}
		return nil
	})
	if err == nil && len(run) == 0 {
		err = fmt.Errorf("storage: moving an empty run at %v+%d", block, fromOff)
	}
	return run, h, err
}

// encodeMoved encodes the moved descriptor m into buf at its new place, with
// its sibling pointers into the run translated by trans.
func encodeMoved(buf []byte, m *movedDesc, trans map[sas.XPtr]sas.XPtr, next, prev uint16) {
	d := m.d
	if p, ok := trans[d.LeftSib]; ok {
		d.LeftSib = p
	}
	if p, ok := trans[d.RightSib]; ok {
		d.RightSib = p
	}
	// encodeDesc zero-fills a wider descriptor, so the slots beyond the old
	// width start out nil.
	encodeDesc(buf, &d, m.nidOv, m.nidLen, next, prev)
}

// moveRun moves the descriptors from fromOff to the end of the in-block
// chain of block into fresh blocks (with newChildSlots descriptor width)
// inserted immediately after it, preserving document order. This implements
// the delayed per-block descriptor widening of §4.1, and the split of a full
// block whose next block has no room for its tail (splitTail). Each moved
// node costs a constant number of external updates: its indirection entry,
// its two sibling backlinks, and possibly its parent's child-slot pointer —
// the design the paper adopts to keep update cost bounded.
func moveRun(w Writer, doc *Doc, sn *schema.Node, block sas.XPtr, fromOff uint16, newChildSlots int) error {
	run, oldH, err := readRun(w, block, fromOff)
	if err != nil {
		return err
	}
	if newChildSlots < oldH.ChildSlots {
		newChildSlots = oldH.ChildSlots
	}
	descSize := descSizeFor(newChildSlots)
	capacity := nodeBlockCapacity(newChildSlots)

	// The run may exceed one wide block's capacity (narrow descriptors are
	// smaller): distribute it across as many fresh blocks as needed,
	// chained in order after the source block.
	trans := make(map[sas.XPtr]sas.XPtr, len(run))
	var bases []sas.XPtr
	for start := 0; start < len(run); start += capacity {
		id, err := w.AllocPage()
		if err != nil {
			return err
		}
		nb := id.Ptr()
		for i := start; i < min(start+capacity, len(run)); i++ {
			trans[run[i].d.Ptr] = nb.Add(uint32(nodeBlockHeaderSize + (i-start)*descSize))
		}
		bases = append(bases, nb)
	}

	// Each block's image is built whole and written once, by linkNodeBlocks.
	pages := make([][]byte, len(bases))
	for c := range bases {
		chunk := run[c*capacity : min((c+1)*capacity, len(run))]
		n := len(chunk)
		page := make([]byte, sas.PageSize)
		encodeNodeHeader(page, nodeBlockHeader{
			ChildSlots: newChildSlots,
			SchemaID:   sn.ID,
			DocID:      doc.ID,
			Count:      n,
			DescSize:   descSize,
			FirstDesc:  nodeBlockHeaderSize,
			LastDesc:   uint16(nodeBlockHeaderSize + (n-1)*descSize),
			SlotTop:    uint16(nodeBlockHeaderSize + n*descSize),
		})
		for i := range chunk {
			off := nodeBlockHeaderSize + i*descSize
			var next, prev uint16
			if i+1 < n {
				next = uint16(off + descSize)
			}
			if i > 0 {
				prev = uint16(off - descSize)
			}
			encodeMoved(page[off:off+descSize], &chunk[i], trans, next, prev)
		}
		pages[c] = page
	}
	if err := linkNodeBlocks(w, doc, sn, block, bases, pages); err != nil {
		return err
	}
	return detachRun(w, doc, sn, block, oldH, run, trans)
}

// prependRun moves the descriptors from fromOff to the end of the in-block
// chain of block to the front of the chain of next, the block after it,
// which has free slots for them all and is at least as wide. The moved
// descriptors are written in runs of adjacent slots, and next's header in
// two writes, so the move logs no whole page.
func prependRun(w Writer, doc *Doc, sn *schema.Node, block sas.XPtr, fromOff uint16, next sas.XPtr) error {
	run, oldH, err := readRun(w, block, fromOff)
	if err != nil {
		return err
	}
	nh, err := readNodeHeader(w, next)
	if err != nil {
		return err
	}
	// Take freed slots first, then never-used space.
	offs := make([]uint16, len(run))
	freeHead, slotTop := nh.FreeHead, nh.SlotTop
	page, pin, err := w.ViewPage(next)
	if err != nil {
		return err
	}
	for i := range offs {
		if freeHead != 0 {
			offs[i], freeHead = freeHead, getU16(page[freeHead:], 0)
		} else {
			offs[i], slotTop = slotTop, slotTop+uint16(nh.DescSize)
		}
	}
	w.ReleasePage(pin)
	trans := make(map[sas.XPtr]sas.XPtr, len(run))
	for i := range run {
		trans[run[i].d.Ptr] = next.Add(uint32(offs[i]))
	}

	last := len(run) - 1
	buf := make([]byte, len(run)*nh.DescSize)
	start := 0 // first descriptor of the pending write
	for i := range run {
		var nextIn, prevIn uint16
		if i < last {
			nextIn = offs[i+1]
		} else {
			nextIn = nh.FirstDesc
		}
		if i > 0 {
			prevIn = offs[i-1]
		}
		encodeMoved(buf[i*nh.DescSize:(i+1)*nh.DescSize], &run[i], trans, nextIn, prevIn)
		if i == last || offs[i+1] != offs[i]+uint16(nh.DescSize) {
			if err := w.WriteAt(next.Add(uint32(offs[start])), buf[start*nh.DescSize:(i+1)*nh.DescSize]); err != nil {
				return err
			}
			start = i + 1
		}
	}
	lastDesc := nh.LastDesc
	if nh.FirstDesc != 0 {
		if err := writeU16At(w, next.Add(uint32(nh.FirstDesc)+dPrevIn), offs[last]); err != nil {
			return err
		}
	} else {
		lastDesc = offs[last]
	}
	var hdr [nbSlotTop + 2 - nbFirstDesc]byte
	putU16(hdr[:], nbFirstDesc-nbFirstDesc, offs[0])
	putU16(hdr[:], nbLastDesc-nbFirstDesc, lastDesc)
	putU16(hdr[:], nbFreeHead-nbFirstDesc, freeHead)
	putU16(hdr[:], nbSlotTop-nbFirstDesc, slotTop)
	if err := w.WriteAt(next.Add(nbFirstDesc), hdr[:]); err != nil {
		return err
	}
	if err := writeU16At(w, next.Add(nbCount), uint16(nh.Count+len(run))); err != nil {
		return err
	}
	return detachRun(w, doc, sn, block, oldH, run, trans)
}

// detachRun finishes a move of run, which ended the in-block chain of block
// (header oldH), to the addresses trans gives: it repoints each moved node's
// handle, sibling backlinks and parent child slot, then cuts the run from
// block's chain and frees its slots, and the block itself if it emptied.
//
// The children of sn under one parent are adjacent in sn's list (nodes of
// one schema node never nest), so a moved node whose list predecessor has
// the same parent holds no child slot, and one whose predecessor has
// another parent holds its parent's: only a run's first node, when it heads
// its block, has its parent's slot read.
func detachRun(w Writer, doc *Doc, sn *schema.Node, block sas.XPtr, oldH nodeBlockHeader, run []movedDesc, trans map[sas.XPtr]sas.XPtr) error {
	slotIdx := -1
	if sn.Parent != nil {
		slotIdx = sn.Parent.ChildIndex(sn)
	}
	for _, m := range run {
		newPtr := trans[m.d.Ptr]
		if err := SetHandle(w, m.d.Handle, newPtr); err != nil {
			return err
		}
		if !m.d.LeftSib.IsNil() {
			if _, inRun := trans[m.d.LeftSib]; !inRun {
				if err := writePtrAt(w, m.d.LeftSib.Add(dRightSib), newPtr); err != nil {
					return err
				}
			}
		}
		if !m.d.RightSib.IsNil() {
			if _, inRun := trans[m.d.RightSib]; !inRun {
				if err := writePtrAt(w, m.d.RightSib.Add(dLeftSib), newPtr); err != nil {
					return err
				}
			}
		}
		if slotIdx < 0 || m.d.Parent.IsNil() || (m.predKnown && m.predParent == m.d.Parent) {
			continue
		}
		pPtr, err := DerefHandle(w, m.d.Parent)
		if err != nil {
			return err
		}
		slotAddr := pPtr.Add(uint32(dChildren + 8*slotIdx))
		if !m.predKnown {
			cur, err := readPtrAt(w, slotAddr)
			if err != nil {
				return err
			}
			if cur != m.d.Ptr {
				continue
			}
		}
		if err := writePtrAt(w, slotAddr, newPtr); err != nil {
			return err
		}
	}

	remaining := oldH.Count - len(run)
	if remaining == 0 {
		if err := writeU16At(w, block.Add(nbCount), 0); err != nil {
			return err
		}
		return freeNodeBlock(w, doc, sn, block)
	}
	// Shrink the old block: cut the run from the chain, lower the slot top
	// over freed slots that end the slot area (all of them when the block
	// was filled in document order, as the bulk loader fills it), and chain
	// the others as free.
	prevOff := uint16(run[0].d.PrevInBlock.PageOffset())
	if err := writeU16At(w, block.Add(uint32(prevOff)+dNextIn), 0); err != nil {
		return err
	}
	offs := make([]uint16, len(run))
	for i, m := range run {
		offs[i] = m.oldOff
	}
	slices.Sort(offs)
	slotTop := oldH.SlotTop
	for len(offs) > 0 && offs[len(offs)-1]+uint16(oldH.DescSize) == slotTop {
		slotTop, offs = offs[len(offs)-1], offs[:len(offs)-1]
	}
	freeHead := oldH.FreeHead
	for _, off := range offs {
		if err := writeU16At(w, block.Add(uint32(off)), freeHead); err != nil {
			return err
		}
		freeHead = off
	}
	var hdr [nbSlotTop + 2 - nbLastDesc]byte
	putU16(hdr[:], nbLastDesc-nbLastDesc, prevOff)
	putU16(hdr[:], nbFreeHead-nbLastDesc, freeHead)
	putU16(hdr[:], nbSlotTop-nbLastDesc, slotTop)
	if err := w.WriteAt(block.Add(nbLastDesc), hdr[:]); err != nil {
		return err
	}
	return writeU16At(w, block.Add(nbCount), uint16(remaining))
}

// MoveFirstRun splits the first block of sn's list at its midpoint, forcing
// the second half of its descriptors to move (with all the per-node fixups
// of moveRun). It returns the moved descriptors' handles — the E4
// experiment uses it to measure move cost versus child fan-out.
func MoveFirstRun(w Writer, doc *Doc, sn *schema.Node) ([]sas.XPtr, error) {
	// Find the first block with at least two descriptors (repeated splits
	// shrink earlier blocks).
	block := sn.FirstBlock
	var h nodeBlockHeader
	for {
		if block.IsNil() {
			return nil, fmt.Errorf("storage: schema node %s has no splittable block", sn.Path())
		}
		var err error
		h, err = readNodeHeader(w, block)
		if err != nil {
			return nil, err
		}
		if h.Count >= 2 {
			break
		}
		block = h.Next
	}
	// Find the midpoint offset along the in-block chain.
	off := h.FirstDesc
	for i := 0; i < h.Count/2; i++ {
		next, err := readU16At(w, block.Add(uint32(off)+dNextIn))
		if err != nil {
			return nil, err
		}
		off = next
	}
	// Collect the handles that will move.
	var handles []sas.XPtr
	for cur := off; cur != 0; {
		hd, err := readPtrAt(w, block.Add(uint32(cur)+dHandle))
		if err != nil {
			return nil, err
		}
		handles = append(handles, hd)
		next, err := readU16At(w, block.Add(uint32(cur)+dNextIn))
		if err != nil {
			return nil, err
		}
		cur = next
	}
	if err := moveRun(w, doc, sn, block, off, h.ChildSlots); err != nil {
		return nil, err
	}
	return handles, nil
}

// SimulateDirectParentFixups performs the extra writes a direct-parent
// design would pay for the same move: one parent-pointer write per child of
// every moved node (the E4 baseline).
func SimulateDirectParentFixups(w Writer, doc *Doc, sn *schema.Node, moved []sas.XPtr) error {
	for _, h := range moved {
		d, err := DescOf(w, h)
		if err != nil {
			return err
		}
		c, ok, err := FirstChild(w, &d)
		for {
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			// Rewrite the child's parent field (same value: the cost, not
			// the semantics, is what is being measured).
			if err := writePtrAt(w, c.Ptr.Add(dParent), c.Parent); err != nil {
				return err
			}
			if c.RightSib.IsNil() {
				break
			}
			c, err = ReadDesc(w, c.RightSib)
		}
	}
	return nil
}
