package storage

import (
	"fmt"

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

// linkNodeBlocks writes the page images of freshly allocated blocks (at
// bases) and chains them, in order, into sn's block list after prev (nil =
// at the front). Each image is complete but for its list links, which are
// set here, so each new block is written — and logged — once.
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
		if err := w.WriteAt(bases[i], page); err != nil {
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

// moveRun moves the descriptors from fromOff to the end of the in-block
// chain of block into a fresh block (with newChildSlots descriptor width)
// inserted immediately after it, preserving document order. This implements
// both block splitting on overflow and the delayed per-block descriptor
// widening of §4.1. Each moved node costs a constant number of external
// updates: its indirection entry, its two sibling backlinks, and possibly
// its parent's child-slot pointer — the design the paper adopts to keep
// update cost bounded.
func moveRun(w Writer, doc *Doc, sn *schema.Node, block sas.XPtr, fromOff uint16, newChildSlots int) error {
	oldH, err := readNodeHeader(w, block)
	if err != nil {
		return err
	}
	if newChildSlots < oldH.ChildSlots {
		newChildSlots = oldH.ChildSlots
	}
	// Collect the run in document order.
	type moved struct {
		d      Desc
		nidOv  sas.XPtr
		nidLen int
		oldOff uint16
	}
	var run []moved
	err = w.ReadPage(block, func(page []byte) error {
		for off := fromOff; off != 0; {
			var d Desc
			decodeDescAt(&d, page, block, off, &oldH, make([]byte, descVarLen(page[off:], &oldH)))
			ov, nl := overflowOf(page[off:])
			run = append(run, moved{d: d, nidOv: ov, nidLen: int(nl), oldOff: off})
			off = getU16(page[off:], dNextIn)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(run) == 0 {
		return fmt.Errorf("storage: moveRun with empty run at %v+%d", block, fromOff)
	}
	prevOff := uint16(0)
	err = w.ReadPage(block, func(page []byte) error {
		prevOff = getU16(page[fromOff:], dPrevIn)
		return nil
	})
	if err != nil {
		return err
	}
	descSize := descSizeFor(newChildSlots)
	capacity := nodeBlockCapacity(newChildSlots)

	// The run may exceed one wide block's capacity (narrow descriptors are
	// smaller): distribute it across as many fresh blocks as needed,
	// chained in order after the source block.
	type chunkPlacement struct {
		base sas.XPtr
		offs []uint16
	}
	var chunks []chunkPlacement
	trans := make(map[sas.XPtr]sas.XPtr, len(run))
	for start := 0; start < len(run); start += capacity {
		end := start + capacity
		if end > len(run) {
			end = len(run)
		}
		id, err := w.AllocPage()
		if err != nil {
			return err
		}
		nb := id.Ptr()
		pl := chunkPlacement{base: nb, offs: make([]uint16, end-start)}
		for i := range pl.offs {
			pl.offs[i] = uint16(nodeBlockHeaderSize + i*descSize)
			trans[run[start+i].d.Ptr] = nb.Add(uint32(pl.offs[i]))
		}
		chunks = append(chunks, pl)
	}

	// Each block's image is built whole and written once, by linkNodeBlocks.
	bases := make([]sas.XPtr, len(chunks))
	pages := make([][]byte, len(chunks))
	idx := 0
	for c, pl := range chunks {
		n := len(pl.offs)
		page := make([]byte, sas.PageSize)
		encodeNodeHeader(page, nodeBlockHeader{
			ChildSlots: newChildSlots,
			SchemaID:   sn.ID,
			DocID:      doc.ID,
			Count:      n,
			DescSize:   descSize,
			FirstDesc:  pl.offs[0],
			LastDesc:   pl.offs[n-1],
			SlotTop:    uint16(nodeBlockHeaderSize + n*descSize),
		})
		for i := 0; i < n; i++ {
			d := run[idx+i].d
			if p, ok := trans[d.LeftSib]; ok {
				d.LeftSib = p
			}
			if p, ok := trans[d.RightSib]; ok {
				d.RightSib = p
			}
			// encodeDesc zero-fills the wider descriptor, so the slots
			// beyond the old width start out nil.
			var next, prev uint16
			if i+1 < n {
				next = pl.offs[i+1]
			}
			if i > 0 {
				prev = pl.offs[i-1]
			}
			encodeDesc(page[pl.offs[i]:int(pl.offs[i])+descSize], &d, run[idx+i].nidOv, run[idx+i].nidLen, next, prev)
		}
		bases[c], pages[c] = pl.base, page
		idx += n
	}
	if err := linkNodeBlocks(w, doc, sn, block, bases, pages); err != nil {
		return err
	}

	// External fixups per moved descriptor.
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
		if slotIdx >= 0 && !m.d.Parent.IsNil() {
			pPtr, err := DerefHandle(w, m.d.Parent)
			if err != nil {
				return err
			}
			slotAddr := pPtr.Add(uint32(dChildren + 8*slotIdx))
			cur, err := readPtrAt(w, slotAddr)
			if err != nil {
				return err
			}
			if cur == m.d.Ptr {
				if err := writePtrAt(w, slotAddr, newPtr); err != nil {
					return err
				}
			}
		}
	}

	// Shrink the old block: detach the run and free its slots.
	if prevOff != 0 {
		if err := writeU16At(w, block.Add(uint32(prevOff)+dNextIn), 0); err != nil {
			return err
		}
	} else {
		if err := writeU16At(w, block.Add(nbFirstDesc), 0); err != nil {
			return err
		}
	}
	if err := writeU16At(w, block.Add(nbLastDesc), prevOff); err != nil {
		return err
	}
	freeHead := oldH.FreeHead
	for _, m := range run {
		if err := writeU16At(w, block.Add(uint32(m.oldOff)), freeHead); err != nil {
			return err
		}
		freeHead = m.oldOff
	}
	if err := writeU16At(w, block.Add(nbFreeHead), freeHead); err != nil {
		return err
	}
	remaining := oldH.Count - len(run)
	if err := writeU16At(w, block.Add(nbCount), uint16(remaining)); err != nil {
		return err
	}
	if remaining == 0 {
		return freeNodeBlock(w, doc, sn, block)
	}
	return nil
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
