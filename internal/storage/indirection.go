package storage

import (
	"fmt"

	"sedna/internal/sas"
)

// Indirection table (§4.1.2): a node handle is the XPtr of an entry in an
// indirection block; the entry holds the current address of the node's
// descriptor. Handles are immutable for the node's lifetime even when the
// descriptor moves (block split, widening), and the indirect parent pointer
// of every descriptor is a handle — which is exactly why moving a node with
// N children updates one indirection entry instead of N parent fields.

// AllocHandle allocates an indirection entry pointing at desc and returns
// the handle.
func AllocHandle(w Writer, doc *Doc, desc sas.XPtr) (sas.XPtr, error) {
	// Try the last indirection block first; allocate a new one if full.
	block := doc.IndirLast
	if !block.IsNil() {
		h, ok, err := tryAllocEntry(w, block, desc)
		if err != nil {
			return sas.NilPtr, err
		}
		if ok {
			return h, nil
		}
	}
	block, err := newIndirBlock(w, doc)
	if err != nil {
		return sas.NilPtr, err
	}
	h, ok, err := tryAllocEntry(w, block, desc)
	if err != nil {
		return sas.NilPtr, err
	}
	if !ok {
		return sas.NilPtr, fmt.Errorf("storage: fresh indirection block full")
	}
	return h, nil
}

func tryAllocEntry(w Writer, block sas.XPtr, desc sas.XPtr) (sas.XPtr, bool, error) {
	var freeHead, slotTop, count uint16
	err := w.ReadPage(block, func(page []byte) error {
		if page[0] != blockKindIndir {
			return fmt.Errorf("storage: not an indirection block")
		}
		freeHead = getU16(page, ibFreeHead)
		slotTop = getU16(page, ibSlotTop)
		count = getU16(page, ibCount)
		return nil
	})
	if err != nil {
		return sas.NilPtr, false, err
	}
	var off uint16
	switch {
	case freeHead != 0:
		off = freeHead
		entry, err := readPtrAt(w, block.Add(uint32(off)))
		if err != nil {
			return sas.NilPtr, false, err
		}
		if entry.Layer() != freeEntryMarker {
			return sas.NilPtr, false, fmt.Errorf("storage: corrupt indirection free chain at %v", block.Add(uint32(off)))
		}
		if err := writeU16At(w, block.Add(ibFreeHead), uint16(entry.Offset())); err != nil {
			return sas.NilPtr, false, err
		}
	case int(slotTop)+indirEntrySize <= sas.PageSize:
		off = slotTop
		if err := writeU16At(w, block.Add(ibSlotTop), slotTop+indirEntrySize); err != nil {
			return sas.NilPtr, false, err
		}
	default:
		return sas.NilPtr, false, nil
	}
	h := block.Add(uint32(off))
	if err := writePtrAt(w, h, desc); err != nil {
		return sas.NilPtr, false, err
	}
	if err := writeU16At(w, block.Add(ibCount), count+1); err != nil {
		return sas.NilPtr, false, err
	}
	return h, true, nil
}

// FreeHandle releases the indirection entry. (The paper garbage-collects
// handles at commit; here freeing is a logged page write, so an aborting
// transaction restores the entry with the page pre-image.)
func FreeHandle(w Writer, doc *Doc, h sas.XPtr) error {
	block := h.PageBase()
	var freeHead, count uint16
	err := w.ReadPage(block, func(page []byte) error {
		if page[0] != blockKindIndir {
			return fmt.Errorf("storage: handle %v not in an indirection block", h)
		}
		freeHead = getU16(page, ibFreeHead)
		count = getU16(page, ibCount)
		return nil
	})
	if err != nil {
		return err
	}
	if err := writePtrAt(w, h, sas.MakePtr(freeEntryMarker, uint32(freeHead))); err != nil {
		return err
	}
	if err := writeU16At(w, block.Add(ibFreeHead), uint16(h.PageOffset())); err != nil {
		return err
	}
	if count == 1 {
		// Last live entry: release the whole block ("orphaned blocks are
		// deleted").
		return freeIndirBlock(w, doc, block)
	}
	return writeU16At(w, block.Add(ibCount), count-1)
}

// DerefHandle resolves a node handle to the current descriptor address.
func DerefHandle(r Reader, h sas.XPtr) (sas.XPtr, error) {
	p, err := readPtrAt(r, h)
	if err != nil {
		return sas.NilPtr, err
	}
	if p.Layer() == freeEntryMarker {
		return sas.NilPtr, fmt.Errorf("storage: handle %v is free", h)
	}
	return p, nil
}

// SetHandle repoints a node handle at a new descriptor address — the single
// write that moves a node for all of its children at once.
func SetHandle(w Writer, h sas.XPtr, desc sas.XPtr) error {
	return writePtrAt(w, h, desc)
}

func newIndirBlock(w Writer, doc *Doc) (sas.XPtr, error) {
	id, err := w.AllocPage()
	if err != nil {
		return sas.NilPtr, err
	}
	base := id.Ptr()
	page := make([]byte, sas.PageSize)
	page[0] = blockKindIndir
	putU16(page, ibSlotTop, indirBlockHeaderSize)
	putPtr(page, ibPrev, doc.IndirLast)
	if err := w.WritePage(id, page); err != nil {
		return sas.NilPtr, err
	}
	oldFirst, oldLast := doc.IndirFirst, doc.IndirLast
	if !doc.IndirLast.IsNil() {
		if err := writePtrAt(w, doc.IndirLast.Add(ibNext), base); err != nil {
			return sas.NilPtr, err
		}
	} else {
		doc.IndirFirst = base
	}
	doc.IndirLast = base
	w.Defer(func() { doc.IndirFirst, doc.IndirLast = oldFirst, oldLast })
	w.NoteDocMeta(doc)
	return base, nil
}

func freeIndirBlock(w Writer, doc *Doc, block sas.XPtr) error {
	var next, prev sas.XPtr
	err := w.ReadPage(block, func(page []byte) error {
		next = getPtr(page, ibNext)
		prev = getPtr(page, ibPrev)
		return nil
	})
	if err != nil {
		return err
	}
	if !prev.IsNil() {
		if err := writePtrAt(w, prev.Add(ibNext), next); err != nil {
			return err
		}
	}
	if !next.IsNil() {
		if err := writePtrAt(w, next.Add(ibPrev), prev); err != nil {
			return err
		}
	}
	oldFirst, oldLast := doc.IndirFirst, doc.IndirLast
	changed := false
	if doc.IndirFirst == block {
		doc.IndirFirst = next
		changed = true
	}
	if doc.IndirLast == block {
		doc.IndirLast = prev
		changed = true
	}
	if changed {
		w.Defer(func() { doc.IndirFirst, doc.IndirLast = oldFirst, oldLast })
		w.NoteDocMeta(doc)
	}
	return w.FreePage(sas.PageIDOf(block))
}
