package storage

import (
	"fmt"

	"sedna/internal/sas"
)

// DeleteSubtree removes the node identified by handle together with its
// entire subtree (the XML update semantics of node deletion). The document
// node cannot be deleted this way.
func DeleteSubtree(w Writer, doc *Doc, handle sas.XPtr) error {
	d, err := DescOf(w, handle)
	if err != nil {
		return err
	}
	if d.Parent.IsNil() {
		return fmt.Errorf("storage: cannot delete the document node")
	}
	return deleteRec(w, doc, handle)
}

func deleteRec(w Writer, doc *Doc, handle sas.XPtr) error {
	d, err := DescOf(w, handle)
	if err != nil {
		return err
	}
	// Collect child handles first: deleting mutates sibling chains.
	var kids []sas.XPtr
	c, ok, err := FirstChild(w, &d)
	for {
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		kids = append(kids, c.Handle)
		if c.RightSib.IsNil() {
			break
		}
		c, err = ReadDesc(w, c.RightSib)
		ok = err == nil
	}
	for _, k := range kids {
		if err := deleteRec(w, doc, k); err != nil {
			return err
		}
	}
	return deleteLeaf(w, doc, handle)
}

// deleteLeaf unlinks and frees a single childless node.
func deleteLeaf(w Writer, doc *Doc, handle sas.XPtr) error {
	d, err := DescOf(w, handle)
	if err != nil {
		return err
	}
	sn := doc.Schema.ByID(d.SchemaID)
	if sn == nil {
		return fmt.Errorf("storage: delete: unknown schema node %d", d.SchemaID)
	}

	// Sibling chain.
	if !d.LeftSib.IsNil() {
		if err := writePtrAt(w, d.LeftSib.Add(dRightSib), d.RightSib); err != nil {
			return err
		}
	}
	if !d.RightSib.IsNil() {
		if err := writePtrAt(w, d.RightSib.Add(dLeftSib), d.LeftSib); err != nil {
			return err
		}
	}

	// Parent child-slot: if it points at this node, repoint it at the next
	// sibling of the same schema node (siblings share the parent), or nil.
	if !d.Parent.IsNil() && sn.Parent != nil {
		slotIdx := sn.Parent.ChildIndex(sn)
		if slotIdx >= 0 {
			pPtr, err := DerefHandle(w, d.Parent)
			if err != nil {
				return err
			}
			slotAddr := pPtr.Add(uint32(dChildren + 8*slotIdx))
			cur, err := readPtrAt(w, slotAddr)
			if err != nil {
				return err
			}
			if cur == d.Ptr {
				next := sas.NilPtr
				for sib := d.RightSib; !sib.IsNil(); {
					sd, err := ReadDesc(w, sib)
					if err != nil {
						return err
					}
					if sd.SchemaID == d.SchemaID {
						next = sd.Ptr
						break
					}
					sib = sd.RightSib
				}
				if err := writePtrAt(w, slotAddr, next); err != nil {
					return err
				}
			}
		}
	}

	// Text value and overflowed label.
	if !d.Text.IsNil() {
		if err := FreeText(w, doc, d.Text); err != nil {
			return err
		}
	}
	var ov sas.XPtr
	err = w.ReadPage(d.Ptr, func(page []byte) error {
		off := int(d.Ptr.PageOffset())
		if page[off+dFlags]&flagNidOverflow != 0 {
			ov = getPtr(page[off:], dNid)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !ov.IsNil() {
		if err := FreeText(w, doc, ov); err != nil {
			return err
		}
	}

	// Descriptor slot and, when emptied, the block.
	block := d.Ptr.PageBase()
	empty, err := unlinkInBlock(w, block, uint16(d.Ptr.PageOffset()))
	if err != nil {
		return err
	}
	if empty {
		if err := freeNodeBlock(w, doc, sn, block); err != nil {
			return err
		}
	}

	// Node handle.
	if err := FreeHandle(w, doc, handle); err != nil {
		return err
	}

	sn.NodeCount--
	w.Defer(func() { sn.NodeCount++ })
	w.TouchDoc(doc)
	return nil
}

// UpdateText replaces the text value of a text-carrying node.
func UpdateText(w Writer, doc *Doc, handle sas.XPtr, text []byte) error {
	d, err := DescOf(w, handle)
	if err != nil {
		return err
	}
	if !d.Text.IsNil() {
		if err := FreeText(w, doc, d.Text); err != nil {
			return err
		}
	}
	var tp sas.XPtr
	if len(text) > 0 {
		tp, err = AllocText(w, doc, text)
		if err != nil {
			return err
		}
	}
	// Re-resolve: freeing text never moves descriptors, but stay uniform.
	p, err := DerefHandle(w, handle)
	if err != nil {
		return err
	}
	if err := writePtrAt(w, p.Add(dText), tp); err != nil {
		return err
	}
	if err := writeU32At(w, p.Add(dTextLen), uint32(len(text))); err != nil {
		return err
	}
	// A text replacement changes document content without moving any
	// descriptor: touch the document anyway so commit counts it as an
	// update of the document (the optimizer's staleness clock).
	w.TouchDoc(doc)
	return nil
}
