package storage

import (
	"fmt"

	"sedna/internal/nid"
	"sedna/internal/sas"
	"sedna/internal/schema"
)

// ReadDesc reads and fully decodes the node descriptor at ptr, resolving an
// overflowed numbering-scheme label from text storage when necessary.
func ReadDesc(r Reader, ptr sas.XPtr) (Desc, error) {
	d, _, err := readDescIf(r, ptr, sas.NilPtr)
	return d, err
}

// readDescIf is ReadDesc restricted to children of one parent: with a non-nil
// parent handle it compares the descriptor's parent field first and reports
// ok=false, decoding nothing else, when the node belongs to another parent.
func readDescIf(r Reader, ptr, parent sas.XPtr) (Desc, bool, error) {
	page, pin, err := r.ViewPage(ptr)
	if err != nil {
		return Desc{}, false, err
	}
	off := uint16(ptr.PageOffset())
	if !parent.IsNil() && getPtr(page[off:], dParent) != parent {
		r.ReleasePage(pin)
		return Desc{}, false, nil
	}
	h, err := decodeNodeHeader(page)
	if err != nil {
		r.ReleasePage(pin)
		return Desc{}, false, err
	}
	d, overflow, nidLen := decodeDescAt(page, ptr.PageBase(), off, h)
	r.ReleasePage(pin)
	if !overflow.IsNil() {
		prefix, err := ReadText(r, overflow, uint32(nidLen))
		if err != nil {
			return Desc{}, false, fmt.Errorf("storage: overflowed label of %v: %w", ptr, err)
		}
		d.Label.Prefix = prefix
	}
	return d, true, nil
}

// DescOf resolves a node handle and reads its descriptor.
func DescOf(r Reader, handle sas.XPtr) (Desc, error) {
	p, err := DerefHandle(r, handle)
	if err != nil {
		return Desc{}, err
	}
	return ReadDesc(r, p)
}

// Text returns the text value of the node (empty for nodes without text).
func Text(r Reader, d *Desc) ([]byte, error) {
	if d.Text.IsNil() {
		return nil, nil
	}
	return ReadText(r, d.Text, d.TextLen)
}

// ParentOf reads the parent descriptor, or ok=false for the document node.
func ParentOf(r Reader, d *Desc) (Desc, bool, error) {
	if d.Parent.IsNil() {
		return Desc{}, false, nil
	}
	p, err := DescOf(r, d.Parent)
	if err != nil {
		return Desc{}, false, err
	}
	return p, true, nil
}

// FirstChild returns the first child of d in document order: among the
// per-schema first-child pointers it is the one with the smallest label.
// ok=false if d has no children.
func FirstChild(r Reader, d *Desc) (Desc, bool, error) {
	var best Desc
	found := false
	for i := 0; i < d.Children.Len(); i++ {
		c := d.Children.At(i)
		if c.IsNil() {
			continue
		}
		cd, err := ReadDesc(r, c)
		if err != nil {
			return Desc{}, false, err
		}
		if !found || nid.Compare(cd.Label, best.Label) < 0 {
			best = cd
			found = true
		}
	}
	return best, found, nil
}

// LastChild returns the last child of d in document order.
func LastChild(r Reader, d *Desc) (Desc, bool, error) {
	// Take the per-schema first child with the greatest label, then follow
	// right-sibling pointers to the end.
	var cur Desc
	found := false
	for i := 0; i < d.Children.Len(); i++ {
		c := d.Children.At(i)
		if c.IsNil() {
			continue
		}
		cd, err := ReadDesc(r, c)
		if err != nil {
			return Desc{}, false, err
		}
		if !found || nid.Compare(cd.Label, cur.Label) > 0 {
			cur = cd
			found = true
		}
	}
	if !found {
		return Desc{}, false, nil
	}
	for !cur.RightSib.IsNil() {
		next, err := ReadDesc(r, cur.RightSib)
		if err != nil {
			return Desc{}, false, err
		}
		cur = next
	}
	return cur, true, nil
}

// ChildAtSlot returns the first child stored under the given schema-child
// slot. Descriptors in narrow blocks (delayed widening) report nil for
// slots beyond their width.
func (d *Desc) ChildAtSlot(slot int) sas.XPtr {
	if slot < 0 || slot >= d.Children.Len() {
		return sas.NilPtr
	}
	return d.Children.At(slot)
}

// NextInList returns the next descriptor of the same schema node in
// document order, crossing block boundaries. ok=false at the end of the
// list.
func NextInList(r Reader, d *Desc) (Desc, bool, error) {
	next, err := nextInListPtr(r, d)
	if err != nil || next.IsNil() {
		return Desc{}, false, err
	}
	n, err := ReadDesc(r, next)
	if err != nil {
		return Desc{}, false, err
	}
	return n, true, nil
}

// NextSameParent returns the descriptor after d in its schema node's list if
// it has the same parent as d; ok=false when the list ends or the next node
// is another parent's child. Children of one parent are contiguous in a
// schema node's list, so this steps through them — and the step that finds
// the run's end reads the neighbour's parent handle and nothing more.
func NextSameParent(r Reader, d *Desc) (Desc, bool, error) {
	next, err := nextInListPtr(r, d)
	if err != nil || next.IsNil() || d.Parent.IsNil() {
		return Desc{}, false, err
	}
	return readDescIf(r, next, d.Parent)
}

// nextInListPtr locates the descriptor after d in its schema node's list,
// skipping blocks a run of deletes left empty; nil at the end of the list.
func nextInListPtr(r Reader, d *Desc) (sas.XPtr, error) {
	if !d.NextInBlock.IsNil() {
		return d.NextInBlock, nil
	}
	block := d.Ptr.PageBase()
	for {
		h, err := readNodeHeader(r, block)
		if err != nil {
			return sas.NilPtr, err
		}
		if h.Next.IsNil() {
			return sas.NilPtr, nil
		}
		block = h.Next
		// Crossing a block boundary: hint the chain ahead so the pages the
		// scan will reach next are loading while it drains this block.
		hintChain(r, block)
		nh, err := readNodeHeader(r, block)
		if err != nil {
			return sas.NilPtr, err
		}
		if nh.FirstDesc != 0 {
			return block.Add(uint32(nh.FirstDesc)), nil
		}
	}
}

// FirstOfSchema returns the first descriptor of the schema node's block
// list in document order; ok=false when the list is empty.
func FirstOfSchema(r Reader, sn *schema.Node) (Desc, bool, error) {
	block := sn.FirstBlock
	hintChain(r, block)
	for !block.IsNil() {
		h, err := readNodeHeader(r, block)
		if err != nil {
			return Desc{}, false, err
		}
		if h.FirstDesc != 0 {
			d, err := ReadDesc(r, block.Add(uint32(h.FirstDesc)))
			if err != nil {
				return Desc{}, false, err
			}
			return d, true, nil
		}
		block = h.Next
	}
	return Desc{}, false, nil
}

// LastOfSchema returns the last descriptor of the schema node's list.
func LastOfSchema(r Reader, sn *schema.Node) (Desc, bool, error) {
	block := sn.LastBlock
	for !block.IsNil() {
		h, err := readNodeHeader(r, block)
		if err != nil {
			return Desc{}, false, err
		}
		if h.LastDesc != 0 {
			d, err := ReadDesc(r, block.Add(uint32(h.LastDesc)))
			if err != nil {
				return Desc{}, false, err
			}
			return d, true, nil
		}
		block = h.Prev
	}
	return Desc{}, false, nil
}

// ScanSchema calls visit for every node of the schema node in document
// order. visit returning false stops the scan. This is the block-list scan
// that backs descendant-axis evaluation over the descriptive schema.
func ScanSchema(r Reader, sn *schema.Node, visit func(Desc) (bool, error)) error {
	d, ok, err := FirstOfSchema(r, sn)
	for {
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		cont, err := visit(d)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
		d, ok, err = NextInList(r, &d)
	}
}

// FirstInRange returns the first descriptor of sn, in document order, inside
// the subtree of ctx, an instance of sn's schema ancestor ctxSN; ok=false when
// the subtree holds none. This is the primitive behind schema-driven
// descendant-axis evaluation, and its cost is bounded by ctx's own subtree,
// never by the length of sn's block list.
//
// The start is found by structural descent along the schema path ctxSN → … →
// sn. The first level is ctx's own first-child pointer for that schema child
// (§4.1: one per schema child). At each deeper level the previous level's
// nodes inside ctx's subtree are walked in list order until one has a child
// of the next schema node: nodes of one schema node never nest, so document
// order of a level carries over to their children, and the first child found
// is the first in document order.
//
// When ctxSN has at most one instance (document node, root element,
// singletons) every instance of sn lies under it, and the range starts at the
// head of sn's list. NodeCount need not describe the state r reads, so the
// head is used only if it does lie under ctx.
func FirstInRange(r Reader, ctx *Desc, ctxSN, sn *schema.Node) (Desc, bool, error) {
	if ctxSN.NodeCount <= 1 {
		d, ok, err := FirstOfSchema(r, sn)
		if err != nil {
			return Desc{}, false, err
		}
		if ok && nid.IsAncestor(ctx.Label, d.Label) {
			return d, true, nil
		}
	}
	var buf [16]*schema.Node
	path := buf[:0] // sn first, ctxSN's child last
	for n := sn; n != ctxSN; n = n.Parent {
		if n == nil {
			return Desc{}, false, fmt.Errorf("storage: schema node %d is not below %d", sn.ID, ctxSN.ID)
		}
		path = append(path, n)
	}
	if len(path) == 0 {
		return Desc{}, false, nil
	}
	level := len(path) - 1
	first := ctx.ChildAtSlot(ctxSN.ChildIndex(path[level]))
	if first.IsNil() {
		return Desc{}, false, nil
	}
	d, err := ReadDesc(r, first)
	if err != nil {
		return Desc{}, false, err
	}
	for ; level > 0; level-- {
		slot := path[level].ChildIndex(path[level-1])
		for {
			if c := d.ChildAtSlot(slot); !c.IsNil() {
				if d, err = ReadDesc(r, c); err != nil {
					return Desc{}, false, err
				}
				break
			}
			n, ok, err := NextInList(r, &d)
			if err != nil {
				return Desc{}, false, err
			}
			if !ok || !nid.IsAncestor(ctx.Label, n.Label) {
				return Desc{}, false, nil
			}
			d = n
		}
	}
	return d, true, nil
}

// BlockCountNext decodes the live-descriptor count and next pointer from a
// node-block page; recovery uses it to recompute schema counters.
func BlockCountNext(page []byte) (count int, next sas.XPtr) {
	return int(getU16(page, nbCount)), getPtr(page, nbNext)
}

// PageChainNext decodes the next-block pointer from raw page bytes for any
// block kind, reporting ok=false at chain end or on an unrecognized page.
// It is the chain decoder handed to the buffer manager's readahead workers
// (which are layout-agnostic): a worker that has just loaded a block uses it
// to discover the following one without any storage-layer call.
func PageChainNext(page []byte) (sas.PageID, bool) {
	var next sas.XPtr
	switch page[0] {
	case blockKindNode:
		next = getPtr(page, nbNext)
	case blockKindText:
		next = getPtr(page, tbNext)
	case blockKindIndir:
		next = getPtr(page, ibNext)
	default:
		return sas.PageID{}, false
	}
	if next.IsNil() {
		return sas.PageID{}, false
	}
	return sas.PageIDOf(next), true
}

// Prefetcher is optionally implemented by a Reader whose buffer pool does
// chain readahead. The block-list iterators type-assert it and emit a hint
// whenever the scan crosses (or is about to start walking) a block chain;
// implementations must be non-blocking, fire-and-forget.
type Prefetcher interface {
	PrefetchFrom(block sas.XPtr)
}

// hintChain emits a readahead hint for the chain starting at block if the
// reader supports it.
func hintChain(r Reader, block sas.XPtr) {
	if block.IsNil() {
		return
	}
	if p, ok := r.(Prefetcher); ok {
		p.PrefetchFrom(block)
	}
}

// ChainNext returns the next-block pointer of any block kind (node, text or
// indirection block); used when dropping a document frees whole chains.
func ChainNext(r Reader, block sas.XPtr) (sas.XPtr, error) {
	var next sas.XPtr
	err := r.ReadPage(block, func(page []byte) error {
		switch page[0] {
		case blockKindNode:
			next = getPtr(page, nbNext)
		case blockKindText:
			next = getPtr(page, tbNext)
		case blockKindIndir:
			next = getPtr(page, ibNext)
		default:
			return fmt.Errorf("storage: ChainNext on unknown block kind %d", page[0])
		}
		return nil
	})
	return next, err
}

// IsAncestorDesc reports whether a is a proper ancestor of b using the
// numbering scheme — no tree traversal required (§4.1.1 mechanism 1).
func IsAncestorDesc(a, b *Desc) bool {
	return nid.IsAncestor(a.Label, b.Label)
}

// DocLess reports document order between two nodes via their labels
// (§4.1.1 mechanism 2).
func DocLess(a, b *Desc) bool {
	return nid.Compare(a.Label, b.Label) < 0
}
