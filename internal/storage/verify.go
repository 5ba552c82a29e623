package storage

import (
	"fmt"

	"sedna/internal/nid"
	"sedna/internal/sas"
	"sedna/internal/schema"
)

// VerifyDoc checks every structural invariant of the paper's data
// organization for one document:
//
//   - indirection consistency: every node's handle resolves to its
//     descriptor, and every descriptor's handle field points back;
//   - sibling chains are doubly linked, label-ordered, and all siblings
//     share the parent handle;
//   - numbering-scheme containment: each child's label lies in its parent's
//     descendant range;
//   - per-schema child-slot pointers address the document-order-first child
//     of that schema type;
//   - block lists are doubly linked, counts match chain lengths, labels are
//     partly ordered (every descriptor of block i precedes every descriptor
//     of block j for i < j) and increase along in-block chains;
//   - every descriptor slot below a block's slot top is either live or on
//     its free chain, never both nor twice;
//   - the set of nodes reachable from the tree equals the set stored in the
//     block lists, and schema NodeCounts agree.
//
// It is used pervasively by tests (and by the sedna-check tool).
func VerifyDoc(r Reader, doc *Doc) error {
	treeNodes := make(map[sas.XPtr]bool) // descriptor ptr set from tree walk
	var walk func(d Desc) error
	walk = func(d Desc) error {
		// Handle round trip.
		hp, err := DerefHandle(r, d.Handle)
		if err != nil {
			return fmt.Errorf("node %v: %w", d.Ptr, err)
		}
		if hp != d.Ptr {
			return fmt.Errorf("node %v: handle resolves to %v", d.Ptr, hp)
		}
		if treeNodes[d.Ptr] {
			return fmt.Errorf("node %v reached twice in tree walk", d.Ptr)
		}
		treeNodes[d.Ptr] = true
		sn := doc.Schema.ByID(d.SchemaID)
		if sn == nil {
			return fmt.Errorf("node %v: unknown schema id %d", d.Ptr, d.SchemaID)
		}
		if !d.Label.Valid() {
			return fmt.Errorf("node %v: invalid label %v", d.Ptr, d.Label)
		}

		// Children: walk the sibling chain from the first child.
		first, ok, err := FirstChild(r, &d)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if !first.LeftSib.IsNil() {
			return fmt.Errorf("node %v: first child %v has a left sibling", d.Ptr, first.Ptr)
		}
		// firstSeen tracks the first child per child schema for slot checks.
		firstSeen := make(map[uint32]sas.XPtr)
		prev := Desc{}
		havePrev := false
		for c, ok := first, true; ok; {
			if c.Parent != d.Handle {
				return fmt.Errorf("child %v: parent handle %v, want %v", c.Ptr, c.Parent, d.Handle)
			}
			if !nid.IsAncestor(d.Label, c.Label) {
				return fmt.Errorf("child %v: label %v outside parent range %v", c.Ptr, c.Label, d.Label)
			}
			if havePrev {
				if nid.Compare(prev.Label, c.Label) >= 0 {
					return fmt.Errorf("siblings %v,%v out of document order", prev.Ptr, c.Ptr)
				}
				if nid.IsAncestor(prev.Label, c.Label) {
					return fmt.Errorf("sibling %v labeled inside sibling %v's descendant range", c.Ptr, prev.Ptr)
				}
				if c.LeftSib != prev.Ptr {
					return fmt.Errorf("sibling %v: leftSib %v, want %v", c.Ptr, c.LeftSib, prev.Ptr)
				}
				if prev.RightSib != c.Ptr {
					return fmt.Errorf("sibling %v: rightSib %v, want %v", prev.Ptr, prev.RightSib, c.Ptr)
				}
			}
			if _, seen := firstSeen[c.SchemaID]; !seen {
				firstSeen[c.SchemaID] = c.Ptr
			}
			if err := walk(c); err != nil {
				return err
			}
			prev = c
			havePrev = true
			if c.RightSib.IsNil() {
				break
			}
			c, err = ReadDesc(r, c.RightSib)
			if err != nil {
				return err
			}
		}
		// Child-slot pointers.
		for i := 0; i < d.Children.Len(); i++ {
			slot := d.Children.At(i)
			if i >= len(sn.Children) {
				if !slot.IsNil() {
					return fmt.Errorf("node %v: slot %d beyond schema width is set", d.Ptr, i)
				}
				continue
			}
			want := firstSeen[sn.Children[i].ID]
			if slot != want {
				return fmt.Errorf("node %v: slot %d (%s) = %v, want %v", d.Ptr, i, sn.Children[i].Path(), slot, want)
			}
		}
		return nil
	}
	root, err := DescOf(r, doc.RootHandle)
	if err != nil {
		return err
	}
	if err := walk(root); err != nil {
		return err
	}

	// Block-list invariants per schema node.
	listNodes := make(map[sas.XPtr]bool)
	var schemaErr error
	total := uint64(0)
	doc.Schema.Root.Walk(func(sn *schema.Node) {
		if schemaErr != nil {
			return
		}
		schemaErr = verifySchemaList(r, doc, sn, listNodes)
		total += sn.NodeCount
	})
	if schemaErr != nil {
		return schemaErr
	}

	if len(treeNodes) != len(listNodes) {
		return fmt.Errorf("tree has %d nodes, block lists have %d", len(treeNodes), len(listNodes))
	}
	for p := range treeNodes {
		if !listNodes[p] {
			return fmt.Errorf("node %v reachable in tree but missing from block lists", p)
		}
	}
	if total != uint64(len(treeNodes)) {
		return fmt.Errorf("schema NodeCounts sum to %d, tree has %d", total, len(treeNodes))
	}
	return nil
}

func verifySchemaList(r Reader, doc *Doc, sn *schema.Node, seen map[sas.XPtr]bool) error {
	var prevBlock sas.XPtr
	var prevLabel *nid.Label
	blocks := 0
	count := uint64(0)
	for block := sn.FirstBlock; !block.IsNil(); {
		h, err := readNodeHeader(r, block)
		if err != nil {
			return fmt.Errorf("schema %s: %w", sn.Path(), err)
		}
		blocks++
		if h.SchemaID != sn.ID {
			return fmt.Errorf("schema %s: block %v belongs to schema %d", sn.Path(), block, h.SchemaID)
		}
		if h.DocID != doc.ID {
			return fmt.Errorf("schema %s: block %v belongs to doc %d", sn.Path(), block, h.DocID)
		}
		if h.Prev != prevBlock {
			return fmt.Errorf("schema %s: block %v prev = %v, want %v", sn.Path(), block, h.Prev, prevBlock)
		}
		if h.DescSize != descSizeFor(h.ChildSlots) {
			return fmt.Errorf("schema %s: block %v descSize %d for %d slots", sn.Path(), block, h.DescSize, h.ChildSlots)
		}
		// In-block chain.
		slots := int(h.SlotTop-nodeBlockHeaderSize) / h.DescSize
		used := make([]bool, slots)
		n := 0
		var lastOff uint16
		for off := h.FirstDesc; off != 0; {
			d, err := ReadDesc(r, block.Add(uint32(off)))
			if err != nil {
				return err
			}
			if seen[d.Ptr] {
				return fmt.Errorf("descriptor %v in two chains", d.Ptr)
			}
			seen[d.Ptr] = true
			if err := takeSlot(used, h, off); err != nil {
				return fmt.Errorf("schema %s: block %v descriptor: %w", sn.Path(), block, err)
			}
			if prevLabel != nil && nid.Compare(*prevLabel, d.Label) >= 0 {
				return fmt.Errorf("schema %s: partial order violated at %v", sn.Path(), d.Ptr)
			}
			l := d.Label
			prevLabel = &l
			n++
			count++
			lastOff = off
			if d.NextInBlock.IsNil() {
				off = 0
			} else {
				off = uint16(d.NextInBlock.PageOffset())
			}
		}
		if n != h.Count {
			return fmt.Errorf("schema %s: block %v chain has %d, header says %d", sn.Path(), block, n, h.Count)
		}
		if h.Count == 0 {
			return fmt.Errorf("schema %s: empty block %v not freed", sn.Path(), block)
		}
		if h.LastDesc != lastOff {
			return fmt.Errorf("schema %s: block %v lastDesc %d, chain ends at %d", sn.Path(), block, h.LastDesc, lastOff)
		}
		// Free chain: every slot below the slot top is live or free, once.
		page, pin, err := r.ViewPage(block)
		if err != nil {
			return err
		}
		free := 0
		for off := h.FreeHead; off != 0; off = getU16(page[off:], 0) {
			if err = takeSlot(used, h, off); err != nil {
				break
			}
			free++
		}
		r.ReleasePage(pin)
		if err != nil {
			return fmt.Errorf("schema %s: block %v free chain: %w", sn.Path(), block, err)
		}
		if n+free != slots {
			return fmt.Errorf("schema %s: block %v has %d live and %d free of %d slots", sn.Path(), block, n, free, slots)
		}
		if h.Next.IsNil() && sn.LastBlock != block {
			return fmt.Errorf("schema %s: LastBlock %v, chain ends at %v", sn.Path(), sn.LastBlock, block)
		}
		prevBlock = block
		block = h.Next
	}
	if uint32(blocks) != sn.BlockCount {
		return fmt.Errorf("schema %s: BlockCount %d, found %d", sn.Path(), sn.BlockCount, blocks)
	}
	if count != sn.NodeCount {
		return fmt.Errorf("schema %s: NodeCount %d, found %d", sn.Path(), sn.NodeCount, count)
	}
	return nil
}

// takeSlot marks the descriptor slot at offset off of a block with header h
// used, failing unless it is a slot below the slot top not yet used.
func takeSlot(used []bool, h nodeBlockHeader, off uint16) error {
	i := (int(off) - nodeBlockHeaderSize) / h.DescSize
	if int(off) < nodeBlockHeaderSize || (int(off)-nodeBlockHeaderSize)%h.DescSize != 0 || i >= len(used) {
		return fmt.Errorf("offset %d is not a slot below the slot top %d", off, h.SlotTop)
	}
	if used[i] {
		return fmt.Errorf("slot at offset %d taken twice", off)
	}
	used[i] = true
	return nil
}
