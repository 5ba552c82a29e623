package storage

import (
	"fmt"
	"testing"

	"sedna/internal/sas"
	"sedna/internal/schema"
)

// packedDoc returns a document whose top element r holds a full block of g
// children, filled by appends as the bulk loader fills a block (slots in
// document order), with one h child after the g at index mid. It also
// returns the g list's schema node and the block's capacity.
func packedDoc(t *testing.T, mid int) (*oracleDoc, *schema.Node, int) {
	t.Helper()
	o := newOracleDoc(t, "r", true)
	o.insert(o.root, 0, "g")
	gs := o.doc.Schema.Root.Child(schema.KindElement, "r").Child(schema.KindElement, "g")
	h, err := readNodeHeader(o.w, gs.FirstBlock)
	if err != nil {
		t.Fatal(err)
	}
	capacity := nodeBlockCapacity(h.ChildSlots)
	for i := 1; i < capacity; i++ {
		if i == mid+1 {
			o.insert(o.root, len(o.root.kids), "h")
		}
		o.insert(o.root, len(o.root.kids), "g")
	}
	if gs.BlockCount != 1 {
		t.Fatalf("%d appends filled %d blocks, want one", capacity, gs.BlockCount)
	}
	if h, err = readNodeHeader(o.w, gs.FirstBlock); err != nil || blockHasRoom(h) {
		t.Fatalf("the block is not full after %d appends (%v)", capacity, err)
	}
	o.check("packed")
	return o, gs, capacity
}

// addresses maps every element's handle under the top element to its
// descriptor's current address.
func (o *oracleDoc) addresses() map[sas.XPtr]sas.XPtr {
	o.t.Helper()
	at := make(map[sas.XPtr]sas.XPtr)
	var walk func(n *oracleNode)
	walk = func(n *oracleNode) {
		p, err := DerefHandle(o.w, n.h)
		if err != nil {
			o.t.Fatal(err)
		}
		at[n.h] = p
		for _, k := range n.kids {
			walk(k)
		}
	}
	walk(o.root)
	return at
}

// insertMoving inserts g as child at of the top element and returns how many
// existing descriptors changed address.
func (o *oracleDoc) insertMoving(at int) int {
	o.t.Helper()
	before := o.addresses()
	o.insert(o.root, at, "g")
	moved := 0
	for h, p := range o.addresses() {
		if old, ok := before[h]; ok && old != p {
			moved++
		}
	}
	return moved
}

// TestSplitMovesBoundedTail fills a block by appends, then inserts into it
// after its first descriptor, before a mid-block successor (the insert's
// left sibling is of another schema node, so the list position is found
// from the successor), and 500 times at one position. No insert moves more
// than splitTailLen descriptors, the 500 allocate at most one block per
// capacity−splitTailLen of them (plus one) because a split's tail goes to
// the front of the next block while that has room, and the document passes
// VerifyDoc and equals the oracle throughout.
func TestSplitMovesBoundedTail(t *testing.T) {
	const mid = 100
	t.Run("after the first", func(t *testing.T) {
		o, _, _ := packedDoc(t, mid)
		if moved := o.insertMoving(1); moved == 0 || moved > splitTailLen {
			t.Fatalf("the split moved %d descriptors, want 1..%d", moved, splitTailLen)
		}
		o.check("after the first")
	})
	t.Run("before a mid-block successor", func(t *testing.T) {
		o, _, _ := packedDoc(t, mid)
		// kids[mid+1] is h: the new g's left sibling is h, its right a g.
		if o.root.kids[mid+1].name != "h" {
			t.Fatalf("child %d is %s, want h", mid+1, o.root.kids[mid+1].name)
		}
		if moved := o.insertMoving(mid + 2); moved == 0 || moved > splitTailLen {
			t.Fatalf("the split moved %d descriptors, want 1..%d", moved, splitTailLen)
		}
		o.check("before a mid-block successor")
	})
	t.Run("500 at one position", func(t *testing.T) {
		const inserts = 500
		o, gs, capacity := packedDoc(t, mid)
		blocks := gs.BlockCount
		for i := 0; i < inserts; i++ {
			if moved := o.insertMoving(1); moved > splitTailLen {
				t.Fatalf("insert %d moved %d descriptors, bound %d", i, moved, splitTailLen)
			}
			if i%50 == 49 {
				o.check(fmt.Sprintf("insert %d", i))
			}
		}
		allocated := int(gs.BlockCount - blocks)
		bound := (inserts+capacity-splitTailLen-1)/(capacity-splitTailLen) + 1
		t.Logf("%d inserts at one position allocated %d blocks (capacity %d, bound %d)", inserts, allocated, capacity, bound)
		if allocated > bound {
			t.Fatalf("%d inserts allocated %d blocks, bound %d", inserts, allocated, bound)
		}
	})
}
