package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sedna/internal/sas"
	"sedna/internal/schema"
)

// oracleNode is the in-memory model the list-position property test checks
// the stored document against.
type oracleNode struct {
	name string
	h    sas.XPtr
	kids []*oracleNode
}

func (n *oracleNode) write(sb *strings.Builder) {
	sb.WriteString(n.name)
	if len(n.kids) == 0 {
		return
	}
	sb.WriteByte('(')
	for i, k := range n.kids {
		if i > 0 {
			sb.WriteByte(' ')
		}
		k.write(sb)
	}
	sb.WriteByte(')')
}

// writeStored renders the stored subtree of d in the oracle's notation,
// walking first-child and right-sibling pointers.
func writeStored(t *testing.T, r Reader, doc *Doc, d Desc, sb *strings.Builder) {
	t.Helper()
	sb.WriteString(doc.Schema.ByID(d.SchemaID).Name)
	c, ok, err := FirstChild(r, &d)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return
	}
	sb.WriteByte('(')
	for {
		writeStored(t, r, doc, c, sb)
		if c.RightSib.IsNil() {
			break
		}
		sb.WriteByte(' ')
		if c, err = ReadDesc(r, c.RightSib); err != nil {
			t.Fatal(err)
		}
	}
	sb.WriteByte(')')
}

// runListPositionWorkload drives random inserts and deletes whose new nodes
// mostly have no same-schema sibling, so their list position is found by
// findListPosition's general case over lists many blocks long — including
// label ranges whose blocks a run of deletes emptied and freed. After every
// batch the document must pass VerifyDoc and equal the oracle.
func runListPositionWorkload(t *testing.T, seed int64) *memWriter {
	t.Helper()
	w := newMemWriter()
	doc, err := CreateDoc(w, 1, "lists")
	if err != nil {
		t.Fatal(err)
	}
	insert := func(parent *oracleNode, at int, name string) *oracleNode {
		var left, right sas.XPtr
		if at > 0 {
			left = parent.kids[at-1].h
		}
		if at < len(parent.kids) {
			right = parent.kids[at].h
		}
		h, err := InsertNode(w, doc, parent.h, left, right, schema.KindElement, name, nil)
		if err != nil {
			t.Fatalf("insert %s under %s at %d: %v", name, parent.name, at, err)
		}
		n := &oracleNode{name: name, h: h}
		parent.kids = append(parent.kids, nil)
		copy(parent.kids[at+1:], parent.kids[at:])
		parent.kids[at] = n
		return n
	}
	remove := func(parent *oracleNode, at int) {
		if err := DeleteSubtree(w, doc, parent.kids[at].h); err != nil {
			t.Fatalf("delete %s under %s: %v", parent.kids[at].name, parent.name, err)
		}
		parent.kids = append(parent.kids[:at], parent.kids[at+1:]...)
	}
	var root *oracleNode
	check := func(stage string) {
		t.Helper()
		if err := VerifyDoc(w, doc); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		rootDesc, err := DescOf(w, doc.RootHandle)
		if err != nil {
			t.Fatal(err)
		}
		top, ok, err := FirstChild(w, &rootDesc)
		if err != nil || !ok {
			t.Fatalf("%s: no top element (%v)", stage, err)
		}
		var got, want strings.Builder
		writeStored(t, w, doc, top, &got)
		root.write(&want)
		if got.String() != want.String() {
			t.Fatalf("%s: stored document differs from the oracle", stage)
		}
	}

	root = insert(&oracleNode{h: doc.RootHandle}, 0, "r")
	const groups = 2000
	for i := 0; i < groups; i++ {
		insert(root, i, "g")
	}
	rng := rand.New(rand.NewSource(seed))
	names := []string{"x", "y", "z"}
	for batch := 0; batch < 5; batch++ {
		for op := 0; op < 900; op++ {
			g := root.kids[rng.Intn(len(root.kids))]
			switch {
			case len(g.kids) > 0 && rng.Intn(6) == 0:
				remove(g, rng.Intn(len(g.kids)))
			default:
				n := insert(g, rng.Intn(len(g.kids)+1), names[rng.Intn(len(names))])
				if rng.Intn(3) == 0 {
					insert(n, 0, "v") // a nested list two levels down
				}
			}
		}
		// Empty a stretch of the lists longer than any block, then let the
		// next batch insert into the freed label range again.
		from := rng.Intn(groups - 600)
		for _, g := range root.kids[from : from+600] {
			for len(g.kids) > 0 {
				remove(g, len(g.kids)-1)
			}
		}
		check(fmt.Sprintf("batch %d", batch))
	}
	xs := doc.Schema.Root.Child(schema.KindElement, "r").Child(schema.KindElement, "g").Child(schema.KindElement, "x")
	if xs.BlockCount < 4 {
		t.Fatalf("x list has %d blocks; the workload must span many", xs.BlockCount)
	}
	return w
}

// TestListPositionProperty runs the workload with block skipping on, then
// again descriptor by descriptor: both must place every node identically,
// so the two stores end up byte for byte the same.
func TestListPositionProperty(t *testing.T) {
	skipped := runListPositionWorkload(t, 11)
	SetListBlockSkipForTesting(false)
	defer SetListBlockSkipForTesting(true)
	walked := runListPositionWorkload(t, 11)
	if len(skipped.pages) != len(walked.pages) {
		t.Fatalf("page counts differ: %d skipped, %d walked", len(skipped.pages), len(walked.pages))
	}
	for id, page := range skipped.pages {
		if !bytes.Equal(page, walked.pages[id]) {
			t.Fatalf("page %v differs between skipped and walked placement", id)
		}
	}
}
