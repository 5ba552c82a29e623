package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sedna/internal/nid"
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
func writeStored(t testing.TB, r Reader, doc *Doc, d Desc, sb *strings.Builder) {
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

// oracleDoc is a stored document together with the oracle it must equal.
type oracleDoc struct {
	t    testing.TB
	w    *memWriter
	doc  *Doc
	root *oracleNode // the top element
	// checked makes every insert first compare the list neighbours the
	// search finds with the walk's (checkNeighbours).
	checked bool
	inserts int
	// insertViews counts the page views of the InsertNode calls.
	insertViews int
}

// newOracleDoc creates a document whose top element is named top.
func newOracleDoc(t testing.TB, top string, checked bool) *oracleDoc {
	t.Helper()
	w := newMemWriter()
	doc, err := CreateDoc(w, 1, "lists")
	if err != nil {
		t.Fatal(err)
	}
	o := &oracleDoc{t: t, w: w, doc: doc, checked: checked}
	o.root = o.insert(&oracleNode{h: doc.RootHandle}, 0, top)
	return o
}

// insert stores a new element name as child at of parent, in store and
// oracle alike.
func (o *oracleDoc) insert(parent *oracleNode, at int, name string) *oracleNode {
	o.t.Helper()
	var left, right sas.XPtr
	if at > 0 {
		left = parent.kids[at-1].h
	}
	if at < len(parent.kids) {
		right = parent.kids[at].h
	}
	if o.checked {
		checkNeighbours(o.t, o.w, o.doc, parent.h, left, right, name)
	}
	views := o.w.views
	h, err := InsertNode(o.w, o.doc, parent.h, left, right, schema.KindElement, name, nil)
	if err != nil {
		o.t.Fatalf("insert %s under %s at %d: %v", name, parent.name, at, err)
	}
	o.insertViews += o.w.views - views
	n := &oracleNode{name: name, h: h}
	parent.kids = append(parent.kids, nil)
	copy(parent.kids[at+1:], parent.kids[at:])
	parent.kids[at] = n
	o.inserts++
	return n
}

// remove deletes child at of parent, in store and oracle alike.
func (o *oracleDoc) remove(parent *oracleNode, at int) {
	o.t.Helper()
	if err := DeleteSubtree(o.w, o.doc, parent.kids[at].h); err != nil {
		o.t.Fatalf("delete %s under %s: %v", parent.kids[at].name, parent.name, err)
	}
	parent.kids = append(parent.kids[:at], parent.kids[at+1:]...)
}

// check fails the test unless the document passes VerifyDoc and its top
// element equals the oracle.
func (o *oracleDoc) check(stage string) {
	o.t.Helper()
	if err := VerifyDoc(o.w, o.doc); err != nil {
		o.t.Fatalf("%s: %v", stage, err)
	}
	rootDesc, err := DescOf(o.w, o.doc.RootHandle)
	if err != nil {
		o.t.Fatal(err)
	}
	top, ok, err := FirstChild(o.w, &rootDesc)
	if err != nil || !ok {
		o.t.Fatalf("%s: no top element (%v)", stage, err)
	}
	var got, want strings.Builder
	writeStored(o.t, o.w, o.doc, top, &got)
	o.root.write(&want)
	if got.String() != want.String() {
		o.t.Fatalf("%s: stored document differs from the oracle", stage)
	}
}

// runListPositionWorkload drives random inserts and deletes whose new nodes
// mostly have no same-schema sibling, so their list position is found by
// findListPosition's general case over lists many blocks long — including
// label ranges whose blocks a run of deletes emptied and freed. After every
// batch the document must pass VerifyDoc and equal the oracle.
func runListPositionWorkload(t *testing.T, seed int64) *oracleDoc {
	t.Helper()
	o := newOracleDoc(t, "r", false)
	const groups = 2000
	for i := 0; i < groups; i++ {
		o.insert(o.root, i, "g")
	}
	o.inserts, o.insertViews = 0, 0 // count the workload's inserts only
	rng := rand.New(rand.NewSource(seed))
	names := []string{"x", "y", "z"}
	for batch := 0; batch < 5; batch++ {
		for op := 0; op < 900; op++ {
			g := o.root.kids[rng.Intn(len(o.root.kids))]
			switch {
			case len(g.kids) > 0 && rng.Intn(6) == 0:
				o.remove(g, rng.Intn(len(g.kids)))
			default:
				n := o.insert(g, rng.Intn(len(g.kids)+1), names[rng.Intn(len(names))])
				if rng.Intn(3) == 0 {
					o.insert(n, 0, "v") // a nested list two levels down
				}
			}
		}
		// Empty a stretch of the lists longer than any block, then let the
		// next batch insert into the freed label range again.
		from := rng.Intn(groups - 600)
		for _, g := range o.root.kids[from : from+600] {
			for len(g.kids) > 0 {
				o.remove(g, len(g.kids)-1)
			}
		}
		o.check(fmt.Sprintf("batch %d", batch))
	}
	xs := o.doc.Schema.Root.Child(schema.KindElement, "r").Child(schema.KindElement, "g").Child(schema.KindElement, "x")
	if xs.BlockCount < 4 {
		t.Fatalf("x list has %d blocks; the workload must span many", xs.BlockCount)
	}
	return o
}

// listSearchCut bounds from below how many times the search's page views per
// insert the walk's are. Measured 5.9x here (232.2 against 39.4 views over
// the workload's 5568 inserts); the bound is the one the statement-level
// measurement had, where the walk also cost 6.8x the search on a 2000-auction
// document.
const listSearchCut = 5.0

// TestListPositionProperty runs the workload with the search on (the parent
// search, then the block skip), then again descriptor by descriptor: both
// must place every node identically, so the two stores end up byte for byte
// the same, and the search must cut the page views of an insert at least
// listSearchCut times.
func TestListPositionProperty(t *testing.T) {
	searched := runListPositionWorkload(t, 11)
	listWalk.Store(true)
	defer listWalk.Store(false)
	walked := runListPositionWorkload(t, 11)
	if len(searched.w.pages) != len(walked.w.pages) {
		t.Fatalf("page counts differ: %d searched, %d walked", len(searched.w.pages), len(walked.w.pages))
	}
	for id, page := range searched.w.pages {
		if !bytes.Equal(page, walked.w.pages[id]) {
			t.Fatalf("page %v differs between searched and walked placement", id)
		}
	}
	perInsert := func(o *oracleDoc) float64 { return float64(o.insertViews) / float64(o.inserts) }
	s, w := perInsert(searched), perInsert(walked)
	t.Logf("page views per insert: %.1f searched, %.1f walked (%.1fx) over %d inserts", s, w, w/s, searched.inserts)
	if w < listSearchCut*s {
		t.Fatalf("the search cut page views per insert %.1f → %.1f, less than %.0fx", w, s, listSearchCut)
	}
}

// fuzzNodeCap bounds the nodes one FuzzListPosition input may insert, so the
// walk it is checked against stays cheap.
const fuzzNodeCap = 3000

// FuzzListPosition decodes the input into inserts under groups of parents,
// nested inserts, deletes and runs of emptied parents. Before every insert
// it asks findListPosition for the new node's list neighbours with the
// search and with the walk, and the parent search alone when it answers:
// all must agree. At the end the document must pass VerifyDoc and equal the
// oracle.
//
// The first byte sets the number of groups (1–256); then each op is two
// bytes, op and arg, with kind op%8 and sel op/8:
//
//	0–2  insert x, y or z under group arg at child position sel
//	3    insert v under child sel of group arg, first or last by sel's parity
//	4    delete child sel of group arg
//	5    delete every child of 4*(sel+1) groups from group arg on
//	6    append x to each of 4*(sel+1) groups from group arg on
//	7    append x, y or z (by sel) to group arg
func FuzzListPosition(f *testing.F) {
	f.Add([]byte{40, 6, 0, 0, 1, 0, 39})
	// One group: fill its first x block by appends, then insert at child 1
	// of the full group again and again — the split's worst case, where
	// every descriptor but the first follows the new one.
	full := []byte{0}
	for i := 0; i < 250; i++ {
		full = append(full, 7, 0)
	}
	for i := 0; i < 300; i++ {
		full = append(full, 8, 0)
	}
	f.Add(full)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		o := newOracleDoc(t, "r", true)
		for i := 0; i <= int(in[0]); i++ {
			o.insert(o.root, i, "g")
		}
		names := []string{"x", "y", "z"}
		groups := o.root.kids
		for i := 1; i+1 < len(in) && o.inserts < fuzzNodeCap; i += 2 {
			kind, sel, arg := in[i]%8, int(in[i]/8), int(in[i+1])
			g := groups[arg%len(groups)]
			switch kind {
			case 0, 1, 2:
				o.insert(g, sel%(len(g.kids)+1), names[kind])
			case 3:
				if len(g.kids) > 0 {
					c := g.kids[sel%len(g.kids)]
					o.insert(c, (sel%2)*len(c.kids), "v")
				}
			case 4:
				if len(g.kids) > 0 {
					o.remove(g, sel%len(g.kids))
				}
			case 5:
				for j := 0; j < 4*(sel+1); j++ {
					e := groups[(arg+j)%len(groups)]
					for len(e.kids) > 0 {
						o.remove(e, len(e.kids)-1)
					}
				}
			case 6:
				for j := 0; j < 4*(sel+1) && o.inserts < fuzzNodeCap; j++ {
					e := groups[(arg+j)%len(groups)]
					o.insert(e, len(e.kids), "x")
				}
			case 7:
				o.insert(g, len(g.kids), names[sel%3])
			}
		}
		o.check("end")
	})
}

// checkNeighbours resolves an insert the way InsertNode does and fails the
// test unless findListPosition finds the same list neighbours with the
// search as with the walk, and the parent search, when it answers, the same
// as the walk's general case.
func checkNeighbours(t testing.TB, w *memWriter, doc *Doc, parentH, leftH, rightH sas.XPtr, name string) {
	t.Helper()
	parent, err := DescOf(w, parentH)
	if err != nil {
		t.Fatal(err)
	}
	parentSn := doc.Schema.ByID(parent.SchemaID)
	sn := parentSn.Child(schema.KindElement, name)
	if sn == nil {
		return // a new schema node: its list is empty
	}
	var left, right *Desc
	var ll, rl *nid.Label
	if !leftH.IsNil() {
		d, err := DescOf(w, leftH)
		if err != nil {
			t.Fatal(err)
		}
		left, ll = &d, &d.Label
	}
	if !rightH.IsNil() {
		d, err := DescOf(w, rightH)
		if err != nil {
			t.Fatal(err)
		}
		right, rl = &d, &d.Label
	}
	label := nid.Between(parent.Label, ll, rl)
	slot := parentSn.ChildIndex(sn)
	sp, ss, err := findListPosition(w, sn, parentH, slot, label, left, right, false)
	if err != nil {
		t.Fatal(err)
	}
	wp, ws, err := findListPosition(w, sn, parentH, slot, label, left, right, true)
	if err != nil {
		t.Fatal(err)
	}
	if sp != wp || ss != ws {
		t.Fatalf("%s under %v: search found (%v, %v), walk (%v, %v)", name, parentH, sp, ss, wp, ws)
	}
	if (left != nil && left.SchemaID == sn.ID) || (right != nil && right.SchemaID == sn.ID) || sn.FirstBlock.IsNil() {
		return // a sibling fast path answered both
	}
	pp, ps, ok, err := parentSearch(w, sn, parentH, slot, left)
	if err != nil {
		t.Fatal(err)
	}
	if ok && (pp != wp || ps != ws) {
		t.Fatalf("%s under %v: parent search found (%v, %v), walk (%v, %v)", name, parentH, pp, ps, wp, ws)
	}
}
