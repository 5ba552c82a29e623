package storage

import (
	"reflect"
	"testing"

	"sedna/internal/nid"
	"sedna/internal/sas"
	"sedna/internal/schema"
)

// testRun is a RunBuffer of a chosen capacity whose bytes are never reused.
type testRun struct {
	d []Desc
	n int
}

func (b *testRun) NextDesc() *Desc {
	if b.n == len(b.d) {
		return nil
	}
	b.n++
	return &b.d[b.n-1]
}

func (b *testRun) Bytes(n int) []byte { return make([]byte, n) }

// viaRuns drains a chain through ReadRun with the given buffer capacity.
func viaRuns(t *testing.T, r Reader, at sas.XPtr, link Link, parent sas.XPtr, under *nid.Label, capacity int) []Desc {
	t.Helper()
	var out []Desc
	for !at.IsNil() {
		run := testRun{d: make([]Desc, capacity)}
		next, err := ReadRun(r, at, link, parent, under, &run)
		if err != nil {
			t.Fatal(err)
		}
		if run.n == 0 && !next.IsNil() {
			t.Fatalf("run at %v decoded nothing yet continues at %v", at, next)
		}
		out = append(out, run.d[:run.n]...)
		at = next
	}
	return out
}

// viaReadDesc is the descriptor-at-a-time list walk the run decoder replaced:
// one ReadDesc per step, the next block's header read at each block end,
// blocks without descriptors skipped.
func viaReadDesc(t *testing.T, r Reader, sn *schema.Node) []Desc {
	t.Helper()
	var out []Desc
	block := sn.FirstBlock
	for !block.IsNil() {
		h, err := readNodeHeader(r, block)
		if err != nil {
			t.Fatal(err)
		}
		for off := h.FirstDesc; off != 0; {
			d, err := ReadDesc(r, block.Add(uint32(off)))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, d)
			off = uint16(d.NextInBlock.PageOffset())
		}
		block = h.Next
	}
	return out
}

// TestReadRunMatchesReadDescLoop builds block chains with everything the run
// decoder has to get right — several blocks per list, an empty block in the
// middle of a chain, narrow and widened blocks in one list (delayed widening),
// labels overflowed into text storage — and checks, for every schema node and
// several buffer capacities, that the runs decode exactly the descriptors the
// ReadDesc loop reads, and that the parent and ancestor-label stops and the
// sibling link cut where the loop's own checks would.
func TestReadRunMatchesReadDescLoop(t *testing.T) {
	w := newMemWriter()
	doc, err := CreateDoc(w, 1, "runs")
	if err != nil {
		t.Fatal(err)
	}
	add := func(parent, left sas.XPtr, kind schema.NodeKind, name string, text []byte) sas.XPtr {
		t.Helper()
		h, err := InsertNode(w, doc, parent, left, sas.NilPtr, kind, name, text)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	root := add(doc.RootHandle, sas.NilPtr, schema.KindElement, "r", nil)
	var es []sas.XPtr
	left := sas.NilPtr
	for i := 0; i < 600; i++ { // a narrow block holds 240
		left = add(root, left, schema.KindElement, "e", nil)
		es = append(es, left)
	}
	// Widen a few e's (their runs move to blocks with a child slot) and give
	// several of them more than one child of the same schema node.
	for _, i := range []int{0, 100, 101, 300, 599} {
		sl := sas.NilPtr
		for j := 0; j <= i%3; j++ {
			sl = add(es[i], sl, schema.KindElement, "sub", nil)
		}
	}
	// Forty siblings thirty levels down: their labels overflow the inline
	// capacity, and they share one list.
	deep := es[300]
	for i := 0; i < 30; i++ {
		deep = add(deep, sas.NilPtr, schema.KindElement, "d", nil)
	}
	left = sas.NilPtr
	for i := 0; i < 40; i++ {
		left = add(deep, left, schema.KindElement, "leaf", []byte("x"))
	}
	// An empty block in the middle of e's chain, as a run of deletes or a
	// move can leave one.
	eSN := doc.Schema.Root.Child(schema.KindElement, "r").Child(schema.KindElement, "e")
	if _, err := newNodeBlock(w, doc, eSN, 0, eSN.FirstBlock); err != nil {
		t.Fatal(err)
	}

	overflowed := 0
	doc.Schema.Root.Walk(func(sn *schema.Node) {
		want := viaReadDesc(t, w, sn)
		for _, capacity := range []int{1, 3, 64} {
			got := viaRuns(t, w, sn.FirstBlock, ListLink, sas.NilPtr, nil, capacity)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, capacity %d: runs decoded %d descriptors that differ from the ReadDesc loop's %d", sn.Path(), capacity, len(got), len(want))
			}
		}
		for i := range want {
			if len(want[i].Label.Prefix) > nidInlineCap {
				overflowed++
			}
		}
	})
	if overflowed < 40 {
		t.Fatalf("only %d overflowed labels in the corpus", overflowed)
	}
	var narrow, wide, empty int
	for block := eSN.FirstBlock; !block.IsNil(); {
		h, err := readNodeHeader(w, block)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case h.Count == 0:
			empty++
		case h.ChildSlots == 0:
			narrow++
		default:
			wide++
		}
		block = h.Next
	}
	if narrow == 0 || wide == 0 || empty == 0 {
		t.Fatalf("e's chain has %d narrow, %d wide and %d empty blocks, want some of each", narrow, wide, empty)
	}

	// Parent stop: the sub children of one e, from its slot pointer.
	subSN := eSN.Child(schema.KindElement, "sub")
	allSubs := viaReadDesc(t, w, subSN)
	for _, i := range []int{0, 100, 101, 300, 599} {
		ed, err := DescOf(w, es[i])
		if err != nil {
			t.Fatal(err)
		}
		var want []Desc
		for _, s := range allSubs {
			if s.Parent == es[i] {
				want = append(want, s)
			}
		}
		got := viaRuns(t, w, ed.ChildAtSlot(eSN.ChildIndex(subSN)), ListLink, es[i], nil, 2)
		if !reflect.DeepEqual(got, want) || len(want) != i%3+1 {
			t.Fatalf("sub children of e[%d]: %d by runs, %d by the loop", i, len(got), len(want))
		}
	}

	// Ancestor stop, over overflowed labels: the leaves under the deep node,
	// and nothing under its first leaf.
	dd, err := DescOf(w, deep)
	if err != nil {
		t.Fatal(err)
	}
	leafSN := doc.Schema.ByID(dd.SchemaID).Child(schema.KindElement, "leaf")
	leaves := viaReadDesc(t, w, leafSN)
	first, err := FirstInRange(w, &dd, doc.Schema.ByID(dd.SchemaID), leafSN)
	if err != nil {
		t.Fatal(err)
	}
	if got := viaRuns(t, w, first, ListLink, sas.NilPtr, &dd.Label, 8); !reflect.DeepEqual(got, leaves) {
		t.Fatalf("leaves under the deep node: %d by runs, %d in the list", len(got), len(leaves))
	}
	if got := viaRuns(t, w, leaves[1].Ptr, ListLink, sas.NilPtr, &leaves[0].Label, 8); len(got) != 0 {
		t.Fatalf("%d leaves decoded under a leaf", len(got))
	}

	// Sibling link: r's children in sibling order are the e list.
	rd, err := DescOf(w, root)
	if err != nil {
		t.Fatal(err)
	}
	firstChild, err := FirstChildPtr(w, &rd)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := viaRuns(t, w, firstChild, SiblingLink, sas.NilPtr, nil, 7), viaReadDesc(t, w, eSN); !reflect.DeepEqual(got, want) {
		t.Fatalf("sibling runs decoded %d children, the list holds %d", len(got), len(want))
	}

	// SkipRun lands where a decoder that dropped the first n descriptors of
	// each of these chains would resume — across blocks, past the empty one,
	// and at a parent stop.
	skipTo := func(what string, at sas.XPtr, link Link, parent sas.XPtr, want []Desc) {
		t.Helper()
		for _, n := range []int{0, 1, 2, 239, 240, 241, len(want) - 1, len(want), len(want) + 5} {
			if n < 0 {
				continue
			}
			next, skipped, err := SkipRun(w, at, link, parent, n)
			if err != nil {
				t.Fatal(err)
			}
			tail := want[min(n, len(want)):]
			rest := viaRuns(t, w, next, link, parent, nil, 64)
			if skipped != min(n, len(want)) || len(rest) != len(tail) || len(tail) > 0 && !reflect.DeepEqual(rest, tail) {
				t.Fatalf("%s: skipping %d stepped over %d, then decoded %d; want %d", what, n, skipped, len(rest), len(tail))
			}
		}
	}
	skipTo("e list", eSN.FirstBlock, ListLink, sas.NilPtr, viaReadDesc(t, w, eSN))
	skipTo("r's children", firstChild, SiblingLink, sas.NilPtr, viaReadDesc(t, w, eSN))
	e300, err := DescOf(w, es[300])
	if err != nil {
		t.Fatal(err)
	}
	var subs []Desc
	for _, s := range allSubs {
		if s.Parent == es[300] {
			subs = append(subs, s)
		}
	}
	skipTo("sub children of e[300]", e300.ChildAtSlot(eSN.ChildIndex(subSN)), ListLink, es[300], subs)
}
