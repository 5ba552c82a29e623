package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sedna/internal/nid"
	"sedna/internal/sas"
	"sedna/internal/schema"
)

// buildLibraryDoc loads the paper's Figure 2 sample document through the
// storage API and returns the handles of interest.
func buildLibraryDoc(t *testing.T, w Writer) (*Doc, map[string]sas.XPtr) {
	t.Helper()
	doc, err := CreateDoc(w, 1, "library.xml")
	if err != nil {
		t.Fatal(err)
	}
	hs := make(map[string]sas.XPtr)
	ins := func(key string, parent, left sas.XPtr, kind schema.NodeKind, name, text string) sas.XPtr {
		t.Helper()
		h, err := InsertNode(w, doc, parent, left, sas.NilPtr, kind, name, []byte(text))
		if err != nil {
			t.Fatalf("insert %s: %v", key, err)
		}
		hs[key] = h
		return h
	}
	lib := ins("library", doc.RootHandle, sas.NilPtr, schema.KindElement, "library", "")

	b1 := ins("book1", lib, sas.NilPtr, schema.KindElement, "book", "")
	t1 := ins("book1/title", b1, sas.NilPtr, schema.KindElement, "title", "")
	ins("book1/title/text", t1, sas.NilPtr, schema.KindText, "", "Foundations of Databases")
	a1 := ins("book1/author1", b1, hs["book1/title"], schema.KindElement, "author", "")
	ins("book1/author1/text", a1, sas.NilPtr, schema.KindText, "", "Abiteboul")
	a2 := ins("book1/author2", b1, a1, schema.KindElement, "author", "")
	ins("book1/author2/text", a2, sas.NilPtr, schema.KindText, "", "Hull")
	a3 := ins("book1/author3", b1, a2, schema.KindElement, "author", "")
	ins("book1/author3/text", a3, sas.NilPtr, schema.KindText, "", "Vianu")

	b2 := ins("book2", lib, b1, schema.KindElement, "book", "")
	t2 := ins("book2/title", b2, sas.NilPtr, schema.KindElement, "title", "")
	ins("book2/title/text", t2, sas.NilPtr, schema.KindText, "", "An Introduction to Database Systems")
	a4 := ins("book2/author", b2, t2, schema.KindElement, "author", "")
	ins("book2/author/text", a4, sas.NilPtr, schema.KindText, "", "Date")
	iss := ins("book2/issue", b2, a4, schema.KindElement, "issue", "")
	pub := ins("book2/issue/publisher", iss, sas.NilPtr, schema.KindElement, "publisher", "")
	ins("book2/issue/publisher/text", pub, sas.NilPtr, schema.KindText, "", "Addison-Wesley")
	yr := ins("book2/issue/year", iss, pub, schema.KindElement, "year", "")
	ins("book2/issue/year/text", yr, sas.NilPtr, schema.KindText, "", "2004")

	p := ins("paper", lib, b2, schema.KindElement, "paper", "")
	pt := ins("paper/title", p, sas.NilPtr, schema.KindElement, "title", "")
	ins("paper/title/text", pt, sas.NilPtr, schema.KindText, "", "A Relational Model for Large Shared Data Banks")
	pa := ins("paper/author", p, pt, schema.KindElement, "author", "")
	ins("paper/author/text", pa, sas.NilPtr, schema.KindText, "", "Codd")
	return doc, hs
}

func TestCreateDoc(t *testing.T) {
	w := newMemWriter()
	doc, err := CreateDoc(w, 1, "d")
	if err != nil {
		t.Fatal(err)
	}
	root, err := DescOf(w, doc.RootHandle)
	if err != nil {
		t.Fatal(err)
	}
	if !root.Parent.IsNil() {
		t.Fatal("document node must have no parent")
	}
	if !nid.Same(root.Label, nid.Root()) {
		t.Fatalf("root label = %v", root.Label)
	}
	if err := VerifyDoc(w, doc); err != nil {
		t.Fatal(err)
	}
}

func TestLibraryDocumentStructure(t *testing.T) {
	w := newMemWriter()
	doc, hs := buildLibraryDoc(t, w)
	if err := VerifyDoc(w, doc); err != nil {
		t.Fatal(err)
	}

	// Figure 2: the library schema node has 2 element children even though
	// the data has 2 books + 1 paper.
	libSn := doc.Schema.Root.Child(schema.KindElement, "library")
	if len(libSn.Children) != 2 {
		t.Fatalf("library schema children = %d", len(libSn.Children))
	}
	// The library descriptor has exactly two child pointers: first book and
	// first paper.
	lib, err := DescOf(w, hs["library"])
	if err != nil {
		t.Fatal(err)
	}
	book1, _ := DescOf(w, hs["book1"])
	paper, _ := DescOf(w, hs["paper"])
	if lib.ChildAtSlot(0) != book1.Ptr {
		t.Fatalf("slot 0 = %v, want first book %v", lib.ChildAtSlot(0), book1.Ptr)
	}
	if lib.ChildAtSlot(1) != paper.Ptr {
		t.Fatalf("slot 1 = %v, want paper %v", lib.ChildAtSlot(1), paper.Ptr)
	}

	// Traversal: children of library in document order are book1, book2,
	// paper — crossing schema types via sibling pointers.
	first, ok, err := FirstChild(w, &lib)
	if err != nil || !ok {
		t.Fatalf("FirstChild: %v %v", ok, err)
	}
	book2, _ := DescOf(w, hs["book2"])
	order := []sas.XPtr{book1.Ptr, book2.Ptr, paper.Ptr}
	cur := first
	for i, want := range order {
		if cur.Ptr != want {
			t.Fatalf("child %d = %v, want %v", i, cur.Ptr, want)
		}
		if i < len(order)-1 {
			cur, err = ReadDesc(w, cur.RightSib)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if !cur.RightSib.IsNil() {
		t.Fatal("paper must be the last child")
	}

	// All three author schema nodes' data: book authors share one schema
	// node (4 nodes), paper author is a distinct schema node (1 node).
	bookAuthor := libSn.Child(schema.KindElement, "book").Child(schema.KindElement, "author")
	if bookAuthor.NodeCount != 4 {
		t.Fatalf("book/author count = %d, want 4", bookAuthor.NodeCount)
	}
	paperAuthor := libSn.Child(schema.KindElement, "paper").Child(schema.KindElement, "author")
	if paperAuthor.NodeCount != 1 {
		t.Fatalf("paper/author count = %d, want 1", paperAuthor.NodeCount)
	}

	// Text round trip.
	yr := hs["book2/issue/year/text"]
	yd, err := DescOf(w, yr)
	if err != nil {
		t.Fatal(err)
	}
	text, err := Text(w, &yd)
	if err != nil {
		t.Fatal(err)
	}
	if string(text) != "2004" {
		t.Fatalf("year text = %q", text)
	}
}

func TestScanSchemaDocumentOrder(t *testing.T) {
	w := newMemWriter()
	doc, _ := buildLibraryDoc(t, w)
	libSn := doc.Schema.Root.Child(schema.KindElement, "library")
	authorSn := libSn.Child(schema.KindElement, "book").Child(schema.KindElement, "author")

	var texts []string
	err := ScanSchema(w, authorSn, func(d Desc) (bool, error) {
		// author -> text child
		c, ok, err := FirstChild(w, &d)
		if err != nil || !ok {
			return false, fmt.Errorf("author without text: %v", err)
		}
		b, err := Text(w, &c)
		if err != nil {
			return false, err
		}
		texts = append(texts, string(b))
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Abiteboul", "Hull", "Vianu", "Date"}
	if len(texts) != len(want) {
		t.Fatalf("scan found %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("scan order %v, want %v", texts, want)
		}
	}
}

func TestAncestorViaLabels(t *testing.T) {
	w := newMemWriter()
	_, hs := buildLibraryDoc(t, w)
	lib, _ := DescOf(w, hs["library"])
	year, _ := DescOf(w, hs["book2/issue/year"])
	book1, _ := DescOf(w, hs["book1"])
	if !IsAncestorDesc(&lib, &year) {
		t.Fatal("library must be ancestor of year")
	}
	if IsAncestorDesc(&book1, &year) {
		t.Fatal("book1 must not be ancestor of book2's year")
	}
	if !DocLess(&book1, &year) {
		t.Fatal("book1 precedes year in document order")
	}
}

func TestInsertMiddleSibling(t *testing.T) {
	w := newMemWriter()
	doc, hs := buildLibraryDoc(t, w)
	// Insert a book directly after book1 (left given, right resolved from
	// the chain): the new node lands between book1 and book2.
	mid, err := InsertNode(w, doc, hs["library"], hs["book1"], sas.NilPtr, schema.KindElement, "book", nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := DescOf(w, hs["book1"])
	m, _ := DescOf(w, mid)
	b2, _ := DescOf(w, hs["book2"])
	if b1.RightSib != m.Ptr || m.RightSib != b2.Ptr || m.LeftSib != b1.Ptr || b2.LeftSib != m.Ptr {
		t.Fatal("middle insert not wired between book1 and book2")
	}
	if err := VerifyDoc(w, doc); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteSubtree(t *testing.T) {
	w := newMemWriter()
	doc, hs := buildLibraryDoc(t, w)
	before := doc.Schema.Root.Child(schema.KindElement, "library").NodeCount

	if err := DeleteSubtree(w, doc, hs["book2"]); err != nil {
		t.Fatal(err)
	}
	if err := VerifyDoc(w, doc); err != nil {
		t.Fatal(err)
	}
	// book1's right sibling is now paper.
	b1, _ := DescOf(w, hs["book1"])
	paper, _ := DescOf(w, hs["paper"])
	if b1.RightSib != paper.Ptr {
		t.Fatalf("book1.rightSib = %v, want paper %v", b1.RightSib, paper.Ptr)
	}
	if paper.LeftSib != b1.Ptr {
		t.Fatalf("paper.leftSib = %v", paper.LeftSib)
	}
	// The issue/publisher/year schema nodes now hold zero nodes.
	issueSn := doc.Schema.Root.Child(schema.KindElement, "library").
		Child(schema.KindElement, "book").Child(schema.KindElement, "issue")
	if issueSn.NodeCount != 0 {
		t.Fatalf("issue NodeCount = %d", issueSn.NodeCount)
	}
	if before != 1 {
		t.Fatalf("library count changed: %d", before)
	}
	// Deleting the document node must fail.
	if err := DeleteSubtree(w, doc, doc.RootHandle); err == nil {
		t.Fatal("deleting the document node must fail")
	}
}

func TestDeleteFirstChildUpdatesSlot(t *testing.T) {
	w := newMemWriter()
	doc, hs := buildLibraryDoc(t, w)
	if err := DeleteSubtree(w, doc, hs["book1"]); err != nil {
		t.Fatal(err)
	}
	lib, _ := DescOf(w, hs["library"])
	b2, _ := DescOf(w, hs["book2"])
	if lib.ChildAtSlot(0) != b2.Ptr {
		t.Fatalf("book slot = %v, want book2 %v", lib.ChildAtSlot(0), b2.Ptr)
	}
	if err := VerifyDoc(w, doc); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateText(t *testing.T) {
	w := newMemWriter()
	doc, hs := buildLibraryDoc(t, w)
	h := hs["book2/issue/year/text"]
	if err := UpdateText(w, doc, h, []byte("2005")); err != nil {
		t.Fatal(err)
	}
	d, _ := DescOf(w, h)
	text, err := Text(w, &d)
	if err != nil {
		t.Fatal(err)
	}
	if string(text) != "2005" {
		t.Fatalf("text = %q", text)
	}
	if err := VerifyDoc(w, doc); err != nil {
		t.Fatal(err)
	}
}

func TestLongTextChunking(t *testing.T) {
	w := newMemWriter()
	doc, hs := buildLibraryDoc(t, w)
	long := bytes.Repeat([]byte("sedna "), 10000) // 60 KB, several chunks/pages
	h, err := InsertNode(w, doc, hs["paper"], sas.NilPtr, sas.NilPtr, schema.KindText, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := UpdateText(w, doc, h, long); err != nil {
		t.Fatal(err)
	}
	d, _ := DescOf(w, h)
	got, err := Text(w, &d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, long) {
		t.Fatalf("long text mismatch: %d vs %d bytes", len(got), len(long))
	}
	if err := VerifyDoc(w, doc); err != nil {
		t.Fatal(err)
	}
	// Free it again.
	if err := UpdateText(w, doc, h, []byte("x")); err != nil {
		t.Fatal(err)
	}
	d, _ = DescOf(w, h)
	got, _ = Text(w, &d)
	if string(got) != "x" {
		t.Fatalf("text = %q", got)
	}
}

func TestBulkLoadSplitsBlocks(t *testing.T) {
	w := newMemWriter()
	doc, err := CreateDoc(w, 1, "big")
	if err != nil {
		t.Fatal(err)
	}
	rootEl, err := InsertNode(w, doc, doc.RootHandle, sas.NilPtr, sas.NilPtr, schema.KindElement, "root", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Insert enough children of one schema node to force several blocks.
	n := nodeBlockCapacity(0)*3 + 7
	left := sas.NilPtr
	for i := 0; i < n; i++ {
		h, err := InsertNode(w, doc, rootEl, left, sas.NilPtr, schema.KindElement, "item", nil)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		left = h
	}
	itemSn := doc.Schema.Root.Child(schema.KindElement, "root").Child(schema.KindElement, "item")
	if itemSn.BlockCount < 3 {
		t.Fatalf("expected ≥3 blocks, got %d", itemSn.BlockCount)
	}
	if itemSn.NodeCount != uint64(n) {
		t.Fatalf("NodeCount = %d, want %d", itemSn.NodeCount, n)
	}
	if err := VerifyDoc(w, doc); err != nil {
		t.Fatal(err)
	}
}

func TestRandomInsertDeleteInvariants(t *testing.T) {
	w := newMemWriter()
	doc, err := CreateDoc(w, 1, "rand")
	if err != nil {
		t.Fatal(err)
	}
	rootEl, err := InsertNode(w, doc, doc.RootHandle, sas.NilPtr, sas.NilPtr, schema.KindElement, "r", nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	type node struct {
		h        sas.XPtr
		children []sas.XPtr
	}
	parents := []sas.XPtr{rootEl}
	kids := map[sas.XPtr][]sas.XPtr{}
	names := []string{"a", "b", "c"}
	var all []sas.XPtr
	for i := 0; i < 800; i++ {
		p := parents[rng.Intn(len(parents))]
		siblings := kids[p]
		at := 0
		if len(siblings) > 0 {
			at = rng.Intn(len(siblings) + 1)
		}
		var left, right sas.XPtr
		if at > 0 {
			left = siblings[at-1]
		}
		if at < len(siblings) {
			right = siblings[at]
		}
		h, err := InsertNode(w, doc, p, left, right, schema.KindElement, names[rng.Intn(len(names))], nil)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		siblings = append(siblings, sas.NilPtr)
		copy(siblings[at+1:], siblings[at:])
		siblings[at] = h
		kids[p] = siblings
		all = append(all, h)
		if rng.Intn(4) == 0 {
			parents = append(parents, h)
		}
	}
	if err := VerifyDoc(w, doc); err != nil {
		t.Fatalf("after inserts: %v", err)
	}

	// Delete ~third of the leaves (nodes without registered children).
	deleted := 0
	for _, h := range all {
		if len(kids[h]) != 0 || rng.Intn(3) != 0 {
			continue
		}
		// Still present? Its parent may have been deleted already; detect
		// by deref.
		if _, err := DescOf(w, h); err != nil {
			continue
		}
		if err := DeleteSubtree(w, doc, h); err != nil {
			t.Fatalf("delete: %v", err)
		}
		// Remove from the parent's bookkeeping.
		for p, sibs := range kids {
			for i, s := range sibs {
				if s == h {
					kids[p] = append(sibs[:i], sibs[i+1:]...)
					break
				}
			}
		}
		deleted++
	}
	if deleted == 0 {
		t.Fatal("test deleted nothing")
	}
	if err := VerifyDoc(w, doc); err != nil {
		t.Fatalf("after deletes: %v", err)
	}
}

func TestDelayedWidening(t *testing.T) {
	w := newMemWriter()
	doc, err := CreateDoc(w, 1, "widen")
	if err != nil {
		t.Fatal(err)
	}
	rootEl, err := InsertNode(w, doc, doc.RootHandle, sas.NilPtr, sas.NilPtr, schema.KindElement, "r", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Many r-children named e: the e schema node's descriptors start with
	// zero child slots.
	var es []sas.XPtr
	left := sas.NilPtr
	for i := 0; i < 50; i++ {
		h, err := InsertNode(w, doc, rootEl, left, sas.NilPtr, schema.KindElement, "e", nil)
		if err != nil {
			t.Fatal(err)
		}
		es = append(es, h)
		left = h
	}
	eSn := doc.Schema.Root.Child(schema.KindElement, "r").Child(schema.KindElement, "e")
	if len(eSn.Children) != 0 {
		t.Fatal("e should have no schema children yet")
	}

	// Give ONE e a child: this adds a schema child of e and must widen only
	// that e's descriptor (delayed per-block widening) — the others keep
	// their narrow blocks.
	mid := es[25]
	if _, err := InsertNode(w, doc, mid, sas.NilPtr, sas.NilPtr, schema.KindElement, "sub", nil); err != nil {
		t.Fatal(err)
	}
	if err := VerifyDoc(w, doc); err != nil {
		t.Fatal(err)
	}
	d, err := DescOf(w, mid)
	if err != nil {
		t.Fatal(err)
	}
	if d.ChildSlots < 1 {
		t.Fatalf("widened descriptor has %d slots", d.ChildSlots)
	}
	// A neighbour that got no children can still be narrow.
	d0, err := DescOf(w, es[0])
	if err != nil {
		t.Fatal(err)
	}
	if d0.ChildSlots != 0 {
		t.Fatalf("untouched descriptor widened to %d slots", d0.ChildSlots)
	}
	// Now give the narrow one a child too.
	if _, err := InsertNode(w, doc, es[0], sas.NilPtr, sas.NilPtr, schema.KindElement, "sub", nil); err != nil {
		t.Fatal(err)
	}
	if err := VerifyDoc(w, doc); err != nil {
		t.Fatal(err)
	}
}

// TestReadDescAllocations: decoding a descriptor whose label fits inline
// costs one heap allocation (child pointers and label share it), with or
// without child slots.
func TestReadDescAllocations(t *testing.T) {
	w := newMemWriter()
	_, hs := buildLibraryDoc(t, w)
	for _, key := range []string{"book1", "book1/title/text"} {
		ptr, err := DerefHandle(w, hs[key])
		if err != nil {
			t.Fatal(err)
		}
		var r Reader = w
		var d Desc
		allocs := testing.AllocsPerRun(200, func() { d, err = ReadDesc(r, ptr) })
		if err != nil || d.Handle != hs[key] {
			t.Fatalf("%s: read %v, %v", key, d.Handle, err)
		}
		if allocs > 1 {
			t.Fatalf("%s: ReadDesc made %.0f allocations, want ≤ 1", key, allocs)
		}
	}
}

func TestDeepDocumentLabelOverflow(t *testing.T) {
	w := newMemWriter()
	doc, err := CreateDoc(w, 1, "deep")
	if err != nil {
		t.Fatal(err)
	}
	// A 30-level chain: labels exceed the 16-byte inline capacity and
	// overflow into text storage.
	parent := doc.RootHandle
	for i := 0; i < 30; i++ {
		h, err := InsertNode(w, doc, parent, sas.NilPtr, sas.NilPtr, schema.KindElement, "d", nil)
		if err != nil {
			t.Fatalf("level %d: %v", i, err)
		}
		parent = h
	}
	d, err := DescOf(w, parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Label.Prefix) <= nidInlineCap {
		t.Skipf("labels stayed inline (%d bytes); overflow untested", len(d.Label.Prefix))
	}
	if err := VerifyDoc(w, doc); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackUndoesSchemaGrowth(t *testing.T) {
	w := newMemWriter()
	doc, err := CreateDoc(w, 1, "undo")
	if err != nil {
		t.Fatal(err)
	}
	w.undo = nil // forget doc-creation undos; we roll back only the insert
	if _, err := InsertNode(w, doc, doc.RootHandle, sas.NilPtr, sas.NilPtr, schema.KindElement, "x", nil); err != nil {
		t.Fatal(err)
	}
	if doc.Schema.Root.Child(schema.KindElement, "x") == nil {
		t.Fatal("schema node missing")
	}
	w.rollback()
	if doc.Schema.Root.Child(schema.KindElement, "x") != nil {
		t.Fatal("schema growth not undone")
	}
	if doc.Schema.Root.Child(schema.KindElement, "x") != nil {
		t.Fatal("x still present")
	}
}
