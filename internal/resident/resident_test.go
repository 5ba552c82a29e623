package resident_test

import (
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"sedna/internal/core"
	"sedna/internal/lock"
	"sedna/internal/nid"
	"sedna/internal/resident"
	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
)

const repXML = `<r a="1"><x>one</x><y b="2">two</y><x>three</x></r>`

// buildRep loads repXML and builds its resident representation through the
// public acquire path, returning the Rep and the document's descriptive
// schema (the Rep itself only stores schema IDs).
func buildRep(t *testing.T) (*resident.Rep, *schema.Schema) {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true, Resident: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LoadXML("d", strings.NewReader(repXML)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ro, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ro.Rollback() })
	doc, err := ro.Document("d")
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := ro.ResidentFor(doc)
	if rep == nil {
		t.Fatal("ResidentFor returned nil with resident mode on")
	}
	return rep, doc.Schema
}

// schemaID resolves a schema node by name and kind through the Rep's
// per-schema lists.
func schemaID(t *testing.T, rep *resident.Rep, sch *schema.Schema, name string, kind schema.NodeKind) uint32 {
	t.Helper()
	for id := range rep.BySchema {
		if sn := sch.ByID(id); sn != nil && sn.Name == name && sn.Kind == kind {
			return id
		}
	}
	t.Fatalf("schema node %q (%v) not in rep", name, kind)
	return 0
}

func TestBuildStructure(t *testing.T) {
	rep, _ := buildRep(t)
	n := len(rep.Nodes)
	if n == 0 {
		t.Fatal("empty rep")
	}
	if rep.Nodes[0].Parent != -1 || int(rep.Nodes[0].SubtreeEnd) != n {
		t.Fatalf("root: parent=%d subtreeEnd=%d nodes=%d",
			rep.Nodes[0].Parent, rep.Nodes[0].SubtreeEnd, n)
	}
	for i := 1; i < n; i++ {
		nd := &rep.Nodes[i]
		if nd.Parent < 0 || nd.Parent >= int32(i) {
			t.Fatalf("node %d: parent %d not before it", i, nd.Parent)
		}
		if nd.SubtreeEnd <= int32(i) || nd.SubtreeEnd > int32(n) {
			t.Fatalf("node %d: subtreeEnd %d out of range", i, nd.SubtreeEnd)
		}
		// The array is in document order: the subtree of a node nests inside
		// its parent's, and a first child directly follows its parent.
		p := &rep.Nodes[nd.Parent]
		if nd.SubtreeEnd > p.SubtreeEnd {
			t.Fatalf("node %d: subtree escapes parent %d", i, nd.Parent)
		}
		// The derived edges agree with the stored ones: the node after a
		// parent is its first child, and following NextSib from it visits
		// exactly the parent's children.
		if first := rep.FirstChild(nd.Parent); (first == int32(i)) != (nd.Parent == int32(i)-1) {
			t.Fatalf("FirstChild(%d) = %d, node %d has that parent", nd.Parent, first, i)
		}
		if next := rep.NextSib(int32(i)); next >= 0 && (rep.Nodes[next].Parent != nd.Parent || next != nd.SubtreeEnd) {
			t.Fatalf("NextSib(%d) = %d: parent %d, want %d", i, next, rep.Nodes[next].Parent, nd.Parent)
		} else if next < 0 && nd.SubtreeEnd != p.SubtreeEnd {
			t.Fatalf("node %d has no next sibling but its parent's subtree goes on to %d", i, p.SubtreeEnd)
		}
		if nid.Compare(rep.Label(int32(i-1)), rep.Label(int32(i))) >= 0 {
			t.Fatalf("labels not strictly increasing at %d", i)
		}
	}
	// Every node resolves back to its index through the handle map.
	for i := 0; i < n; i++ {
		if j, ok := rep.IndexOf(rep.Nodes[i].Handle); !ok || j != int32(i) {
			t.Fatalf("IndexOf(handle of %d) = %d, %v", i, j, ok)
		}
	}
	total := 0
	for _, list := range rep.BySchema {
		for k := 1; k < len(list); k++ {
			if list[k-1] >= list[k] {
				t.Fatal("BySchema list not ascending")
			}
		}
		total += len(list)
	}
	if total != n {
		t.Fatalf("BySchema covers %d nodes, want %d", total, n)
	}
	if rep.Bytes == 0 {
		t.Fatal("footprint not computed")
	}
}

func TestBuildTextAndAttributes(t *testing.T) {
	rep, sch := buildRep(t)
	attrID := schemaID(t, rep, sch, "a", schema.KindAttribute)
	list := rep.BySchema[attrID]
	if len(list) != 1 {
		t.Fatalf("attribute a: %d instances, want 1", len(list))
	}
	if got := string(rep.NodeText(list[0])); got != "1" {
		t.Fatalf("attribute a value = %q, want \"1\"", got)
	}
	// Each parent path has its own text schema node; gather them all and
	// read the values in array (= document) order.
	var textIdx []int32
	for id, list := range rep.BySchema {
		if sn := sch.ByID(id); sn != nil && sn.Kind == schema.KindText {
			textIdx = append(textIdx, list...)
		}
	}
	sort.Slice(textIdx, func(a, b int) bool { return textIdx[a] < textIdx[b] })
	var texts []string
	for _, i := range textIdx {
		texts = append(texts, string(rep.NodeText(i)))
	}
	if strings.Join(texts, ",") != "one,two,three" {
		t.Fatalf("text nodes in document order = %v", texts)
	}
	// An element node carries no text of its own.
	rID := schemaID(t, rep, sch, "r", schema.KindElement)
	if rep.NodeText(rep.BySchema[rID][0]) != nil {
		t.Fatal("element node should have nil text")
	}
}

// TestUpdateTextInvalidates pins that a text-only update — which replaces a
// node's value without moving any descriptor — still publishes a new
// document version, so the next snapshot rebuilds instead of sharing the
// stale Rep.
func TestUpdateTextInvalidates(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true, Resident: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ltx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ltx.LoadXML("d", strings.NewReader(repXML)); err != nil {
		t.Fatal(err)
	}
	if err := ltx.Commit(); err != nil {
		t.Fatal(err)
	}
	acquire := func() *resident.Rep {
		ro, err := db.BeginReadOnly()
		if err != nil {
			t.Fatal(err)
		}
		defer ro.Rollback()
		doc, err := ro.Document("d")
		if err != nil {
			t.Fatal(err)
		}
		rep, deferred := ro.ResidentFor(doc)
		if rep == nil {
			t.Fatalf("ResidentFor returned nil (deferred=%v)", deferred)
		}
		return rep
	}
	// A stopped clock makes builds take no time, so the admission gate
	// admits the rebuild right after the commit below.
	epoch := time.Now()
	db.ResidentCache().SetClockForTesting(func() time.Time { return epoch })
	rep1 := acquire()
	// Find the first text node ("one") in the array.
	idx := int32(-1)
	for i := range rep1.Nodes {
		if rep1.Nodes[i].HasText && string(rep1.NodeText(int32(i))) == "one" {
			idx = int32(i)
			break
		}
	}
	if idx < 0 {
		t.Fatal("text node not found in rep")
	}
	handle := rep1.Nodes[idx].Handle

	utx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := utx.LockDocument("d", lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	doc, err := utx.Document("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.UpdateText(utx.Tx, doc, handle, []byte("uno")); err != nil {
		t.Fatal(err)
	}
	if err := utx.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.ResidentCache().Contains("d") {
		t.Fatal("text update did not invalidate the resident copy")
	}
	builds := db.Metrics().Snapshot().Counters["resident.builds"]
	rep2 := acquire()
	if got := db.Metrics().Snapshot().Counters["resident.builds"]; got != builds+1 {
		t.Fatalf("resident.builds %d -> %d, want one rebuild", builds, got)
	}
	if rep2.CommitTS <= rep1.CommitTS {
		t.Fatalf("rebuilt rep not newer: %d <= %d", rep2.CommitTS, rep1.CommitTS)
	}
	if got := string(rep2.NodeText(idx)); got != "uno" {
		t.Fatalf("rebuilt rep text = %q, want \"uno\"", got)
	}
}

// TestIndexOfAfterReshuffle checks the handle lookup on a document whose
// handles no longer ascend in document order: a node inserted in front gets
// the newest handle and the first place.
func TestIndexOfAfterReshuffle(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true, Resident: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := tx.LoadXML("d", strings.NewReader(repXML))
	if err != nil {
		t.Fatal(err)
	}
	root, err := storage.DescOf(tx.Tx, doc.RootHandle)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := storage.FirstChild(tx.Tx, &root)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := storage.FirstChild(tx.Tx, &r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storage.InsertNode(tx.Tx, doc, r.Handle, first.Handle, sas.NilPtr, schema.KindElement, "x", nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ro, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Rollback()
	rdoc, err := ro.Document("d")
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := ro.ResidentFor(rdoc)
	if rep == nil {
		t.Fatal("ResidentFor returned nil with resident mode on")
	}
	if sort.SliceIsSorted(rep.Nodes, func(a, b int) bool { return rep.Nodes[a].Handle < rep.Nodes[b].Handle }) {
		t.Fatal("handles still ascend in document order: the insert did not reshuffle them")
	}
	for i := range rep.Nodes {
		if j, ok := rep.IndexOf(rep.Nodes[i].Handle); !ok || j != int32(i) {
			t.Fatalf("IndexOf(handle of %d) = %d, %v", i, j, ok)
		}
	}
	if _, ok := rep.IndexOf(sas.XPtr(1)); ok {
		t.Fatal("IndexOf found a handle the document does not hold")
	}
}

func TestDescendantRange(t *testing.T) {
	rep, sch := buildRep(t)
	xID := schemaID(t, rep, sch, "x", schema.KindElement)
	yID := schemaID(t, rep, sch, "y", schema.KindElement)
	xs := rep.BySchema[xID]
	if len(xs) != 2 {
		t.Fatalf("x instances = %d, want 2", len(xs))
	}
	// From the root, the descendant range is the full per-schema list.
	if got := rep.DescendantRange(xID, 0); len(got) != 2 {
		t.Fatalf("DescendantRange(x, root) = %v", got)
	}
	// Inside y's subtree there is no x.
	y := rep.BySchema[yID][0]
	if got := rep.DescendantRange(xID, y); len(got) != 0 {
		t.Fatalf("DescendantRange(x, y) = %v, want empty", got)
	}
	// Children of r under the x schema are exactly the two x elements.
	rID := schemaID(t, rep, sch, "r", schema.KindElement)
	r := rep.BySchema[rID][0]
	if got := rep.DescendantRange(xID, r); len(got) != 2 {
		t.Fatalf("DescendantRange(x, r) = %v", got)
	}
}

// flakyReader serves the first n page reads from the inner reader, then
// fails every subsequent one — an I/O error at an arbitrary point of the
// build walk.
type flakyReader struct {
	inner storage.Reader
	n     int
	reads int
}

func (f *flakyReader) ReadPage(p sas.XPtr, fn func(page []byte) error) error {
	if f.reads >= f.n {
		return errors.New("injected read failure")
	}
	f.reads++
	return f.inner.ReadPage(p, fn)
}

func (f *flakyReader) ViewPage(p sas.XPtr) ([]byte, any, error) {
	if f.reads >= f.n {
		return nil, nil, errors.New("injected read failure")
	}
	f.reads++
	return f.inner.ViewPage(p)
}

func (f *flakyReader) ReleasePage(pin any) { f.inner.ReleasePage(pin) }

// TestBuildReadFailure pins that a page-read error at any point during
// Build surfaces as an error rather than a silently truncated Rep
// (regression: a ReadDesc failure in the sibling walk used to end the loop
// as if the chain were exhausted, caching a Rep with missing nodes).
func TestBuildReadFailure(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true, Resident: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ltx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ltx.LoadXML("d", strings.NewReader(repXML)); err != nil {
		t.Fatal(err)
	}
	if err := ltx.Commit(); err != nil {
		t.Fatal(err)
	}
	ro, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Rollback()
	doc, err := ro.Document("d")
	if err != nil {
		t.Fatal(err)
	}
	// Count the page reads a full build performs; the walk is deterministic,
	// so the same reads recur on every attempt.
	counter := &flakyReader{inner: ro.Tx, n: 1 << 30}
	full, err := resident.Build(counter, doc, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := counter.reads
	if total == 0 {
		t.Fatal("build performed no page reads")
	}
	for n := 0; n < total; n++ {
		rep, err := resident.Build(&flakyReader{inner: ro.Tx, n: n}, doc, 1, 1)
		if err == nil {
			t.Fatalf("build with %d/%d reads available: got rep with %d nodes (want %d) and nil error",
				n, total, len(rep.Nodes), len(full.Nodes))
		}
	}
}
