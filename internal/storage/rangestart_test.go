package storage_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sedna/internal/core"
	"sedna/internal/lock"
	"sedna/internal/nid"
	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
)

// The range-start property: for every context node and every schema node
// below the context's, storage.FirstInRange — a descent from the context's
// own child pointers — returns exactly what a scan of the target's whole
// block list filtered by IsAncestor returns. Checked through real
// transactions (an updater reading its own uncommitted changes, a snapshot
// taken before them, a snapshot taken after) because the descent depends on
// child pointers, in-list chains and schema counters staying in step with
// each other under versioning.

// rangeDoc generates a document whose shapes all stress the descent: the
// same names at several depths (g inside g, x under g and under y), mixed
// content with text between and around elements, empty elements, comments
// and processing instructions, attributes, per-schema lists long enough to
// span many blocks, and a spine of s elements deep enough that labels
// overflow their inline 16 bytes while every level still has two instances.
func rangeDoc(rng *rand.Rand, groups, spine int) string {
	var sb strings.Builder
	var content func(depth int)
	content = func(depth int) {
		for n := rng.Intn(5); n > 0; n-- {
			switch rng.Intn(9) {
			case 0:
				sb.WriteString("lead ")
			case 1:
				fmt.Fprintf(&sb, "<x>%d</x>", rng.Intn(100))
			case 2:
				sb.WriteString("<x/>")
			case 3:
				fmt.Fprintf(&sb, `<y k="%d">a<x>in</x>b<x>side</x>c</y>`, rng.Intn(10))
			case 4:
				sb.WriteString("<!--note-->")
			case 5:
				sb.WriteString("<?pi data?>")
			case 6:
				sb.WriteString("<z/>")
			default:
				if depth < 3 {
					sb.WriteString("<g>")
					content(depth + 1)
					sb.WriteString("</g>")
				} else {
					sb.WriteString(" tail")
				}
			}
		}
	}
	sb.WriteString("<r>")
	for i := 0; i < groups; i++ {
		sb.WriteString("<g>")
		content(1)
		sb.WriteString("</g>")
	}
	for d := 0; d < spine; d++ {
		sb.WriteString("<s><x>top</x>")
	}
	for d := 0; d < spine; d++ {
		fmt.Fprintf(&sb, "</s><s>t<x>%d</x></s>", d)
	}
	sb.WriteString("</r>")
	return sb.String()
}

// chains reads every schema node's whole list, in list order.
func chains(t *testing.T, r storage.Reader, doc *storage.Doc) map[*schema.Node][]storage.Desc {
	t.Helper()
	out := make(map[*schema.Node][]storage.Desc)
	doc.Schema.Root.Walk(func(sn *schema.Node) {
		err := storage.ScanSchema(r, sn, func(d storage.Desc) (bool, error) {
			out[sn] = append(out[sn], d)
			return true, nil
		})
		if err != nil {
			t.Fatalf("scan %s: %v", sn.Path(), err)
		}
	})
	return out
}

// checkRangeStarts compares FirstInRange with the whole-chain oracle for
// every (context, descendant schema node) pair and returns the pair count.
func checkRangeStarts(t *testing.T, stage string, r storage.Reader, doc *storage.Doc) int {
	t.Helper()
	all := chains(t, r, doc)
	pairs := 0
	for ctxSN, ctxs := range all {
		targets := ctxSN.Descendants(func(*schema.Node) bool { return true })
		for i := range ctxs {
			ctx := &ctxs[i]
			for _, sn := range targets {
				var want *storage.Desc
				for j := range all[sn] {
					if nid.IsAncestor(ctx.Label, all[sn][j].Label) {
						want = &all[sn][j]
						break
					}
				}
				got, err := storage.FirstInRange(r, ctx, ctxSN, sn)
				if err != nil {
					t.Fatalf("%s: %s under %s %v: %v", stage, sn.Path(), ctxSN.Path(), ctx.Ptr, err)
				}
				switch {
				case got.IsNil() != (want == nil):
					t.Fatalf("%s: %s under %s %v: found=%v, oracle found=%v", stage, sn.Path(), ctxSN.Path(), ctx.Ptr, !got.IsNil(), want != nil)
				case want != nil && got != want.Ptr:
					t.Fatalf("%s: %s under %s %v: starts at %v, oracle says %v", stage, sn.Path(), ctxSN.Path(), ctx.Ptr, got, want.Ptr)
				}
				pairs++
			}
		}
	}
	return pairs
}

// kidsOf returns the handles of d's children in document order.
func kidsOf(t *testing.T, r storage.Reader, d *storage.Desc) []sas.XPtr {
	t.Helper()
	var out []sas.XPtr
	c, ok, err := storage.FirstChild(r, d)
	for ok && err == nil {
		out = append(out, c.Handle)
		if c.RightSib.IsNil() {
			break
		}
		c, err = storage.ReadDesc(r, c.RightSib)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRangeStartProperty(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(15))
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LoadXML("d", strings.NewReader(rangeDoc(rng, 2500, 24))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	before, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer before.Rollback()
	beforeDoc, err := before.Document("d")
	if err != nil {
		t.Fatal(err)
	}
	rSN := beforeDoc.Schema.Root.Child(schema.KindElement, "r")
	gSN := rSN.Child(schema.KindElement, "g")
	if xs := gSN.Child(schema.KindElement, "x"); xs.BlockCount < 4 {
		t.Fatalf("r/g/x spans %d blocks; the document must have lists of many", xs.BlockCount)
	}
	sSN := rSN
	for sSN.Child(schema.KindElement, "s") != nil {
		sSN = sSN.Child(schema.KindElement, "s")
	}
	if deepest, ok, err := storage.FirstOfSchema(before.Tx, sSN); err != nil || !ok || len(deepest.Label.Prefix) <= 16 {
		t.Fatalf("spine labels stayed inline (%d bytes, %v)", len(deepest.Label.Prefix), err)
	}
	pairs := checkRangeStarts(t, "loaded, snapshot", before.Tx, beforeDoc)

	// Edits through an updating transaction: new child names under nodes
	// loaded narrow (widening their descriptors), inserts at random sibling
	// positions at every depth, and deletes — scattered ones and a stretch
	// long enough to empty whole blocks of the lists below it.
	w, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LockDocument("d", lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	doc, err := w.Document("d")
	if err != nil {
		t.Fatal(err)
	}
	live := chains(t, w.Tx, doc)
	liveG := live[doc.Schema.Root.Child(schema.KindElement, "r").Child(schema.KindElement, "g")]
	var parents []sas.XPtr // elements at every depth
	for sn, list := range live {
		if sn.Kind == schema.KindElement {
			for i := range list {
				parents = append(parents, list[i].Handle)
			}
		}
	}
	// Map iteration order is random; the workload must not be.
	sort.Slice(parents, func(i, j int) bool { return parents[i] < parents[j] })
	// Freed handles are reused by later inserts, so deletions are tracked
	// per node rather than probed for.
	gone := make(map[sas.XPtr]bool)
	var mark func(h sas.XPtr)
	mark = func(h sas.XPtr) {
		gone[h] = true
		d, err := storage.DescOf(w.Tx, h)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kidsOf(t, w.Tx, &d) {
			mark(k)
		}
	}
	remove := func(h sas.XPtr) {
		mark(h)
		if err := storage.DeleteSubtree(w.Tx, doc, h); err != nil {
			t.Fatalf("delete: %v", err)
		}
	}
	for _, g := range liveG[800:1800] {
		remove(g.Handle)
	}
	names := []string{"x", "y", "g", "w", "v"} // w and v are new everywhere
	for op := 0; op < 1500; op++ {
		ph := parents[rng.Intn(len(parents))]
		if gone[ph] {
			continue
		}
		p, err := storage.DescOf(w.Tx, ph)
		if err != nil {
			t.Fatal(err)
		}
		kids := kidsOf(t, w.Tx, &p)
		if len(kids) > 0 && rng.Intn(4) == 0 {
			remove(kids[rng.Intn(len(kids))])
			continue
		}
		at := rng.Intn(len(kids) + 1)
		var left, right sas.XPtr
		if at > 0 {
			left = kids[at-1]
		}
		if at < len(kids) {
			right = kids[at]
		}
		kind, name, text := schema.KindElement, names[rng.Intn(len(names))], []byte(nil)
		if rng.Intn(3) == 0 {
			kind, name, text = schema.KindText, "", []byte("ins")
		}
		h, err := storage.InsertNode(w.Tx, doc, p.Handle, left, right, kind, name, text)
		if err != nil {
			t.Fatalf("insert %q under %v: %v", name, p.Ptr, err)
		}
		if kind == schema.KindElement && !gone[h] {
			parents = append(parents, h)
		}
	}
	if err := storage.VerifyDoc(w.Tx, doc); err != nil {
		t.Fatalf("after edits: %v", err)
	}
	pairs += checkRangeStarts(t, "edited, updating transaction", w.Tx, doc)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	// The snapshot from before the edits still reads the old pages and the
	// old schema version.
	pairs += checkRangeStarts(t, "edited, earlier snapshot", before.Tx, beforeDoc)

	after, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer after.Rollback()
	afterDoc, err := after.Document("d")
	if err != nil {
		t.Fatal(err)
	}
	pairs += checkRangeStarts(t, "edited, later snapshot", after.Tx, afterDoc)

	// NodeCount is a hint: a count that wrongly says "single instance" sends
	// the start through the head of the list, which must be rejected when it
	// is not under the context.
	afterDoc.Schema.Root.Walk(func(sn *schema.Node) {
		if sn.NodeCount > 1 {
			sn.NodeCount = 1
		}
	})
	pairs += checkRangeStarts(t, "edited, counts understated", after.Tx, afterDoc)
	t.Logf("%d (context, schema node) pairs checked", pairs)
}
