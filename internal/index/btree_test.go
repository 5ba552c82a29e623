package index

import (
	"fmt"
	"math/rand"
	"testing"

	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
)

// memWriter is an in-memory storage.Writer for index tests.
type memWriter struct {
	pages map[sas.PageID][]byte
	next  uint64
}

func newMemWriter() *memWriter {
	return &memWriter{pages: make(map[sas.PageID][]byte), next: 1}
}

func (m *memWriter) page(id sas.PageID) []byte {
	p := m.pages[id]
	if p == nil {
		p = make([]byte, sas.PageSize)
		m.pages[id] = p
	}
	return p
}

func (m *memWriter) ReadPage(p sas.XPtr, fn func(page []byte) error) error {
	return fn(m.page(sas.PageIDOf(p)))
}
func (m *memWriter) ViewPage(p sas.XPtr) ([]byte, any, error) {
	return m.page(sas.PageIDOf(p)), nil, nil
}
func (m *memWriter) ReleasePage(any) {}
func (m *memWriter) TxnID() uint64   { return 1 }
func (m *memWriter) WriteAt(p sas.XPtr, data []byte) error {
	copy(m.page(sas.PageIDOf(p))[p.PageOffset():], data)
	return nil
}

// WritePage stores a copy of the handed-over page and then poisons the
// slice, so a caller that keeps using it after the handover fails.
func (m *memWriter) WritePage(id sas.PageID, page []byte) error {
	if err := m.WriteAt(id.Ptr(), page); err != nil {
		return err
	}
	for i := range page {
		page[i] = 0xA5
	}
	return nil
}
func (m *memWriter) AllocPage() (sas.PageID, error) {
	id := sas.PageIDFromGlobal(m.next)
	m.next++
	return id, nil
}
func (m *memWriter) FreePage(id sas.PageID) error                               { return nil }
func (m *memWriter) NoteSchemaNode(doc *storage.Doc, parent, node *schema.Node) {}
func (m *memWriter) NoteSchemaBlocks(doc *storage.Doc, node *schema.Node)       {}
func (m *memWriter) NoteDocMeta(doc *storage.Doc)                               {}
func (m *memWriter) TouchDoc(doc *storage.Doc)                                  {}

func (m *memWriter) Defer(func()) {}

func handle(i int) sas.XPtr { return sas.MakePtr(7, uint32(i)*8) }

func TestInsertLookup(t *testing.T) {
	w := newMemWriter()
	tr, err := Create(w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tr.Insert(w, StringKey(fmt.Sprintf("key-%03d", i)), handle(i)); err != nil {
			t.Fatal(err)
		}
	}
	hs, err := tr.Lookup(w, StringKey("key-042"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 1 || hs[0] != handle(42) {
		t.Fatalf("lookup = %v", hs)
	}
	if hs, _ := tr.Lookup(w, StringKey("absent")); len(hs) != 0 {
		t.Fatalf("absent key found: %v", hs)
	}
}

func TestDuplicateKeysDistinctHandles(t *testing.T) {
	w := newMemWriter()
	tr, _ := Create(w)
	for i := 0; i < 10; i++ {
		if err := tr.Insert(w, StringKey("dup"), handle(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Re-inserting the same (key, handle) is a no-op.
	if err := tr.Insert(w, StringKey("dup"), handle(3)); err != nil {
		t.Fatal(err)
	}
	hs, _ := tr.Lookup(w, StringKey("dup"))
	if len(hs) != 10 {
		t.Fatalf("duplicates = %d, want 10", len(hs))
	}
}

func TestSplitsAndOrder(t *testing.T) {
	w := newMemWriter()
	tr, _ := Create(w)
	n := leafCap()*5 + 17 // force leaf and internal splits
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, i := range perm {
		if err := tr.Insert(w, NumberKey(float64(i)), handle(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := tr.Count(w); got != n {
		t.Fatalf("count = %d, want %d", got, n)
	}
	// Full range scan must be sorted and complete.
	var lo, hi Key
	for i := range hi {
		hi[i] = 0xFF
	}
	prev := -1
	err := tr.Range(w, lo, hi, func(k Key, h sas.XPtr) bool {
		cur := int(h.Offset()) / 8
		_ = k
		if prevKeyGreater(t, prev, cur) {
			t.Fatalf("out of order: %d after %d", cur, prev)
		}
		prev = cur
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func prevKeyGreater(t *testing.T, prev, cur int) bool {
	t.Helper()
	return prev >= 0 && cur < prev
}

func TestNumberKeyOrdering(t *testing.T) {
	vals := []float64{-1e9, -3.5, -1, -0.25, 0, 0.25, 1, 3.5, 42, 1e9}
	for i := 0; i+1 < len(vals); i++ {
		a, b := NumberKey(vals[i]), NumberKey(vals[i+1])
		if !(string(a[:]) < string(b[:])) {
			t.Fatalf("NumberKey(%g) !< NumberKey(%g)", vals[i], vals[i+1])
		}
	}
}

func TestDelete(t *testing.T) {
	w := newMemWriter()
	tr, _ := Create(w)
	for i := 0; i < 200; i++ {
		tr.Insert(w, NumberKey(float64(i)), handle(i))
	}
	for i := 0; i < 200; i += 2 {
		if err := tr.Delete(w, NumberKey(float64(i)), handle(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Deleting a missing entry is a no-op.
	if err := tr.Delete(w, NumberKey(9999), handle(1)); err != nil {
		t.Fatal(err)
	}
	if got, _ := tr.Count(w); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if hs, _ := tr.Lookup(w, NumberKey(4)); len(hs) != 0 {
		t.Fatal("deleted key still present")
	}
	if hs, _ := tr.Lookup(w, NumberKey(5)); len(hs) != 1 {
		t.Fatal("kept key lost")
	}
}

func TestRangeScan(t *testing.T) {
	w := newMemWriter()
	tr, _ := Create(w)
	for i := 0; i < 1000; i++ {
		tr.Insert(w, NumberKey(float64(i)), handle(i))
	}
	got := 0
	err := tr.Range(w, NumberKey(100), NumberKey(199), func(k Key, h sas.XPtr) bool {
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Fatalf("range hits = %d, want 100", got)
	}
}

func TestRandomInsertDeleteProperty(t *testing.T) {
	w := newMemWriter()
	tr, _ := Create(w)
	rng := rand.New(rand.NewSource(11))
	ref := make(map[int]bool)
	for op := 0; op < 5000; op++ {
		i := rng.Intn(800)
		if rng.Intn(3) == 0 {
			tr.Delete(w, NumberKey(float64(i)), handle(i))
			delete(ref, i)
		} else {
			tr.Insert(w, NumberKey(float64(i)), handle(i))
			ref[i] = true
		}
	}
	if got, _ := tr.Count(w); got != len(ref) {
		t.Fatalf("count = %d, want %d", got, len(ref))
	}
	for i := range ref {
		hs, _ := tr.Lookup(w, NumberKey(float64(i)))
		if len(hs) != 1 {
			t.Fatalf("key %d: %d hits", i, len(hs))
		}
	}
}

func TestFreeAll(t *testing.T) {
	w := newMemWriter()
	tr, _ := Create(w)
	for i := 0; i < leafCap()*3; i++ {
		tr.Insert(w, NumberKey(float64(i)), handle(i))
	}
	if err := tr.FreeAll(w); err != nil {
		t.Fatal(err)
	}
}
