package subtree

import (
	"strings"
	"testing"

	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
	"sedna/internal/xmlgen"
)

// memWriter is an in-memory storage.Writer.
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
func (m *memWriter) FreePage(sas.PageID) error                               { return nil }
func (m *memWriter) NoteSchemaNode(*storage.Doc, *schema.Node, *schema.Node) {}
func (m *memWriter) NoteSchemaBlocks(*storage.Doc, *schema.Node)             {}
func (m *memWriter) NoteDocMeta(*storage.Doc)                                {}
func (m *memWriter) TouchDoc(doc *storage.Doc)                               {}

func (m *memWriter) Defer(func()) {}

func TestLoadAndScan(t *testing.T) {
	w := newMemWriter()
	s, err := Load(w, strings.NewReader(`<lib><book><title>A</title><author>X</author></book><book><title>B</title></book></lib>`))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	var titles []string
	err = s.Scan(w, func(r Rec) (bool, error) {
		if r.Kind == KindElement {
			names = append(names, r.Name)
		}
		if r.Kind == KindText {
			titles = append(titles, r.Text)
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"#document", "lib", "book", "title", "author", "book", "title"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	if len(titles) != 3 || titles[0] != "A" {
		t.Fatalf("texts = %v", titles)
	}
}

func TestSubtreeContiguousRead(t *testing.T) {
	w := newMemWriter()
	s, err := Load(w, strings.NewReader(xmlgen.LibraryString(200, 1)))
	if err != nil {
		t.Fatal(err)
	}
	// Find the 5th book and read its whole subtree contiguously.
	found := 0
	var rec Rec
	err = s.Scan(w, func(r Rec) (bool, error) {
		if r.Kind == KindElement && r.Name == "book" {
			found++
			if found == 5 {
				rec = r
				return false, nil
			}
		}
		return true, nil
	})
	if err != nil || found != 5 {
		t.Fatalf("scan: found=%d err=%v", found, err)
	}
	raw, err := s.ReadSubtreeBytes(w, rec.Pos, rec.SubtreeLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != rec.SubtreeLen {
		t.Fatalf("subtree read %d bytes, want %d", len(raw), rec.SubtreeLen)
	}
	// The first record in the blob is the book itself.
	if raw[0] != KindElement {
		t.Fatalf("subtree head kind = %d", raw[0])
	}
}

func TestMultiPageDocument(t *testing.T) {
	w := newMemWriter()
	s, err := Load(w, strings.NewReader(xmlgen.LibraryString(3000, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Size < int64(sas.PageSize)*2 {
		t.Fatalf("document too small to span pages: %d", s.Size)
	}
	count := 0
	err = s.Scan(w, func(r Rec) (bool, error) {
		if r.Kind == KindElement && r.Name == "author" {
			count++
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("no authors found in multi-page scan")
	}
}
