package storage

import (
	"fmt"

	"sedna/internal/sas"
	"sedna/internal/schema"
)

// memWriter is an in-memory Writer for storage unit tests: pages live in a
// map, allocation is a counter, and WAL/versioning concerns are absent. The
// real implementation lives in the txn package; storage is written against
// the interface so both satisfy the same contract.
type memWriter struct {
	pages map[sas.PageID][]byte
	next  uint64
	undo  []func()
	freed []sas.PageID
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
	if p.IsNil() {
		return fmt.Errorf("memWriter: read of nil pointer")
	}
	return fn(m.page(sas.PageIDOf(p)))
}

func (m *memWriter) ViewPage(p sas.XPtr) ([]byte, any, error) {
	if p.IsNil() {
		return nil, nil, fmt.Errorf("memWriter: read of nil pointer")
	}
	return m.page(sas.PageIDOf(p)), nil, nil
}

func (m *memWriter) ReleasePage(any) {}

func (m *memWriter) TxnID() uint64 { return 1 }

func (m *memWriter) WriteAt(p sas.XPtr, data []byte) error {
	if p.IsNil() {
		return fmt.Errorf("memWriter: write at nil pointer")
	}
	page := m.page(sas.PageIDOf(p))
	off := int(p.PageOffset())
	if off+len(data) > len(page) {
		return fmt.Errorf("memWriter: write of %d bytes at %v crosses page end", len(data), p)
	}
	copy(page[off:], data)
	return nil
}

func (m *memWriter) AllocPage() (sas.PageID, error) {
	id := sas.PageIDFromGlobal(m.next)
	m.next++
	return id, nil
}

func (m *memWriter) FreePage(id sas.PageID) error {
	m.freed = append(m.freed, id)
	return nil
}

func (m *memWriter) NoteSchemaNode(doc *Doc, parent, node *schema.Node) {}
func (m *memWriter) NoteSchemaBlocks(doc *Doc, node *schema.Node)       {}
func (m *memWriter) NoteDocMeta(doc *Doc)                               {}

func (m *memWriter) TouchDoc(doc *Doc) {}

func (m *memWriter) Defer(undo func()) { m.undo = append(m.undo, undo) }

// rollback runs the undo stack in reverse, mimicking transaction abort for
// the in-memory side effects.
func (m *memWriter) rollback() {
	for i := len(m.undo) - 1; i >= 0; i-- {
		m.undo[i]()
	}
	m.undo = nil
}
