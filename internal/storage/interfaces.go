// Package storage implements Sedna's data organization (§4.1): document
// nodes are stored as fixed-size node descriptors clustered into blocks by
// descriptive-schema node, blocks of one schema node form a bidirectional
// list that is partly ordered by document order, descriptors carry direct
// sibling pointers and an indirect parent pointer through the indirection
// table, text values live in slotted pages, and every node has an immutable
// node handle (its indirection-table entry).
package storage

import (
	"sedna/internal/sas"
	"sedna/internal/schema"
)

// Reader provides read access to pages. Implementations exist for live
// access (through the buffer manager's layer-mapped dereference) and for
// snapshot access (through the version store), so every traversal in this
// package works identically for updaters and for read-only transactions.
type Reader interface {
	// ReadPage invokes fn with the content of the page containing p. The
	// slice is only valid during the call.
	ReadPage(p sas.XPtr, fn func(page []byte) error) error

	// ViewPage is ReadPage without the callback, for the per-descriptor
	// decoders: a closure handed to an interface method escapes together
	// with every variable it captures, which cost several heap allocations
	// per descriptor read. The slice is valid only until ReleasePage is
	// called with the returned pin, which the caller does exactly once per
	// successful ViewPage; whatever outlives that must be copied out.
	ViewPage(p sas.XPtr) (page []byte, pin any, err error)
	ReleasePage(pin any)
}

// Writer extends Reader with mutation. Every byte written through WriteAt or
// WritePage is captured in the write-ahead log by the transaction layer
// (physical redo records), which is what makes recovery's second step
// possible; the transaction layer also turns page writes into version-chain
// pre-images for snapshot isolation.
type Writer interface {
	Reader

	// TxnID identifies the owning transaction.
	TxnID() uint64

	// WriteAt replaces len(data) bytes at p with data, logging the change.
	WriteAt(p sas.XPtr, data []byte) error

	// WritePage replaces the whole page id with page, a PageSize image of a
	// page this transaction allocated, logging it. The page is handed over:
	// the caller never reads or writes the slice again, whether or not the
	// call succeeds.
	WritePage(id sas.PageID, page []byte) error

	// AllocPage allocates a page (rolled back if the transaction aborts).
	AllocPage() (sas.PageID, error)

	// FreePage releases a page at commit (kept if the transaction aborts).
	FreePage(id sas.PageID) error

	// NoteSchemaNode records that a new descriptive-schema node was created
	// under parent, so recovery can rebuild the schema.
	NoteSchemaNode(doc *Doc, parent, node *schema.Node)

	// NoteSchemaBlocks records that node's block-list heads or counters
	// changed.
	NoteSchemaBlocks(doc *Doc, node *schema.Node)

	// NoteDocMeta records that doc-level fields (indirection chain, text
	// chain, root handle) changed.
	NoteDocMeta(doc *Doc)

	// TouchDoc marks the document's in-memory metadata (e.g. schema node
	// counters) as modified without logging anything; the engine republishes
	// the committed metadata version for snapshot readers. Called by every
	// node insert/delete/text update.
	TouchDoc(doc *Doc)

	// Defer registers an undo action run (in reverse order) if the
	// transaction rolls back; used for in-memory schema and counter
	// changes, which are not covered by page pre-images.
	Defer(undo func())
}

// Doc is the storage-level state of one document. It is owned by the
// catalog; all fields except Schema are persisted in the catalog snapshot
// and re-established by recovery.
type Doc struct {
	ID     uint32
	Name   string
	Schema *schema.Schema

	// RootHandle is the node handle of the document node.
	RootHandle sas.XPtr

	// Indirection-table block chain and the block currently used for new
	// handle allocations.
	IndirFirst, IndirLast sas.XPtr

	// Text-storage block chain and the block currently tried first for new
	// text allocations.
	TextFirst, TextLast sas.XPtr
}
