package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
	"sedna/internal/wal"
)

// recover runs the paper's two-step recovery (§6.4) and is executed on every
// Open (a cleanly shut down database recovers trivially):
//
//  1. The transaction-consistent persistent snapshot is restored: the
//     catalog snapshot of the master's generation is loaded, and every page
//     saved to the snapshot area since that checkpoint is copied back into
//     the data file (stale areas from an older era are discarded).
//  2. The log is scanned from the checkpoint: the commit records determine
//     which transactions completed, and only their operations are redone —
//     physical page writes, allocator movements, and the logical catalog
//     records that rebuild in-memory schemas and document metadata.
//
// Each redone transaction is counted against the documents it wrote, as its
// commit counted it for the optimizer's staleness clock. Only those
// documents have their per-schema-node counters recomputed from block
// headers; every other document keeps the counters the checkpoint saved,
// which its commits kept exact, so open costs what the log redoes and not
// what the database holds. Replicated apply does not keep counters (Promote
// recounts), so a database that has applied replicated transactions
// recounts every document. A fresh checkpoint follows, so a crash during
// recovery restarts it idempotently; that checkpoint retires the log
// segments recovery has just redone.
func (db *Database) recover() error {
	master := db.pf.Master()

	// Step 0: catalog snapshot of the checkpoint generation.
	if master.MetaGen > 0 {
		cat, freeList, backupLSN, err := loadMeta(db.dir, master.MetaGen)
		if err != nil {
			return err
		}
		db.catalog = cat
		db.pf.ResetAllocator(master.NextAlloc, freeList)
		if backupLSN > 0 {
			if err := db.holdBackupLog(backupLSN); err != nil {
				return err
			}
		}
	} else {
		db.catalog = NewCatalog()
		db.pf.ResetAllocator(master.NextAlloc, nil)
	}

	// Step 1: restore the persistent snapshot.
	if db.snap.Era() == master.CheckpointLSN {
		err := db.snap.Restore(func(id sas.PageID, data []byte) error {
			return db.pf.WritePage(id, data)
		})
		if err != nil {
			return err
		}
		if err := db.pf.Sync(); err != nil {
			return err
		}
	}
	// A mismatched era means the crash hit the window between master
	// publication and area reset: the data file already is the snapshot.
	if err := db.snap.Reset(master.CheckpointLSN); err != nil {
		return err
	}

	// Step 2, pass 1: find committed transactions. Only commit records are
	// decoded; page images are checksummed and skipped.
	committed := make(map[uint64]uint64) // txn -> commitTS
	maxCTS := master.CommitTS
	err := db.log.ScanType(master.CheckpointLSN, wal.RecCommit, func(_ uint64, r *wal.Record) error {
		committed[r.Txn] = r.CommitTS
		if r.CommitTS > maxCTS {
			maxCTS = r.CommitTS
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Step 2, pass 2: redo committed operations in log order. Replication
	// progress records are recovered alongside: a standalone watermark
	// (Txn == 0) is always valid, one inside an apply transaction only if
	// that transaction committed. Later records carry larger watermarks, so
	// plain assignment keeps the maximum.
	redo := &redoState{db: db, pages: make(map[sas.PageID][]byte), wrote: make(map[txnDoc]struct{})}
	var replRestart, replCommit uint64
	err = db.log.Scan(master.CheckpointLSN, func(_ uint64, r *wal.Record) error {
		if r.Type == wal.RecCheckpoint {
			return nil
		}
		if r.Type == wal.RecReplApplied {
			_, ok := committed[r.Txn]
			if r.Txn == 0 || ok {
				replRestart, replCommit = r.RestartLSN, r.CommitLSN
			}
			return nil
		}
		if _, ok := committed[r.Txn]; !ok {
			return nil
		}
		return redo.apply(r)
	})
	if err != nil {
		return err
	}
	if err := redo.flush(); err != nil {
		return err
	}
	db.txm.SetCommitTS(maxCTS)
	db.noteReplProgress(replRestart, replCommit)
	redo.noteUpdates()

	// Recount the documents redo wrote (all of them once replicated
	// transactions were applied) and publish the initial committed metadata
	// version of every document.
	restart, commit := db.ReplProgress()
	all := restart > 0 || commit > 0
	wrote := redo.wroteDocs()
	for _, name := range db.catalog.DocNames() {
		doc, _ := db.catalog.Doc(name)
		if all || wrote[doc.ID] {
			if err := db.recountDoc(doc, redo.pages); err != nil {
				return err
			}
		}
		v := db.committedVersion(doc)
		v.ts = maxCTS
		db.docVers.publish(name, v, 0)
	}

	// Fresh checkpoint: bounds the next recovery and clears redo work.
	return db.checkpointLocked()
}

// redoState applies redo records against a private page cache, flushing to
// the data file at the end.
type redoState struct {
	db    *Database
	pages map[sas.PageID][]byte
	// wrote holds the documents each redone transaction wrote a node block
	// of, freed one of, or changed a schema block list of.
	wrote map[txnDoc]struct{}
}

type txnDoc struct {
	txn uint64
	doc uint32
}

// noteUpdates counts each redone transaction once against every document it
// wrote, as its commit did before the crash (Catalog.NoteUpdate), so that
// statistics the lost commits made stale stay stale.
func (rs *redoState) noteUpdates() {
	for k := range rs.wrote {
		if doc, ok := rs.db.catalog.DocByID(k.doc); ok {
			rs.db.catalog.NoteUpdate(doc.Name)
		}
	}
}

// wroteDocs returns the documents some redone transaction wrote.
func (rs *redoState) wroteDocs() map[uint32]bool {
	docs := make(map[uint32]bool)
	for k := range rs.wrote {
		docs[k.doc] = true
	}
	return docs
}

// page returns the redo copy of page id, read from the data file on first
// use unless whole: a write that covers the whole page (a bulk-loaded page,
// a new block) reads nothing it would not overwrite.
func (rs *redoState) page(id sas.PageID, whole bool) ([]byte, error) {
	if p, ok := rs.pages[id]; ok {
		return p, nil
	}
	p := make([]byte, sas.PageSize)
	if !whole {
		if err := rs.db.pf.ReadPage(id, p); err != nil {
			return nil, err
		}
	}
	rs.pages[id] = p
	return p, nil
}

func (rs *redoState) apply(r *wal.Record) error {
	db := rs.db
	switch r.Type {
	case wal.RecPageWrite:
		p, err := rs.page(r.Page, r.Off == 0 && len(r.Data) == sas.PageSize)
		if err != nil {
			return err
		}
		if int(r.Off)+len(r.Data) > len(p) {
			return fmt.Errorf("core: redo write out of page bounds at %v+%d", r.Page, r.Off)
		}
		copy(p[r.Off:], r.Data)
		rs.noteNodeBlock(r.Txn, p)
	case wal.RecAllocPage:
		db.pf.RedoAlloc(r.Page)
	case wal.RecFreePage:
		// A freed node block the cache does not hold is named anyway: the
		// unlinking that precedes a free logs the schema block list.
		if p, ok := rs.pages[r.Page]; ok {
			rs.noteNodeBlock(r.Txn, p)
		}
		db.pf.Free(r.Page)
	default:
		// Metadata records rebuild the catalog. A bulk-load marker's pages
		// were replayed as page writes above, and the counters of the
		// documents redo wrote are recomputed from block headers afterwards;
		// begin, commit and abort carry nothing to redo.
		doc, _, err := db.catalog.redo(r)
		if err != nil {
			return fmt.Errorf("core: redo: %w", err)
		}
		if r.Type == wal.RecSchemaBlocks {
			rs.wrote[txnDoc{r.Txn, doc.ID}] = struct{}{}
		}
	}
	return nil
}

// noteNodeBlock records that transaction txn wrote page p's document, if p
// is a node block.
func (rs *redoState) noteNodeBlock(txn uint64, p []byte) {
	if doc, ok := storage.NodeBlockDoc(p); ok {
		rs.wrote[txnDoc{txn, doc}] = struct{}{}
	}
}

// redo applies one metadata record — RecCreateDoc through RecIndexMeta — to
// the catalog, as recovery's redo and a replica's apply both do, and returns
// the document whose metadata it changed (nil for a drop, or for an index
// record whose index is gone). ok=false: r is not a metadata record.
func (c *Catalog) redo(r *wal.Record) (doc *storage.Doc, ok bool, err error) {
	byID := func(what string) (*storage.Doc, error) {
		doc, found := c.DocByID(r.DocID)
		if !found {
			return nil, fmt.Errorf("%s for unknown doc %d", what, r.DocID)
		}
		return doc, nil
	}
	switch r.Type {
	case wal.RecCreateDoc:
		doc = &storage.Doc{ID: r.DocID, Name: r.Name, Schema: schema.New()}
		c.Put(doc)
	case wal.RecDropDoc:
		c.Delete(r.Name)
	case wal.RecAddSchemaNode:
		if doc, err = byID("schema node"); err != nil {
			return nil, true, err
		}
		parent := doc.Schema.ByID(r.ParentID)
		if parent == nil {
			return nil, true, fmt.Errorf("schema node %d: unknown parent %d", r.NodeID, r.ParentID)
		}
		if _, err := doc.Schema.AddWithID(parent, r.NodeID, schema.NodeKind(r.Kind), r.Name); err != nil {
			return nil, true, err
		}
	case wal.RecSchemaBlocks:
		if doc, err = byID("schema blocks"); err != nil {
			return nil, true, err
		}
		sn := doc.Schema.ByID(r.NodeID)
		if sn == nil {
			return nil, true, fmt.Errorf("schema blocks: unknown node %d", r.NodeID)
		}
		sn.FirstBlock, sn.LastBlock = r.Ptrs[0], r.Ptrs[1]
	case wal.RecDocMeta:
		if doc, err = byID("doc meta"); err != nil {
			return nil, true, err
		}
		doc.RootHandle = r.Ptrs[0]
		doc.IndirFirst, doc.IndirLast = r.Ptrs[1], r.Ptrs[2]
		doc.TextFirst, doc.TextLast = r.Ptrs[3], r.Ptrs[4]
	case wal.RecCreateIndex:
		if doc, err = byID("index"); err != nil {
			return nil, true, err
		}
		parts := strings.SplitN(r.Path, "\x1f", 3)
		ix := &IndexMeta{Name: r.Name, DocName: doc.Name}
		if len(parts) == 3 {
			ix.OnPath, ix.ByPath, ix.KeyType = parts[0], parts[1], parts[2]
		}
		c.PutIndex(ix)
	case wal.RecDropIndex, wal.RecIndexMeta:
		ix, found := c.Index(r.Name)
		if !found {
			return nil, true, nil
		}
		if r.Type == wal.RecDropIndex {
			c.DeleteIndex(r.Name)
		} else {
			ix.Root = r.Ptrs[0]
		}
		doc, _ = c.Doc(ix.DocName)
	default:
		return nil, false, nil
	}
	return doc, true, nil
}

// flush writes the redone pages to the data file in ascending file order.
func (rs *redoState) flush() error {
	ids := make([]sas.PageID, 0, len(rs.pages))
	for id := range rs.pages {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b sas.PageID) int { return cmp.Compare(a.GlobalIndex(), b.GlobalIndex()) })
	for _, id := range ids {
		if err := rs.db.pf.WritePage(id, rs.pages[id]); err != nil {
			return err
		}
	}
	if len(rs.pages) > 0 {
		return rs.db.pf.Sync()
	}
	return nil
}

// recountDoc recomputes NodeCount and BlockCount for every schema node of a
// document by scanning block headers. A block whose page is in cached
// (recovery's redo pages; nil elsewhere) is read from there, any other from
// the database.
func (db *Database) recountDoc(doc *storage.Doc, cached map[sas.PageID][]byte) error {
	tx := db.txm.BeginReadOnly()
	defer tx.Rollback()
	r := tx.ScanReader(scanRingPages)
	defer r.Close()
	var outer error
	doc.Schema.Root.Walk(func(sn *schema.Node) {
		if outer != nil {
			return
		}
		var nodes uint64
		var blocks uint32
		for b := sn.FirstBlock; !b.IsNil(); {
			var count int
			var next sas.XPtr
			if p, ok := cached[sas.PageIDOf(b)]; ok {
				count, next = storage.BlockCountNext(p)
			} else if err := r.ReadPage(b, func(page []byte) error {
				count, next = storage.BlockCountNext(page)
				return nil
			}); err != nil {
				outer = err
				return
			}
			nodes += uint64(count)
			blocks++
			b = next
		}
		sn.NodeCount = nodes
		sn.BlockCount = blocks
	})
	return outer
}
