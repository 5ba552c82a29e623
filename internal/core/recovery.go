package core

import (
	"fmt"
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
// Afterwards per-schema node counters are recomputed and a fresh checkpoint
// is taken, so a crash during recovery restarts it idempotently.
func (db *Database) recover() error {
	master := db.pf.Master()

	// Step 0: catalog snapshot of the checkpoint generation.
	if master.MetaGen > 0 {
		cat, freeList, err := loadMeta(db.dir, master.MetaGen)
		if err != nil {
			return err
		}
		db.catalog = cat
		db.pf.ResetAllocator(master.NextAlloc, freeList)
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

	// Step 2, pass 1: find committed transactions.
	committed := make(map[uint64]uint64) // txn -> commitTS
	maxCTS := master.CommitTS
	err := db.log.Scan(master.CheckpointLSN, func(_ uint64, r *wal.Record) error {
		if r.Type == wal.RecCommit {
			committed[r.Txn] = r.CommitTS
			if r.CommitTS > maxCTS {
				maxCTS = r.CommitTS
			}
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
	redo := &redoState{db: db, pages: make(map[sas.PageID][]byte)}
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

	// Recompute schema counters from block headers and publish the initial
	// committed metadata version of every document.
	for _, name := range db.catalog.DocNames() {
		doc, _ := db.catalog.Doc(name)
		if err := db.recountDoc(doc); err != nil {
			return err
		}
		db.docVers.publish(name, maxCTS, cloneDoc(doc), 0)
	}

	// Fresh checkpoint: bounds the next recovery and clears redo work.
	return db.checkpointLocked()
}

// redoState applies redo records against a private page cache, flushing to
// the data file at the end.
type redoState struct {
	db    *Database
	pages map[sas.PageID][]byte
}

func (rs *redoState) page(id sas.PageID) ([]byte, error) {
	if p, ok := rs.pages[id]; ok {
		return p, nil
	}
	p := make([]byte, sas.PageSize)
	if err := rs.db.pf.ReadPage(id, p); err != nil {
		return nil, err
	}
	rs.pages[id] = p
	return p, nil
}

func (rs *redoState) apply(r *wal.Record) error {
	db := rs.db
	switch r.Type {
	case wal.RecPageWrite:
		p, err := rs.page(r.Page)
		if err != nil {
			return err
		}
		if int(r.Off)+len(r.Data) > len(p) {
			return fmt.Errorf("core: redo write out of page bounds at %v+%d", r.Page, r.Off)
		}
		copy(p[r.Off:], r.Data)
	case wal.RecAllocPage:
		db.pf.RedoAlloc(r.Page)
	case wal.RecFreePage:
		db.pf.Free(r.Page)
	case wal.RecCreateDoc:
		doc := &storage.Doc{ID: r.DocID, Name: r.Name, Schema: schema.New()}
		db.catalog.Put(doc)
	case wal.RecDropDoc:
		db.catalog.Delete(r.Name)
	case wal.RecAddSchemaNode:
		doc, ok := db.catalog.DocByID(r.DocID)
		if !ok {
			return fmt.Errorf("core: redo schema node for unknown doc %d", r.DocID)
		}
		parent := doc.Schema.ByID(r.ParentID)
		if parent == nil {
			return fmt.Errorf("core: redo schema node %d: unknown parent %d", r.NodeID, r.ParentID)
		}
		if _, err := doc.Schema.AddWithID(parent, r.NodeID, schema.NodeKind(r.Kind), r.Name); err != nil {
			return err
		}
	case wal.RecSchemaBlocks:
		doc, ok := db.catalog.DocByID(r.DocID)
		if !ok {
			return fmt.Errorf("core: redo schema blocks for unknown doc %d", r.DocID)
		}
		sn := doc.Schema.ByID(r.NodeID)
		if sn == nil {
			return fmt.Errorf("core: redo schema blocks: unknown node %d", r.NodeID)
		}
		sn.FirstBlock, sn.LastBlock = r.Ptrs[0], r.Ptrs[1]
	case wal.RecDocMeta:
		doc, ok := db.catalog.DocByID(r.DocID)
		if !ok {
			return fmt.Errorf("core: redo doc meta for unknown doc %d", r.DocID)
		}
		doc.RootHandle = r.Ptrs[0]
		doc.IndirFirst, doc.IndirLast = r.Ptrs[1], r.Ptrs[2]
		doc.TextFirst, doc.TextLast = r.Ptrs[3], r.Ptrs[4]
	case wal.RecCreateIndex:
		doc, ok := db.catalog.DocByID(r.DocID)
		if !ok {
			return fmt.Errorf("core: redo index for unknown doc %d", r.DocID)
		}
		parts := strings.SplitN(r.Path, "\x1f", 3)
		ix := &IndexMeta{Name: r.Name, DocName: doc.Name}
		if len(parts) == 3 {
			ix.OnPath, ix.ByPath, ix.KeyType = parts[0], parts[1], parts[2]
		}
		db.catalog.PutIndex(ix)
	case wal.RecDropIndex:
		db.catalog.DeleteIndex(r.Name)
	case wal.RecIndexMeta:
		if ix, ok := db.catalog.Index(r.Name); ok {
			ix.Root = r.Ptrs[0]
		}
	case wal.RecBulkLoad:
		// The load's whole-page images were already replayed physically;
		// per-document counters are recomputed from block headers afterwards.
	case wal.RecBegin, wal.RecCommit, wal.RecAbort:
	}
	return nil
}

func (rs *redoState) flush() error {
	for id, p := range rs.pages {
		if err := rs.db.pf.WritePage(id, p); err != nil {
			return err
		}
	}
	if len(rs.pages) > 0 {
		return rs.db.pf.Sync()
	}
	return nil
}

// recountDoc recomputes NodeCount and BlockCount for every schema node of a
// document by scanning block headers.
func (db *Database) recountDoc(doc *storage.Doc) error {
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
			err := r.ReadPage(b, func(page []byte) error {
				count, next = storage.BlockCountNext(page)
				return nil
			})
			if err != nil {
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
