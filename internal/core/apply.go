package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"sedna/internal/schema"
	"sedna/internal/storage"
	"sedna/internal/wal"
)

// Replication apply: a replica receives the primary's log records over the
// wire and re-executes each committed primary transaction as a local update
// transaction. Physical page writes flow through the versioned buffer
// manager (so concurrent snapshot readers on the replica keep their
// consistent view) and are re-logged into the replica's own write-ahead log
// (so the replica is crash-durable on its own); logical catalog records
// rebuild the in-memory metadata exactly as recovery would. Every applied
// transaction also logs a RecReplApplied progress record, making "how far
// have I applied" exactly as durable as the data itself.

// ErrReplicaReadOnly reports an update attempted on a replica that has not
// been promoted.
var ErrReplicaReadOnly = errors.New("core: replica is read-only (PROMOTE to accept writes)")

// ErrNotReplica reports a replication-only operation on a regular database.
var ErrNotReplica = errors.New("core: database is not a replica")

// Replica reports whether the database is in replica (read-only apply) mode.
func (db *Database) Replica() bool { return db.replica.Load() }

// ReplProgress returns the replication progress watermarks: restart is the
// primary-log position streaming must resume from, commit the position just
// past the last applied commit record. Both are zero on a database that
// never applied replicated transactions.
func (db *Database) ReplProgress() (restart, commit uint64) {
	return db.replRestart.Load(), db.replCommit.Load()
}

// SetReplProgress durably forces the replication watermarks: a standalone
// progress record is appended to the replica's log and flushed before the
// in-memory state advances. The replica calls it once after seeding, before
// the first applied transaction, so a crash between seed and first apply
// still resumes from the seed point instead of the beginning of time.
func (db *Database) SetReplProgress(restart, commit uint64) error {
	if _, err := db.log.Append(&wal.Record{Type: wal.RecReplApplied, RestartLSN: restart, CommitLSN: commit}); err != nil {
		return err
	}
	if err := db.log.Flush(); err != nil {
		return err
	}
	db.noteReplProgress(restart, commit)
	return nil
}

// noteReplProgress advances the in-memory watermarks (never backwards).
func (db *Database) noteReplProgress(restart, commit uint64) {
	for {
		cur := db.replRestart.Load()
		if restart <= cur || db.replRestart.CompareAndSwap(cur, restart) {
			break
		}
	}
	for {
		cur := db.replCommit.Load()
		if commit <= cur || db.replCommit.CompareAndSwap(cur, commit) {
			break
		}
	}
}

// WAL exposes the write-ahead log; the replication primary tails it with a
// wal.Reader and subscribes to durable-LSN advances.
func (db *Database) WAL() *wal.Log { return db.log }

// beginApply starts the update transaction a replicated primary transaction
// is applied under. It bypasses the replica read-only gate but takes the
// quiesce latch like any updater, so checkpoints and backups on the replica
// still see a quiet system.
func (db *Database) beginApply() (*Tx, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	db.mu.Unlock()
	db.quiesce.RLock()
	return &Tx{Tx: db.txm.Begin(), db: db}, nil
}

// ApplyReplicated applies the body records of one committed primary
// transaction (everything between its RecBegin and RecCommit, exclusive) as
// a local transaction, then durably records the new replication watermarks.
// Records must be passed in log order. The commit forces the replica's own
// log, so a successfully applied transaction survives a replica crash.
func (db *Database) ApplyReplicated(recs []*wal.Record, restart, commit uint64) error {
	start := time.Now()
	t, err := db.beginApply()
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := applyRecord(t, r); err != nil {
			t.Rollback()
			return fmt.Errorf("core: apply replicated record %d: %w", r.Type, err)
		}
	}
	if err := t.LogRecord(&wal.Record{Type: wal.RecReplApplied, RestartLSN: restart, CommitLSN: commit}); err != nil {
		t.Rollback()
		return err
	}
	if err := t.Commit(); err != nil {
		return err
	}
	db.noteReplProgress(restart, commit)
	db.met.Counter("repl.txns_applied").Inc()
	db.met.Histogram("repl.apply_ns").Observe(time.Since(start))
	return nil
}

// applyRecord re-executes one primary log record under the apply
// transaction. The physical cases write through the transaction (re-logged,
// versioned); the logical cases mirror recovery's redo against the live
// catalog, additionally re-logging the record so the replica's own recovery
// rebuilds the same metadata.
func applyRecord(t *Tx, r *wal.Record) error {
	db := t.db
	switch r.Type {
	case wal.RecPageWrite:
		return t.WriteAt(r.Page.Ptr().Add(r.Off), r.Data)
	case wal.RecAllocPage:
		return t.AllocPageAt(r.Page)
	case wal.RecFreePage:
		return t.FreePage(r.Page)
	case wal.RecCreateDoc:
		if _, exists := db.catalog.Doc(r.Name); exists {
			return fmt.Errorf("document %q already exists", r.Name)
		}
		if err := t.LogRecord(&wal.Record{Type: wal.RecCreateDoc, DocID: r.DocID, Name: r.Name}); err != nil {
			return err
		}
		doc := &storage.Doc{ID: r.DocID, Name: r.Name, Schema: schema.New()}
		db.catalog.Put(doc)
		t.TouchDoc(doc)
	case wal.RecDropDoc:
		if err := t.LogRecord(&wal.Record{Type: wal.RecDropDoc, DocID: r.DocID, Name: r.Name}); err != nil {
			return err
		}
		db.catalog.Delete(r.Name)
		t.pendingDrops = append(t.pendingDrops, r.Name)
	case wal.RecAddSchemaNode:
		doc, ok := db.catalog.DocByID(r.DocID)
		if !ok {
			return fmt.Errorf("schema node for unknown doc %d", r.DocID)
		}
		parent := doc.Schema.ByID(r.ParentID)
		if parent == nil {
			return fmt.Errorf("schema node %d: unknown parent %d", r.NodeID, r.ParentID)
		}
		if _, err := doc.Schema.AddWithID(parent, r.NodeID, schema.NodeKind(r.Kind), r.Name); err != nil {
			return err
		}
		if err := t.LogRecord(&wal.Record{
			Type: wal.RecAddSchemaNode, DocID: r.DocID,
			ParentID: r.ParentID, NodeID: r.NodeID, Kind: r.Kind, Name: r.Name,
		}); err != nil {
			return err
		}
		t.TouchDoc(doc)
	case wal.RecSchemaBlocks:
		doc, ok := db.catalog.DocByID(r.DocID)
		if !ok {
			return fmt.Errorf("schema blocks for unknown doc %d", r.DocID)
		}
		sn := doc.Schema.ByID(r.NodeID)
		if sn == nil {
			return fmt.Errorf("schema blocks: unknown node %d", r.NodeID)
		}
		sn.FirstBlock, sn.LastBlock = r.Ptrs[0], r.Ptrs[1]
		if err := t.LogRecord(&wal.Record{Type: wal.RecSchemaBlocks, DocID: r.DocID, NodeID: r.NodeID, Ptrs: r.Ptrs}); err != nil {
			return err
		}
		t.TouchDoc(doc)
	case wal.RecDocMeta:
		doc, ok := db.catalog.DocByID(r.DocID)
		if !ok {
			return fmt.Errorf("doc meta for unknown doc %d", r.DocID)
		}
		doc.RootHandle = r.Ptrs[0]
		doc.IndirFirst, doc.IndirLast = r.Ptrs[1], r.Ptrs[2]
		doc.TextFirst, doc.TextLast = r.Ptrs[3], r.Ptrs[4]
		if err := t.LogRecord(&wal.Record{Type: wal.RecDocMeta, DocID: r.DocID, Ptrs: r.Ptrs}); err != nil {
			return err
		}
		t.TouchDoc(doc)
	case wal.RecCreateIndex:
		doc, ok := db.catalog.DocByID(r.DocID)
		if !ok {
			return fmt.Errorf("index for unknown doc %d", r.DocID)
		}
		if err := t.LogRecord(&wal.Record{Type: wal.RecCreateIndex, DocID: r.DocID, Name: r.Name, Path: r.Path}); err != nil {
			return err
		}
		parts := strings.SplitN(r.Path, "\x1f", 3)
		ix := &IndexMeta{Name: r.Name, DocName: doc.Name}
		if len(parts) == 3 {
			ix.OnPath, ix.ByPath, ix.KeyType = parts[0], parts[1], parts[2]
		}
		db.catalog.PutIndex(ix)
		t.TouchDoc(doc)
	case wal.RecDropIndex:
		if err := t.LogRecord(&wal.Record{Type: wal.RecDropIndex, Name: r.Name}); err != nil {
			return err
		}
		if ix, ok := db.catalog.Index(r.Name); ok {
			db.catalog.DeleteIndex(r.Name)
			t.touchIndexDoc(ix)
		}
	case wal.RecIndexMeta:
		if err := t.LogRecord(&wal.Record{Type: wal.RecIndexMeta, Name: r.Name, Ptrs: r.Ptrs}); err != nil {
			return err
		}
		if ix, ok := db.catalog.Index(r.Name); ok {
			ix.Root = r.Ptrs[0]
			t.touchIndexDoc(ix)
		}
	case wal.RecBulkLoad:
		// The load's data arrived as whole-page images (re-applied above as
		// ordinary page writes); re-log the marker so cascaded consumers of
		// this replica's log still see the load as a load, and account it.
		if err := t.LogRecord(&wal.Record{Type: wal.RecBulkLoad, DocID: r.DocID, Name: r.Name,
			Nodes: r.Nodes, Blocks: r.Blocks, Bytes: r.Bytes}); err != nil {
			return err
		}
		db.met.Counter("load.replicated_bulk_loads").Inc()
		db.met.Counter("load.replicated_bulk_nodes").Add(r.Nodes)
	case wal.RecBegin, wal.RecCommit, wal.RecAbort, wal.RecCheckpoint, wal.RecReplApplied:
		// Transaction framing is handled by the caller; checkpoints and
		// progress records are node-local and never applied across nodes.
	default:
		return fmt.Errorf("unknown record type %d", r.Type)
	}
	return nil
}

// touchIndexDoc marks the document an index belongs to as changed, so the
// commit publishes the index's new root (or its absence) to snapshot readers.
func (t *Tx) touchIndexDoc(ix *IndexMeta) {
	if doc, ok := t.db.catalog.Doc(ix.DocName); ok {
		t.TouchDoc(doc)
	}
}

// Promote flips a replica into a writable primary: per-schema-node counters
// (kept approximate during physical apply) are recomputed from block
// headers, the read-only gate is lifted, and a checkpoint fixates the
// applied state so the promoted node restarts as an ordinary primary. The
// replication client must be stopped first; subsequent Begin/commit cycles
// behave exactly as on a never-replicated database.
func (db *Database) Promote() error {
	if !db.replica.Load() {
		return ErrNotReplica
	}
	for _, name := range db.catalog.DocNames() {
		doc, ok := db.catalog.Doc(name)
		if !ok {
			continue
		}
		if err := db.recountDoc(doc); err != nil {
			return fmt.Errorf("core: promote recount %q: %w", name, err)
		}
		// Republish so new snapshot readers see the corrected counters.
		db.pubMu.Lock()
		v := db.committedVersion(doc)
		v.ts = db.txm.CommitTS()
		db.docVers.publish(name, v, db.txm.MinActiveSnapshot())
		db.pubMu.Unlock()
	}
	db.replica.Store(false)
	return db.Checkpoint()
}
