package core

import (
	"errors"
	"fmt"
	"time"

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
// versioned); the metadata cases are recovery's redo against the live
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
		// A metadata record changes the catalog as recovery's redo does and
		// is logged again under this transaction, so the replica's own
		// recovery rebuilds the same metadata; the commit publishes the
		// document it touched to snapshot readers.
		if r.Type == wal.RecCreateDoc {
			if _, exists := db.catalog.Doc(r.Name); exists {
				return fmt.Errorf("document %q already exists", r.Name)
			}
		}
		doc, ok, err := db.catalog.redo(r)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("unknown record type %d", r.Type)
		}
		relog := *r
		if err := t.LogRecord(&relog); err != nil {
			return err
		}
		if r.Type == wal.RecDropDoc {
			t.pendingDrops = append(t.pendingDrops, r.Name)
		}
		if doc != nil {
			t.TouchDoc(doc)
		}
	}
	return nil
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
		if err := db.recountDoc(doc, nil); err != nil {
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
