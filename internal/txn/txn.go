// Package txn implements Sedna's transaction manager (§6): ACID update
// transactions under document-granularity strict 2PL, non-blocking read-only
// transactions over page-level snapshots (§6.1, §6.3), write-ahead logging
// of every change, and commit-time garbage such as deferred page frees.
//
// An update transaction satisfies storage.Writer: page writes flow through
// the buffer manager's copy-on-write versioning and are appended to the WAL
// as physical redo records; in-memory metadata changes are logged logically
// and undone via the Defer stack on rollback. A read-only transaction
// satisfies storage.Reader over its snapshot and never takes locks.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sedna/internal/buffer"
	"sedna/internal/lock"
	"sedna/internal/metrics"
	"sedna/internal/pagefile"
	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
	"sedna/internal/trace"
	"sedna/internal/wal"
)

// ErrReadOnly reports a write attempted through a read-only transaction.
var ErrReadOnly = errors.New("txn: write in read-only transaction")

// ErrDone reports use of a finished transaction.
var ErrDone = errors.New("txn: transaction already finished")

// Manager coordinates transactions, snapshots and commit timestamps.
type Manager struct {
	// mu guards nextTxn and commitTS. A commit holds it while it stamps its
	// pages and advances commitTS, so a snapshot begins before all of a
	// commit or after all of it.
	mu sync.Mutex

	// commitMu is held by one commit from taking its timestamp to stamping
	// its pages: timestamps become visible in order, and a snapshot at ts
	// sees every commit up to ts. Readers never take it — the commit-forcing
	// fsync sits under it, not under mu.
	commitMu sync.Mutex

	buf   *buffer.Manager
	log   *wal.Log
	pf    *pagefile.File
	locks *lock.Manager

	nextTxn uint64
	// commitTS is the timestamp of the latest commit whose pages are
	// stamped: what a new snapshot reads at.
	commitTS uint64

	// snapshots maps snapshot timestamp → reference count of read-only
	// transactions using it. The newest snapshot is advanced lazily: each
	// BeginReadOnly takes a snapshot of the latest committed state if
	// commits happened since the last one (§6.3 "snapshots are periodically
	// advanced"). snapMu guards it; the buffer manager asks for the list
	// from inside a commit's stamping (under mu) and under its stripe locks.
	snapMu    sync.Mutex
	snapshots map[uint64]int

	// LockTimeout bounds lock waits; 0 disables. Deadlocks are detected
	// eagerly regardless.
	LockTimeout time.Duration

	// defaultPrefetchDepth seeds every new transaction's chain-readahead
	// depth, so block-list scans that never pass through the query executor
	// (the resident build, index builds) still get readahead.
	defaultPrefetchDepth atomic.Int64

	met txnMetrics
}

// txnMetrics binds the transaction-manager counters in a metrics registry.
type txnMetrics struct {
	begins       *metrics.Counter
	beginsRO     *metrics.Counter
	commits      *metrics.Counter
	aborts       *metrics.Counter
	snapAdvances *metrics.Counter
	activeSnaps  *metrics.Gauge
}

func bindTxnMetrics(reg *metrics.Registry) txnMetrics {
	return txnMetrics{
		begins:       reg.Counter("txn.begins"),
		beginsRO:     reg.Counter("txn.begins_readonly"),
		commits:      reg.Counter("txn.commits"),
		aborts:       reg.Counter("txn.aborts"),
		snapAdvances: reg.Counter("txn.snapshot_advances"),
		activeSnaps:  reg.Gauge("txn.active_snapshots"),
	}
}

// NewManager creates a transaction manager and wires the buffer manager's
// WAL-rule and snapshot hooks, reporting into a private metrics registry.
func NewManager(buf *buffer.Manager, log *wal.Log, pf *pagefile.File, locks *lock.Manager) *Manager {
	return NewManagerWithMetrics(buf, log, pf, locks, nil)
}

// NewManagerWithMetrics creates a transaction manager that reports its
// counters into reg under the "txn." family (nil = a fresh private registry).
func NewManagerWithMetrics(buf *buffer.Manager, log *wal.Log, pf *pagefile.File, locks *lock.Manager, reg *metrics.Registry) *Manager {
	m := &Manager{
		buf:       buf,
		log:       log,
		pf:        pf,
		locks:     locks,
		snapshots: make(map[uint64]int),
		commitTS:  pf.Master().CommitTS,
		met:       bindTxnMetrics(metrics.OrNew(reg)),
	}
	buf.SetWALFlush(log.Flush)
	buf.SetActiveSnapshots(m.activeSnapshots)
	return m
}

// SetCommitTS forces the commit-timestamp counter; recovery uses it after
// replaying the log.
func (m *Manager) SetCommitTS(ts uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ts > m.commitTS {
		m.commitTS = ts
	}
}

// CommitTS returns the timestamp of the latest committed transaction.
func (m *Manager) CommitTS() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commitTS
}

func (m *Manager) activeSnapshots() []uint64 {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	out := make([]uint64, 0, len(m.snapshots))
	for ts := range m.snapshots {
		out = append(out, ts)
	}
	return out
}

// SnapshotCount returns the number of distinct active snapshots.
func (m *Manager) SnapshotCount() int {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	return len(m.snapshots)
}

// MinActiveSnapshot returns the oldest active snapshot timestamp, or the
// current commit timestamp when no snapshot is active; state older than the
// result can be garbage-collected.
func (m *Manager) MinActiveSnapshot() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	min := m.commitTS
	for ts := range m.snapshots {
		if ts < min {
			min = ts
		}
	}
	return min
}

// Locks exposes the lock manager (the engine locks documents by name).
func (m *Manager) Locks() *lock.Manager { return m.locks }

// Tx is a transaction. An updater implements storage.Writer; a read-only
// transaction implements storage.Reader only.
type Tx struct {
	m        *Manager
	id       uint64
	readonly bool
	done     bool

	// snapTS is the snapshot a read-only transaction reads at.
	snapTS uint64

	// Updater state.
	undo   []func()
	allocs []sas.PageID
	frees  []sas.PageID

	// touched records documents whose in-memory metadata (schema, block
	// lists, chain heads) this transaction changed; the engine publishes
	// committed metadata versions for snapshot readers from it.
	touched map[*storage.Doc]bool

	cts uint64 // commit timestamp, set by Commit

	// pagesTouched counts page-level accesses (reads and writes) made
	// through this transaction; the query executor reads it to attribute
	// page traffic to statements. Atomic so profile readers never race a
	// transaction running on another goroutine.
	pagesTouched atomic.Uint64

	// span is the innermost open trace span of the statement currently
	// executing on this transaction (nil when not tracing); buffer faults
	// and commit-time fsyncs attach to it. The field itself is only
	// re-pointed by the statement's coordinating goroutine (worker forks
	// never call SetTraceSpan), and Span's methods are goroutine-safe, so
	// workers may attribute events through it concurrently.
	span *trace.Span

	// prefetchDepth is the chain-readahead depth for block-list scans on
	// this transaction (0 = off). Atomic because the executor sets it per
	// statement while parallel scan workers may be emitting hints.
	prefetchDepth atomic.Int64

	// prefetchHints counts readahead hints emitted through this
	// transaction, for PROFILE/trace attribution.
	prefetchHints atomic.Uint64
}

// SetTraceSpan installs (or, with nil, clears) the trace span storage-layer
// events of this transaction attach to.
func (tx *Tx) SetTraceSpan(s *trace.Span) { tx.span = s }

// TraceSpan returns the transaction's current trace span (nil when not
// tracing).
func (tx *Tx) TraceSpan() *trace.Span { return tx.span }

// PagesTouched returns the number of page accesses (reads + writes) the
// transaction has performed.
func (tx *Tx) PagesTouched() uint64 { return tx.pagesTouched.Load() }

func (tx *Tx) touch(doc *storage.Doc) {
	if tx.touched == nil {
		tx.touched = make(map[*storage.Doc]bool)
	}
	tx.touched[doc] = true
}

// TouchedDocs returns the documents whose metadata the transaction changed.
func (tx *Tx) TouchedDocs() []*storage.Doc {
	out := make([]*storage.Doc, 0, len(tx.touched))
	for d := range tx.touched {
		out = append(out, d)
	}
	return out
}

// CommitTS returns the commit timestamp (valid after Commit).
func (tx *Tx) CommitTS() uint64 { return tx.cts }

// Begin starts an update transaction.
func (m *Manager) Begin() *Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextTxn++
	m.met.begins.Inc()
	tx := &Tx{m: m, id: m.nextTxn}
	tx.prefetchDepth.Store(m.defaultPrefetchDepth.Load())
	if _, err := m.log.Append(&wal.Record{Type: wal.RecBegin, Txn: tx.id}); err != nil {
		// Log append failures surface at the first write; Begin stays
		// infallible for API simplicity.
		_ = err
	}
	return tx
}

// BeginReadOnly starts a read-only transaction (a "query" in the paper's
// terms): it reads the latest snapshot, never blocks updaters and is never
// blocked (§6.3). A fresh snapshot is taken if commits happened since the
// previous one — "advancing" is just recording the current timestamp.
func (m *Manager) BeginReadOnly() *Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextTxn++
	m.met.beginsRO.Inc()
	ts := m.commitTS
	m.snapMu.Lock()
	if m.snapshots[ts] == 0 {
		// First reader at this timestamp: the system's snapshot advanced.
		m.met.snapAdvances.Inc()
	}
	m.snapshots[ts]++
	m.met.activeSnaps.Set(int64(len(m.snapshots)))
	m.snapMu.Unlock()
	tx := &Tx{m: m, id: m.nextTxn, readonly: true, snapTS: ts}
	tx.prefetchDepth.Store(m.defaultPrefetchDepth.Load())
	return tx
}

// SetDefaultPrefetchDepth sets the chain-readahead depth new transactions
// start with; statements may still override it per transaction. 0 disables
// readahead by default.
func (m *Manager) SetDefaultPrefetchDepth(d int) {
	m.defaultPrefetchDepth.Store(int64(d))
}

// ID returns the transaction identifier.
func (tx *Tx) ID() uint64 { return tx.id }

// TxnID implements storage.Writer.
func (tx *Tx) TxnID() uint64 { return tx.id }

// ReadOnly reports whether this is a snapshot transaction.
func (tx *Tx) ReadOnly() bool { return tx.readonly }

// SnapshotTS returns the snapshot timestamp of a read-only transaction.
func (tx *Tx) SnapshotTS() uint64 { return tx.snapTS }

// Lock acquires a document lock (S2PL; released at commit/rollback).
// Read-only transactions never lock.
func (tx *Tx) Lock(res string, mode lock.Mode) error {
	if tx.readonly {
		return nil
	}
	return tx.m.locks.Lock(tx.id, res, mode, tx.m.LockTimeout)
}

// ReadPage implements storage.Reader for both transaction kinds.
func (tx *Tx) ReadPage(p sas.XPtr, fn func(page []byte) error) error {
	page, pin, err := tx.ViewPage(p)
	if err != nil {
		return err
	}
	defer tx.ReleasePage(pin)
	return fn(page)
}

// ViewPage implements storage.Reader for both transaction kinds: the page
// bytes and the pin that keeps them in the pool, to be handed to ReleasePage.
// A snapshot view served from a version chain needs no pin.
func (tx *Tx) ViewPage(p sas.XPtr) ([]byte, any, error) {
	page, f, _, err := tx.view(p)
	if f == nil {
		return page, nil, err
	}
	return page, f, nil
}

// view resolves p through the buffer pool: a snapshot view for a read-only
// transaction, a layer-mapped dereference of the live page for an updater.
// loaded reports that the page was read from disk for this view.
func (tx *Tx) view(p sas.XPtr) (page []byte, f *buffer.Frame, loaded bool, err error) {
	if tx.done {
		return nil, nil, false, ErrDone
	}
	if p.IsNil() {
		return nil, nil, false, errors.New("txn: read of nil pointer")
	}
	tx.pagesTouched.Add(1)
	if tx.readonly {
		page, f, loaded, err = tx.m.buf.ViewSnapshot(sas.PageIDOf(p), tx.snapTS)
	} else {
		page, f, loaded, err = tx.m.buf.DerefTrack(p)
	}
	if loaded {
		tx.span.AddInt("faults", 1)
	}
	return page, f, loaded, err
}

// ReleasePage implements storage.Reader: it unpins a viewed frame.
func (tx *Tx) ReleasePage(pin any) {
	if f, ok := pin.(*buffer.Frame); ok {
		tx.m.buf.Unpin(f)
	}
}

// SetPrefetchDepth sets the chain-readahead depth for scans on this
// transaction; 0 disables hint emission entirely (byte-identical to the
// pre-readahead read path).
func (tx *Tx) SetPrefetchDepth(d int) { tx.prefetchDepth.Store(int64(d)) }

// PrefetchDepth returns the transaction's chain-readahead depth.
func (tx *Tx) PrefetchDepth() int { return int(tx.prefetchDepth.Load()) }

// PrefetchHints returns the number of readahead hints emitted so far.
func (tx *Tx) PrefetchHints() uint64 { return tx.prefetchHints.Load() }

// PrefetchFrom implements storage.Prefetcher: the block-list iterators call
// it when a scan crosses a block boundary, and the buffer manager's workers
// follow the nextBlock chain up to the configured depth. Fire-and-forget —
// never blocks, never errors. Prefetched frames serve updaters through
// Deref and snapshot readers through ViewSnapshot alike.
func (tx *Tx) PrefetchFrom(block sas.XPtr) {
	d := int(tx.prefetchDepth.Load())
	if d <= 0 || tx.done {
		return
	}
	tx.prefetchHints.Add(1)
	tx.span.AddInt("prefetch_hints", 1)
	tx.m.buf.PrefetchChain(sas.PageIDOf(block), d, storage.PageChainNext)
}

// WriteAt implements storage.Writer: the bytes are applied to the page
// through the versioned buffer manager and logged as a physical redo
// record.
func (tx *Tx) WriteAt(p sas.XPtr, data []byte) error {
	if tx.done {
		return ErrDone
	}
	if tx.readonly {
		return ErrReadOnly
	}
	id := sas.PageIDOf(p)
	off := p.PageOffset()
	if int(off)+len(data) > sas.PageSize {
		return fmt.Errorf("txn: write of %d bytes at %v crosses page end", len(data), p)
	}
	if _, err := tx.m.log.Append(&wal.Record{
		Type: wal.RecPageWrite, Txn: tx.id, Page: id, Off: off, Data: data,
	}); err != nil {
		return err
	}
	f, err := tx.m.buf.PinWrite(id, tx.id)
	if err != nil {
		return err
	}
	copy(f.Data()[off:], data)
	tx.m.buf.Unpin(f)
	tx.pagesTouched.Add(1)
	return nil
}

// AllocPage implements storage.Writer.
func (tx *Tx) AllocPage() (sas.PageID, error) {
	if tx.readonly {
		return sas.PageID{}, ErrReadOnly
	}
	id := tx.m.pf.Alloc()
	if _, err := tx.m.log.Append(&wal.Record{Type: wal.RecAllocPage, Txn: tx.id, Page: id}); err != nil {
		return sas.PageID{}, err
	}
	tx.allocs = append(tx.allocs, id)
	return id, nil
}

// AllocPageAt mirrors a specific page allocation: the exact page id is
// claimed from the allocator (removed from the free list, or the
// next-allocation cursor advanced past it) and logged. Replication apply
// uses it so replicas materialize the primary's pages at identical ids —
// physical log shipping only works when the address spaces match.
func (tx *Tx) AllocPageAt(id sas.PageID) error {
	if tx.readonly {
		return ErrReadOnly
	}
	if _, err := tx.m.log.Append(&wal.Record{Type: wal.RecAllocPage, Txn: tx.id, Page: id}); err != nil {
		return err
	}
	tx.m.pf.RedoAlloc(id)
	tx.allocs = append(tx.allocs, id)
	return nil
}

// FreePage implements storage.Writer: the page returns to the allocator at
// commit (so an abort keeps it), and old snapshots keep reading its prior
// content through the version store even after reuse.
func (tx *Tx) FreePage(id sas.PageID) error {
	if tx.readonly {
		return ErrReadOnly
	}
	if _, err := tx.m.log.Append(&wal.Record{Type: wal.RecFreePage, Txn: tx.id, Page: id}); err != nil {
		return err
	}
	tx.frees = append(tx.frees, id)
	return nil
}

// NoteSchemaNode implements storage.Writer.
func (tx *Tx) NoteSchemaNode(doc *storage.Doc, parent, node *schema.Node) {
	tx.touch(doc)
	tx.m.log.Append(&wal.Record{
		Type: wal.RecAddSchemaNode, Txn: tx.id, DocID: doc.ID,
		ParentID: parent.ID, NodeID: node.ID, Kind: byte(node.Kind), Name: node.Name,
	})
}

// NoteSchemaBlocks implements storage.Writer.
func (tx *Tx) NoteSchemaBlocks(doc *storage.Doc, node *schema.Node) {
	tx.touch(doc)
	tx.m.log.Append(&wal.Record{
		Type: wal.RecSchemaBlocks, Txn: tx.id, DocID: doc.ID, NodeID: node.ID,
		Ptrs: [5]sas.XPtr{node.FirstBlock, node.LastBlock},
	})
}

// NoteDocMeta implements storage.Writer.
func (tx *Tx) NoteDocMeta(doc *storage.Doc) {
	tx.touch(doc)
	tx.m.log.Append(&wal.Record{
		Type: wal.RecDocMeta, Txn: tx.id, DocID: doc.ID,
		Ptrs: [5]sas.XPtr{doc.RootHandle, doc.IndirFirst, doc.IndirLast, doc.TextFirst, doc.TextLast},
	})
}

// TouchDoc implements storage.Writer.
func (tx *Tx) TouchDoc(doc *storage.Doc) { tx.touch(doc) }

// LogRecord appends an engine-level logical record (document/index DDL)
// under this transaction.
func (tx *Tx) LogRecord(r *wal.Record) error {
	if tx.readonly {
		return ErrReadOnly
	}
	r.Txn = tx.id
	_, err := tx.m.log.Append(r)
	return err
}

// Defer implements storage.Writer.
func (tx *Tx) Defer(undo func()) { tx.undo = append(tx.undo, undo) }

// Commit makes the transaction durable: the commit record is forced to the
// log, the transaction's page versions become the last committed ones, and
// deferred page frees are applied.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrDone
	}
	tx.done = true
	m := tx.m
	if tx.readonly {
		m.releaseSnapshot(tx.snapTS)
		return nil
	}
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	cts := m.CommitTS() + 1
	tx.cts = cts
	_, err := m.log.Append(&wal.Record{Type: wal.RecCommit, Txn: tx.id, CommitTS: cts})
	if err == nil {
		// The commit-forcing fsync is attributed to the statement's trace
		// when one is still open (the session finishes its trace after
		// commit).
		err = m.log.FlushSpan(tx.span)
	}
	// Stamping and the new timestamp are one step for BeginReadOnly: a
	// snapshot that read a page's pre-image never finds the page stamped at
	// or below its own timestamp later, and every snapshot below cts is in
	// the list CommitTxn purges against. A failed commit spends its
	// timestamp — a commit record carrying it may be in the log.
	m.mu.Lock()
	if err == nil {
		m.buf.CommitTxn(tx.id, cts)
	}
	m.commitTS = cts
	m.mu.Unlock()
	if err != nil {
		return err
	}
	for _, id := range tx.frees {
		m.pf.Free(id)
	}
	m.locks.ReleaseAll(tx.id)
	m.met.commits.Inc()
	return nil
}

// Rollback discards the transaction: page pre-images are restored, deferred
// in-memory undos run in reverse, and allocated pages return to the free
// list.
func (tx *Tx) Rollback() error {
	if tx.done {
		return nil
	}
	tx.done = true
	m := tx.m
	if tx.readonly {
		m.releaseSnapshot(tx.snapTS)
		return nil
	}
	if err := m.buf.RollbackTxn(tx.id); err != nil {
		return err
	}
	for i := len(tx.undo) - 1; i >= 0; i-- {
		tx.undo[i]()
	}
	for _, id := range tx.allocs {
		m.pf.Free(id)
	}
	m.log.Append(&wal.Record{Type: wal.RecAbort, Txn: tx.id})
	m.locks.ReleaseAll(tx.id)
	m.met.aborts.Inc()
	return nil
}

func (m *Manager) releaseSnapshot(ts uint64) {
	m.snapMu.Lock()
	m.snapshots[ts]--
	if m.snapshots[ts] <= 0 {
		delete(m.snapshots, ts)
	}
	m.met.activeSnaps.Set(int64(len(m.snapshots)))
	m.snapMu.Unlock()
	// Versions only this snapshot could read die with it; when no version is
	// alive — commit frees what no snapshot needs — this is one atomic load.
	m.buf.PurgeAllVersions()
}

// Checkpoint fixates the current committed state as the persistent snapshot
// (§6.4): flush the log, flush all committed pages, append and force a
// checkpoint record, publish the new master (with the catalog generation the
// engine just wrote), and reset the snapshot area to the new era. The engine
// must quiesce update transactions first.
func (m *Manager) Checkpoint(snap *pagefile.SnapArea, metaGen uint64) (uint64, error) {
	if err := m.log.Flush(); err != nil {
		return 0, err
	}
	if err := m.buf.FlushCommitted(); err != nil {
		return 0, err
	}
	lsn, err := m.log.Append(&wal.Record{Type: wal.RecCheckpoint})
	if err != nil {
		return 0, err
	}
	if err := m.log.Flush(); err != nil {
		return 0, err
	}
	master := pagefile.Master{
		NextAlloc:     m.pf.NextAlloc(),
		CheckpointLSN: lsn,
		CommitTS:      m.CommitTS(),
		MetaGen:       metaGen,
	}
	if err := m.pf.WriteMaster(master); err != nil {
		return 0, err
	}
	if err := snap.Reset(lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}
