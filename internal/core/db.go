package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sedna/internal/buffer"
	"sedna/internal/lock"
	"sedna/internal/metrics"
	"sedna/internal/pagefile"
	"sedna/internal/resident"
	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
	"sedna/internal/trace"
	"sedna/internal/txn"
	"sedna/internal/wal"
)

// Options configures Open.
type Options struct {
	// BufferPages is the buffer-pool capacity in pages (default 2048 =
	// 32 MiB with 16 KiB pages).
	BufferPages int
	// NoSync disables fsync throughout; tests and benchmarks only.
	NoSync bool
	// LockTimeout bounds document-lock waits (0 = wait forever; deadlocks
	// are still detected eagerly).
	LockTimeout time.Duration
	// KeepWhitespace retains whitespace-only text nodes during LoadXML.
	KeepWhitespace bool
	// TraceEnabled records a span tree for every query into the tracer's
	// in-memory ring (also settable at runtime via DB.Tracer()).
	TraceEnabled bool
	// SlowQueryThreshold marks queries at or above this duration as slow,
	// retaining their full trace and appending them to the slow-query log
	// (0 = disabled).
	SlowQueryThreshold time.Duration
	// SlowLogPath overrides where slow queries are appended as JSONL
	// (default <dir>/slowlog.jsonl).
	SlowLogPath string
	// Metrics is the registry every layer of this database reports into;
	// nil creates a fresh registry per database. Sharing one registry across
	// databases (as sedna-bench does) accumulates counters across them.
	Metrics *metrics.Registry
	// QueryWorkers caps how many goroutines one statement may use for
	// intra-query parallel execution (path-step range scans, for-clause
	// fan-out). 0 means GOMAXPROCS; 1 disables parallel execution. Also
	// settable at runtime via Database.SetQueryWorkers.
	QueryWorkers int
	// PrefetchDepth is the default chain-readahead depth for block-list
	// scans: how many nextBlock links ahead of a scan the buffer manager
	// may load asynchronously. 0 (the default) disables readahead. Also
	// settable at runtime via Database.SetPrefetchDepth.
	PrefetchDepth int
	// Replica opens the database in replica mode: Begin refuses update
	// transactions (ErrReplicaReadOnly) and changes arrive only through
	// ApplyReplicated until Promote lifts the gate.
	Replica bool
	// Resident enables the compressed in-memory resident mode: read-only
	// statements over documents that fit the byte budget execute against a
	// cached structural array instead of the paged block chains. Updates
	// invalidate the cached copy on commit, so results stay byte-identical.
	// Also settable at runtime via Database.SetResident.
	Resident bool
	// ResidentBudget caps the total bytes of resident representations across
	// documents (LRU-evicted beyond it). 0 uses resident.DefaultBudget.
	ResidentBudget int64
	// BulkLoad selects the document-ingest path for LoadXML: the default
	// (BulkLoadAuto) streams freshly created documents through the direct
	// block-construction bulk loader; BulkLoadOff forces the node-at-a-time
	// insert path everywhere.
	BulkLoad BulkLoadMode
}

// Database is an open Sedna database: one directory holding the data file,
// the snapshot area, the write-ahead log and catalog snapshots.
type Database struct {
	dir  string
	opts Options

	pf     *pagefile.File
	snap   *pagefile.SnapArea
	log    *wal.Log
	buf    *buffer.Manager
	locks  *lock.Manager
	txm    *txn.Manager
	met    *metrics.Registry
	tracer *trace.Tracer

	catalog *Catalog

	// docVers publishes committed document-metadata versions for snapshot
	// readers.
	docVers *docVersionStore

	// queryWorkers is the intra-query parallelism cap (0 = GOMAXPROCS),
	// read by every new execution context and settable at runtime.
	queryWorkers atomic.Int64

	// prefetchDepth is the default chain-readahead depth (0 = off), read
	// at the start of every statement and settable at runtime.
	prefetchDepth atomic.Int64

	// residentOn gates the resident mode; resCache holds the per-document
	// resident representations (always allocated so metrics and runtime
	// toggling work even when the mode starts off).
	residentOn atomic.Bool
	resCache   *resident.Cache

	// quiesce is held shared by every statement-executing transaction and
	// exclusively by checkpoint/backup/close.
	quiesce sync.RWMutex

	// pubMu serializes commit+publish against snapshot acquisition, so a
	// new reader never sees a commit timestamp whose metadata versions are
	// not yet published.
	pubMu sync.Mutex

	// replica gates Begin while the node applies a primary's log;
	// replRestart/replCommit are the replication progress watermarks
	// (primary-log positions), recovered from RecReplApplied records.
	replica     atomic.Bool
	replRestart atomic.Uint64
	replCommit  atomic.Uint64

	closed bool
	mu     sync.Mutex
}

// ErrClosed reports use of a closed database.
var ErrClosed = errors.New("core: database is closed")

// Open opens (creating if needed) the database in dir and runs the two-step
// recovery procedure, leaving the database checkpointed and consistent.
func Open(dir string, opts Options) (*Database, error) {
	if opts.BufferPages <= 0 {
		opts.BufferPages = 2048
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: open: %w", err)
	}
	reg := metrics.OrNew(opts.Metrics)
	fileOpts := pagefile.Options{NoSync: opts.NoSync, Metrics: reg}
	pf, err := pagefile.Open(filepath.Join(dir, "data.sdb"), fileOpts)
	if err != nil {
		return nil, err
	}
	snap, err := pagefile.OpenSnapArea(filepath.Join(dir, "data.snap"), fileOpts)
	if err != nil {
		pf.Close()
		return nil, err
	}
	log, err := wal.Open(filepath.Join(dir, "data.wal"), wal.Options{NoSync: opts.NoSync, Metrics: reg})
	if err != nil {
		snap.Close()
		pf.Close()
		return nil, err
	}
	db := &Database{
		dir:     dir,
		opts:    opts,
		pf:      pf,
		snap:    snap,
		log:     log,
		buf:     buffer.NewWithMetrics(pf, snap, opts.BufferPages, reg),
		locks:   lock.NewWithMetrics(reg),
		met:     reg,
		docVers: newDocVersionStore(),
	}
	db.txm = txn.NewManagerWithMetrics(db.buf, log, pf, db.locks, reg)
	db.txm.LockTimeout = opts.LockTimeout
	db.replica.Store(opts.Replica)
	db.SetQueryWorkers(opts.QueryWorkers)
	db.SetPrefetchDepth(opts.PrefetchDepth)
	db.resCache = resident.NewCache(opts.ResidentBudget, reg)
	db.SetResident(opts.Resident)

	db.tracer = trace.New(reg)
	db.tracer.SetEnabled(opts.TraceEnabled)
	db.tracer.SetSlowThreshold(opts.SlowQueryThreshold)
	slowLog := opts.SlowLogPath
	if slowLog == "" {
		slowLog = filepath.Join(dir, "slowlog.jsonl")
	}
	db.tracer.SetSlowLogPath(slowLog)
	db.locks.SetTracer(db.tracer)

	if err := db.recover(); err != nil {
		db.closeFiles()
		return nil, err
	}
	return db, nil
}

func (db *Database) closeFiles() {
	db.buf.StopPrefetch()
	if db.tracer != nil {
		db.tracer.Close()
	}
	db.log.Close()
	db.snap.Close()
	db.pf.Close()
}

// closeFilesForCrash abandons the database without checkpointing, leaving
// files exactly as a crash would. Only tests and the crash-injection bench
// harness use it.
func (db *Database) closeFilesForCrash() {
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()
	db.closeFiles()
}

// CrashForTesting simulates a crash: the files are abandoned in place with
// no checkpoint or clean-shutdown mark, so the next Open must run full
// recovery. Exposed for the recovery experiments and crash-injection tests.
func (db *Database) CrashForTesting() {
	db.closeFilesForCrash()
}

// Dir returns the database directory.
func (db *Database) Dir() string { return db.dir }

// Catalog exposes the catalog.
func (db *Database) Catalog() *Catalog { return db.catalog }

// TxnManager exposes the transaction manager.
func (db *Database) TxnManager() *txn.Manager { return db.txm }

// BufferStats returns buffer-manager counters.
func (db *Database) BufferStats() buffer.Stats { return db.buf.Stats() }

// Metrics returns the observability registry every layer of this database
// reports into.
func (db *Database) Metrics() *metrics.Registry { return db.met }

// Tracer returns the per-query tracer. Query execution starts traces on it;
// the server and shell use it to flip tracing on, adjust the slow-query
// threshold and browse retained traces.
func (db *Database) Tracer() *trace.Tracer { return db.tracer }

// SetQueryWorkers sets the intra-query parallelism cap at runtime: how many
// goroutines one statement may use for parallel path scans and for-clause
// fan-out. n ≤ 0 restores the default (GOMAXPROCS); 1 disables parallel
// execution. Takes effect for statements started after the call.
func (db *Database) SetQueryWorkers(n int) {
	if n < 0 {
		n = 0
	}
	db.queryWorkers.Store(int64(n))
}

// QueryWorkers returns the effective intra-query worker budget (≥ 1).
func (db *Database) QueryWorkers() int {
	n := int(db.queryWorkers.Load())
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return n
}

// SetPrefetchDepth sets the default chain-readahead depth at runtime: how
// many pages ahead of a block-list scan the buffer manager's workers may
// load by following nextBlock chains. n ≤ 0 disables readahead
// (scans behave exactly as without the prefetcher). New transactions start
// at this depth; an execution context's explicit PrefetchDepth overrides it
// per statement.
func (db *Database) SetPrefetchDepth(n int) {
	if n < 0 {
		n = 0
	}
	db.prefetchDepth.Store(int64(n))
	db.txm.SetDefaultPrefetchDepth(n)
}

// PrefetchDepth returns the default chain-readahead depth (0 = off).
func (db *Database) PrefetchDepth() int { return int(db.prefetchDepth.Load()) }

// SetResident switches the resident mode at runtime. Turning it off flushes
// the cache; statements already holding a resident representation finish on
// it (the representations are immutable).
func (db *Database) SetResident(on bool) {
	db.residentOn.Store(on)
	if !on {
		db.resCache.Flush()
	}
}

// Resident reports whether the resident mode is on.
func (db *Database) Resident() bool { return db.residentOn.Load() }

// ResidentCache exposes the resident-representation cache (tools, tests and
// benchmarks).
func (db *Database) ResidentCache() *resident.Cache { return db.resCache }

// Buffer exposes the buffer manager (benchmarks and tools).
func (db *Database) Buffer() *buffer.Manager { return db.buf }

// LogSize returns the current WAL size in bytes.
func (db *Database) LogSize() uint64 { return db.log.Size() }

// Checkpoint fixates the current committed state as the persistent
// snapshot: it quiesces update activity, writes the catalog snapshot
// (generation master.MetaGen+1), flushes all committed pages, publishes the
// new master page and resets the snapshot area (§6.4).
func (db *Database) Checkpoint() error {
	db.quiesce.Lock()
	defer db.quiesce.Unlock()
	return db.checkpointLocked()
}

func (db *Database) checkpointLocked() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	db.mu.Unlock()
	gen := db.pf.Master().MetaGen + 1
	if err := saveMeta(db.dir, gen, db.catalog, db.pf.FreeList()); err != nil {
		return err
	}
	if _, err := db.txm.Checkpoint(db.snap, gen); err != nil {
		return err
	}
	removeOldMeta(db.dir, gen)
	// Recovery scans the log only from this checkpoint, so any replication
	// progress recorded inside earlier apply transactions just became
	// invisible to it: re-assert the watermarks with a standalone record
	// above the checkpoint.
	if restart, commit := db.ReplProgress(); restart > 0 || commit > 0 {
		if _, err := db.log.Append(&wal.Record{Type: wal.RecReplApplied, RestartLSN: restart, CommitLSN: commit}); err != nil {
			return err
		}
		if err := db.log.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Close checkpoints and closes the database.
func (db *Database) Close() error {
	db.quiesce.Lock()
	defer db.quiesce.Unlock()
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.mu.Unlock()
	// Stop the readahead workers before checkpointing: no prefetch I/O may
	// overlap the shutdown writes or outlive the files.
	db.buf.StopPrefetch()
	if err := db.checkpointLocked(); err != nil {
		db.closeFiles()
		return err
	}
	m := db.pf.Master()
	m.CleanShutdown = true
	if err := db.pf.WriteMaster(m); err != nil {
		db.closeFiles()
		return err
	}
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()
	db.tracer.Close()
	if err := db.log.Close(); err != nil {
		return err
	}
	if err := db.snap.Close(); err != nil {
		return err
	}
	return db.pf.Close()
}

// Tx is an engine-level transaction: it wraps a storage transaction and
// holds the shared quiesce latch for its lifetime.
type Tx struct {
	*txn.Tx
	db   *Database
	done bool

	pendingDrops []string // documents dropped by this transaction

	// applyBarrier marks a replicated-apply transaction: its physical page
	// writes change content without touching document metadata, so commit
	// must raise the resident cache's barrier instead of relying on
	// per-document invalidation.
	applyBarrier bool
}

// Begin starts an update transaction. On a replica it fails with
// ErrReplicaReadOnly: changes arrive only via ApplyReplicated until Promote.
func (db *Database) Begin() (*Tx, error) {
	if db.replica.Load() {
		return nil, ErrReplicaReadOnly
	}
	return db.beginApply()
}

// BeginReadOnly starts a non-blocking snapshot transaction (§6.3).
func (db *Database) BeginReadOnly() (*Tx, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	db.mu.Unlock()
	db.quiesce.RLock()
	db.pubMu.Lock()
	inner := db.txm.BeginReadOnly()
	db.pubMu.Unlock()
	return &Tx{Tx: inner, db: db}, nil
}

// Commit commits and releases the quiesce latch. Committed metadata
// versions of every modified document are published for snapshot readers.
func (t *Tx) Commit() error {
	if t.done {
		return txn.ErrDone
	}
	t.done = true
	touched := t.Tx.TouchedDocs()
	var err error
	if t.ReadOnly() {
		err = t.Tx.Commit()
	} else {
		t.db.pubMu.Lock()
		// Clone metadata before the inner commit: committing releases the
		// document locks, after which another writer may mutate the live
		// schema while we are still flattening it.
		clones := make([]*storage.Doc, len(touched))
		for i, doc := range touched {
			clones[i] = cloneDoc(doc)
		}
		err = t.Tx.Commit()
		if err == nil {
			cts := t.Tx.CommitTS()
			minSnap := t.db.txm.MinActiveSnapshot()
			for i, doc := range touched {
				t.db.docVers.publish(doc.Name, cts, clones[i], minSnap)
				t.db.resCache.Invalidate(doc.Name)
				// Feed the optimizer's staleness clock: one committed update
				// transaction per touched document.
				t.db.catalog.NoteUpdate(doc.Name)
			}
			for _, name := range t.pendingDrops {
				t.db.docVers.publish(name, cts, nil, minSnap)
				t.db.resCache.Invalidate(name)
			}
			if t.applyBarrier {
				// Still under pubMu: no reader can begin between the apply
				// commit and the cache flush, so none can cache stale content
				// under a pre-apply snapshot.
				t.db.resCache.Barrier(cts)
			}
		}
		t.db.pubMu.Unlock()
	}
	t.db.quiesce.RUnlock()
	return err
}

// Rollback aborts and releases the quiesce latch.
func (t *Tx) Rollback() error {
	if t.done {
		return nil
	}
	t.done = true
	err := t.Tx.Rollback()
	t.db.quiesce.RUnlock()
	return err
}

// DB returns the owning database.
func (t *Tx) DB() *Database { return t.db }

// LockDocument takes a document-granularity lock (§6.2). Read-only
// transactions skip locking entirely.
func (t *Tx) LockDocument(name string, mode lock.Mode) error {
	return t.Lock("doc:"+name, mode)
}

// CreateDocument creates an empty document under the transaction.
func (t *Tx) CreateDocument(name string) (*storage.Doc, error) {
	if t.ReadOnly() {
		return nil, txn.ErrReadOnly
	}
	if _, exists := t.db.catalog.Doc(name); exists {
		return nil, fmt.Errorf("core: document %q already exists", name)
	}
	if err := t.LockDocument(name, lock.Exclusive); err != nil {
		return nil, err
	}
	id := t.db.catalog.AllocDocID()
	if err := t.LogRecord(&wal.Record{Type: wal.RecCreateDoc, DocID: id, Name: name}); err != nil {
		return nil, err
	}
	doc, err := storage.CreateDoc(t.Tx, id, name)
	if err != nil {
		return nil, err
	}
	t.db.catalog.Put(doc)
	t.Defer(func() { t.db.catalog.Delete(name) })
	return doc, nil
}

// DropDocument removes a document and all its storage.
func (t *Tx) DropDocument(name string) error {
	if t.ReadOnly() {
		return txn.ErrReadOnly
	}
	doc, ok := t.db.catalog.Doc(name)
	if !ok {
		return fmt.Errorf("core: document %q does not exist", name)
	}
	if err := t.LockDocument(name, lock.Exclusive); err != nil {
		return err
	}
	if err := t.LogRecord(&wal.Record{Type: wal.RecDropDoc, DocID: doc.ID, Name: name}); err != nil {
		return err
	}
	// Free every page of the document: node blocks per schema node, text
	// blocks, indirection blocks.
	var chains []sas.XPtr
	doc.Schema.Root.Walk(func(sn *schema.Node) {
		chains = append(chains, sn.FirstBlock)
	})
	chains = append(chains, doc.TextFirst, doc.IndirFirst)
	for _, chain := range chains {
		for b := chain; !b.IsNil(); {
			next, err := storage.ChainNext(t.Tx, b)
			if err != nil {
				return err
			}
			if err := t.FreePage(sas.PageIDOf(b)); err != nil {
				return err
			}
			b = next
		}
	}
	t.db.catalog.Delete(name)
	t.Defer(func() { t.db.catalog.Put(doc) })
	t.pendingDrops = append(t.pendingDrops, name)
	return nil
}

// residentHotAccesses is how many statement accesses a document needs before
// the residency advisor promotes it without the global resident switch.
const residentHotAccesses = 32

// scanRingPages is how many of the pages it loads a whole-document pass (the
// resident build, the open-time recount) keeps in the buffer pool at a time
// (4 MiB); it leaves none behind.
// The build walks every schema node's block list forwards, so it revisits
// about one block per schema node plus the text and indirection blocks under
// its hand; the ring covers documents with a couple of hundred schema nodes,
// and beyond it a page is simply read again.
const scanRingPages = 256

// advisorHot reports whether the residency advisor wants doc resident even
// with the global switch off: the document has fresh ANALYZE statistics (so
// we know its shape and that it is not churning) and enough accesses to
// amortize the build.
func (db *Database) advisorHot(name string) bool {
	s := db.catalog.DocStats(name)
	if s == nil {
		return false
	}
	a := db.catalog.Activity(name)
	if s.Stale(a.Updates.Load()) {
		return false
	}
	return a.Accesses.Load() >= residentHotAccesses
}

// ResidentFor returns the resident representation of doc for this
// transaction's snapshot, or nil when the document must be served paged:
// update transaction, unversioned document, build failure, budget overflow,
// a replication barrier — or, with deferred=true, a build the cache put off
// because the document is being written faster than it can be built (or
// another reader is building it right now). Residency triggers either
// globally (the -resident switch) or per document via the advisor: analyzed,
// not stale, and hot enough (≥ residentHotAccesses statement accesses). The
// cache builds at most once per committed version and validates shared
// representations by commit timestamp.
func (t *Tx) ResidentFor(doc *storage.Doc) (rep *resident.Rep, deferred bool) {
	if !t.ReadOnly() {
		return nil, false
	}
	if !t.db.Resident() && !t.db.advisorHot(doc.Name) {
		return nil, false
	}
	snap := t.SnapshotTS()
	_, vts, ok := t.db.docVers.versionAt(doc.Name, snap)
	if !ok {
		return nil, false
	}
	return t.db.resCache.Acquire(doc.Name, vts, snap, func() (*resident.Rep, error) {
		r := t.Tx.ScanReader(scanRingPages)
		defer r.Close()
		return resident.Build(r, doc, vts, snap)
	})
}

// Document resolves a document by name. Update transactions use the live
// catalog (they hold document locks); read-only transactions use the
// committed metadata version matching their snapshot, so concurrent
// uncommitted schema changes stay invisible (§6.1, §6.3).
func (t *Tx) Document(name string) (*storage.Doc, error) {
	if t.ReadOnly() {
		doc, ok := t.db.docVers.at(name, t.SnapshotTS())
		if !ok {
			return nil, fmt.Errorf("core: document %q does not exist", name)
		}
		return doc, nil
	}
	doc, ok := t.db.catalog.Doc(name)
	if !ok {
		return nil, fmt.Errorf("core: document %q does not exist", name)
	}
	return doc, nil
}
