// Package sedna is a native XML database management system in Go — a
// reproduction of the system described in "Sedna: Native XML Database
// Management System (Internals Overview)" (SIGMOD 2010).
//
// Sedna stores XML documents in a schema-driven clustered layout: node
// descriptors are grouped into blocks by their path in an incrementally
// maintained descriptive schema, connected by direct sibling pointers, an
// indirect parent pointer through an indirection table, and labeled with a
// relabel-free lexicographic numbering scheme. A layer-mapped 64-bit
// database address space makes pointer dereferencing swizzling-free.
// Queries are served by an XQuery-subset engine with the paper's rule-based
// optimizations; updates, snapshot-isolated read-only transactions,
// write-ahead logging with two-step recovery, value indexes and hot backup
// complete the system.
//
// Basic use:
//
//	db, err := sedna.Open("data/mydb", nil)
//	...
//	err = db.LoadXML("library", file)
//	res, err := db.Query(`doc("library")//book[author = "Date"]/title`)
//	fmt.Println(res.Data)
//
// For client-server deployments, run cmd/sednad and connect with the
// client package.
package sedna

import (
	"fmt"
	"io"
	"strings"
	"time"

	"sedna/internal/buffer"
	"sedna/internal/core"
	"sedna/internal/metrics"
	"sedna/internal/query"
)

// Options configures Open. The zero value (or nil) uses defaults.
type Options struct {
	// BufferPages is the buffer-pool capacity in 16 KiB pages
	// (default 2048 ≈ 32 MiB).
	BufferPages int
	// NoSync disables fsync; only for tests and benchmarks.
	NoSync bool
	// LockTimeout bounds document-lock waits (0 = wait; deadlocks are
	// always detected).
	LockTimeout time.Duration
	// KeepWhitespace retains whitespace-only text nodes when loading XML.
	KeepWhitespace bool
	// TraceEnabled records a span tree for every executed statement into the
	// tracer's in-memory ring.
	TraceEnabled bool
	// SlowQueryThreshold marks statements at or above this duration as slow
	// and appends their trace to the slow-query log (0 = disabled).
	SlowQueryThreshold time.Duration
	// SlowLogPath overrides the slow-query log location
	// (default <dir>/slowlog.jsonl).
	SlowLogPath string
	// Metrics is the observability registry every layer reports into; nil
	// gives the database a fresh private registry. Pass a shared registry to
	// accumulate counters across databases.
	Metrics *metrics.Registry
}

// DB is an open database.
type DB struct {
	inner *core.Database
}

// Open opens (creating if necessary) a database in dir and runs crash
// recovery, leaving it consistent.
func Open(dir string, opts *Options) (*DB, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	db, err := core.Open(dir, core.Options{
		BufferPages:        o.BufferPages,
		NoSync:             o.NoSync,
		LockTimeout:        o.LockTimeout,
		KeepWhitespace:     o.KeepWhitespace,
		TraceEnabled:       o.TraceEnabled,
		SlowQueryThreshold: o.SlowQueryThreshold,
		SlowLogPath:        o.SlowLogPath,
		Metrics:            o.Metrics,
	})
	if err != nil {
		return nil, err
	}
	return &DB{inner: db}, nil
}

// Close checkpoints and closes the database.
func (db *DB) Close() error { return db.inner.Close() }

// Checkpoint fixates the current committed state as the persistent snapshot
// and truncates recovery work.
func (db *DB) Checkpoint() error { return db.inner.Checkpoint() }

// Backup takes a full hot backup into destDir.
func (db *DB) Backup(destDir string) error { return db.inner.Backup(destDir) }

// BackupIncremental appends the log tail written since the last backup.
func (db *DB) BackupIncremental(destDir string) error {
	return db.inner.BackupIncremental(destDir)
}

// Restore materializes a database directory from a backup; upto selects how
// many incremental segments to apply (-1 = all).
func Restore(backupDir, destDir string, upto int) error {
	return core.Restore(backupDir, destDir, upto)
}

// BufferStats returns buffer-manager counters (hits, faults, evictions,
// snapshot saves, versioning events) — a flat compatibility view over the
// "buffer." family of Metrics().
func (db *DB) BufferStats() buffer.Stats { return db.inner.BufferStats() }

// Metrics returns the observability registry every layer of this database
// reports into: counters, gauges and latency histograms for the buffer
// manager, pagefile, WAL, transaction manager, lock manager and query
// executor.
func (db *DB) Metrics() *metrics.Registry { return db.inner.Metrics() }

// LogSize returns the bytes of write-ahead log on disk: the segments since
// the last checkpoint, plus any a connected replica or the last backup still
// holds.
func (db *DB) LogSize() uint64 { return db.inner.LogSize() }

// Documents lists the stored document names.
func (db *DB) Documents() []string { return db.inner.Catalog().DocNames() }

// Internal exposes the engine for benchmarks and tools; applications should
// not need it.
func (db *DB) Internal() *core.Database { return db.inner }

// Tx is a database transaction. Update transactions see and modify the live
// state under document-granularity strict two-phase locking; read-only
// transactions read a consistent snapshot and never block or take locks.
type Tx struct {
	inner *core.Tx
}

// Begin starts an update transaction.
func (db *DB) Begin() (*Tx, error) {
	tx, err := db.inner.Begin()
	if err != nil {
		return nil, err
	}
	return &Tx{inner: tx}, nil
}

// BeginReadOnly starts a read-only snapshot transaction.
func (db *DB) BeginReadOnly() (*Tx, error) {
	tx, err := db.inner.BeginReadOnly()
	if err != nil {
		return nil, err
	}
	return &Tx{inner: tx}, nil
}

// Commit makes the transaction durable.
func (tx *Tx) Commit() error { return tx.inner.Commit() }

// Rollback discards the transaction.
func (tx *Tx) Rollback() error { return tx.inner.Rollback() }

// ReadOnly reports whether this is a snapshot transaction.
func (tx *Tx) ReadOnly() bool { return tx.inner.ReadOnly() }

// Result is the outcome of one executed statement.
type Result struct {
	// Data is the serialized result sequence (XML for nodes, lexical forms
	// for atomic values).
	Data string
	// Count is the number of items in the result sequence.
	Count int
	// Updated is the number of nodes affected by an update statement.
	Updated int
	// Message acknowledges DDL statements.
	Message string
	// Stats reports executor events (DDO operations, deep copies avoided,
	// index scans, ...).
	Stats query.ExecStats
}

// Execute runs one statement (XQuery query, XUpdate statement or DDL) in
// the transaction.
func (tx *Tx) Execute(src string) (*Result, error) {
	st, parseNs, err := parse(tx.inner.DB(), src)
	if err != nil {
		return nil, err
	}
	return tx.execute(st, parseNs)
}

// parse parses src, counting a failure in query.errors as execution failures
// are counted.
func parse(db *core.Database, src string) (*query.Statement, int64, error) {
	start := time.Now()
	st, err := query.Parse(src)
	if err != nil {
		db.Metrics().Counter("query.errors").Inc()
		return nil, 0, err
	}
	return st, time.Since(start).Nanoseconds(), nil
}

// execute runs a statement parsed in parseNs under its own trace and
// serializes its result.
func (tx *Tx) execute(st *query.Statement, parseNs int64) (*Result, error) {
	ctx := query.NewExecCtx(tx.inner)
	ctx.StartTrace(st.Source)
	ctx.RecordParse(parseNs)
	res, err := query.ExecuteStatement(ctx, st)
	ctx.FinishTrace()
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	if err := res.Serialize(&sb); err != nil {
		return nil, err
	}
	return &Result{
		Data:    sb.String(),
		Count:   len(res.Items),
		Updated: res.Updated,
		Message: res.Message,
		Stats:   ctx.Profile.ExecStats,
	}, nil
}

// LoadXML parses and bulk-loads an XML document under the given name.
func (tx *Tx) LoadXML(name string, r io.Reader) error {
	_, err := tx.inner.LoadXML(name, r)
	return err
}

// Document returns a navigation handle on a document's root node.
func (tx *Tx) Document(name string) (*Node, error) {
	doc, err := tx.inner.Document(name)
	if err != nil {
		return nil, err
	}
	return nodeFor(tx, doc)
}

// ---- auto-commit conveniences on DB ----

// Execute runs one statement in its own transaction: a snapshot transaction
// for queries, an update transaction (committed on success) otherwise.
func (db *DB) Execute(src string) (*Result, error) {
	st, parseNs, err := parse(db.inner, src)
	if err != nil {
		return nil, err
	}
	var tx *Tx
	if st.ReadOnly() {
		tx, err = db.BeginReadOnly()
	} else {
		tx, err = db.Begin()
	}
	if err != nil {
		return nil, err
	}
	res, err := tx.execute(st, parseNs)
	if err != nil {
		tx.Rollback()
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return res, nil
}

// Query runs a read-only query (an error if src is an update or DDL).
func (db *DB) Query(src string) (*Result, error) {
	st, parseNs, err := parse(db.inner, src)
	if err != nil {
		return nil, err
	}
	if !st.ReadOnly() {
		return nil, fmt.Errorf("sedna: Query requires a read-only statement; use Execute")
	}
	tx, err := db.BeginReadOnly()
	if err != nil {
		return nil, err
	}
	defer tx.Rollback()
	return tx.execute(st, parseNs)
}

// LoadXML bulk-loads a document in its own transaction.
func (db *DB) LoadXML(name string, r io.Reader) error {
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	if err := tx.LoadXML(name, r); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// LoadXMLString bulk-loads a document from a string.
func (db *DB) LoadXMLString(name, content string) error {
	return db.LoadXML(name, strings.NewReader(content))
}
