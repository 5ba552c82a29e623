// Package bench provides the shared corpus builders and measurement helpers
// behind the experiment suite (DESIGN.md E1–E16): the root bench_test.go
// benchmarks and the cmd/sedna-bench harness both build on it.
package bench

import (
	"fmt"
	"os"
	"strings"

	"sedna"
	"sedna/internal/core"
	"sedna/internal/metrics"
	"sedna/internal/query"
	"sedna/internal/schema"
	"sedna/internal/storage"
	"sedna/internal/subtree"
	"sedna/internal/xmlgen"
)

// OpenDB creates a throwaway database under dir (NoSync: experiments
// measure algorithmic behaviour, not fsync latency, unless stated).
func OpenDB(dir string) (*sedna.DB, error) {
	return OpenDBMetrics(dir, nil)
}

// OpenDBMetrics is OpenDB reporting into a shared metrics registry, so a
// harness run can accumulate internals counters across its databases.
func OpenDBMetrics(dir string, reg *metrics.Registry) (*sedna.DB, error) {
	return sedna.Open(dir, &sedna.Options{NoSync: true, BufferPages: 8192, Metrics: reg})
}

// LoadLibrary loads an n-entry library corpus as document "lib".
func LoadLibrary(db *sedna.DB, n int) error {
	return db.LoadXML("lib", strings.NewReader(xmlgen.LibraryString(n, 42)))
}

// LoadAuction loads an auction corpus as document "auction".
func LoadAuction(db *sedna.DB, people, items, bids int) error {
	return db.LoadXML("auction", strings.NewReader(xmlgen.AuctionString(people, items, bids, 42)))
}

// LoadSections loads a Sections corpus (sections distinctly named section
// elements of perSection items each — a descendant step over it merges one
// scan per schema node) as document "cat".
func LoadSections(db *sedna.DB, sections, perSection int) error {
	return db.LoadXML("cat", strings.NewReader(xmlgen.SectionsString(sections, perSection, 42)))
}

// QueryOpt runs a query with the cost-based optimizer on or off, returning
// the result data plus executor stats — the E23 measurement harness for
// optimized vs hand-forced plans.
func QueryOpt(db *sedna.DB, src string, optimize bool) (string, query.ExecStats, error) {
	tx, err := db.Internal().BeginReadOnly()
	if err != nil {
		return "", query.ExecStats{}, err
	}
	defer tx.Rollback()
	ctx := query.NewExecCtx(tx)
	ctx.NoOpt = !optimize
	res, err := query.Execute(ctx, src)
	if err != nil {
		return "", query.ExecStats{}, err
	}
	var sb strings.Builder
	if err := res.Serialize(&sb); err != nil {
		return "", query.ExecStats{}, err
	}
	return sb.String(), ctx.Profile.ExecStats, nil
}

// OpenDBBulk opens a database with an explicit LoadXML ingest path — the
// E24 measurement setup comparing the streaming bulk loader against
// node-at-a-time inserts.
func OpenDBBulk(dir string, reg *metrics.Registry, mode core.BulkLoadMode) (*core.Database, error) {
	return core.Open(dir, core.Options{NoSync: true, BufferPages: 8192, Metrics: reg, BulkLoad: mode})
}

// SubtreeStore builds the subtree-clustered baseline store with the same
// library corpus inside the same database (separate pages).
func SubtreeStore(db *sedna.DB, n int) (*subtree.Store, *core.Tx, error) {
	tx, err := db.Internal().Begin()
	if err != nil {
		return nil, nil, err
	}
	st, err := subtree.Load(tx.Tx, strings.NewReader(xmlgen.LibraryString(n, 42)))
	if err != nil {
		tx.Rollback()
		return nil, nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, nil, err
	}
	rtx, err := db.Internal().BeginReadOnly()
	if err != nil {
		return nil, nil, err
	}
	return st, rtx, nil
}

// Query runs a query with the rewriter on or off and returns the result
// data plus executor stats.
func Query(db *sedna.DB, src string, rewrite bool) (string, query.ExecStats, error) {
	tx, err := db.Internal().BeginReadOnly()
	if err != nil {
		return "", query.ExecStats{}, err
	}
	defer tx.Rollback()
	ctx := query.NewExecCtx(tx)
	ctx.NoRewrite = !rewrite
	res, err := query.Execute(ctx, src)
	if err != nil {
		return "", query.ExecStats{}, err
	}
	var sb strings.Builder
	if err := res.Serialize(&sb); err != nil {
		return "", query.ExecStats{}, err
	}
	return sb.String(), ctx.Profile.ExecStats, nil
}

// QueryCtor runs a query with virtual constructors on or off.
func QueryCtor(db *sedna.DB, src string, virtual bool) (string, query.ExecStats, error) {
	tx, err := db.Internal().BeginReadOnly()
	if err != nil {
		return "", query.ExecStats{}, err
	}
	defer tx.Rollback()
	ctx := query.NewExecCtx(tx)
	ctx.NoVirtualCtors = !virtual
	res, err := query.Execute(ctx, src)
	if err != nil {
		return "", query.ExecStats{}, err
	}
	var sb strings.Builder
	if err := res.Serialize(&sb); err != nil {
		return "", query.ExecStats{}, err
	}
	return sb.String(), ctx.Profile.ExecStats, nil
}

// SchemaStats reports descriptive-schema conciseness for a document:
// schema-node count versus document-node count (experiment E15).
func SchemaStats(db *sedna.DB, docName string) (schemaNodes int, docNodes uint64, err error) {
	tx, err := db.Internal().BeginReadOnly()
	if err != nil {
		return 0, 0, err
	}
	defer tx.Rollback()
	doc, err := tx.Document(docName)
	if err != nil {
		return 0, 0, err
	}
	schemaNodes = doc.Schema.Len()
	doc.Schema.Root.Walk(func(sn *schema.Node) {
		docNodes += sn.NodeCount
	})
	return schemaNodes, docNodes, nil
}

// FirstBookHandle returns the handle of the first book element (helper for
// the pointer-chase and move experiments).
func FirstBookHandle(tx *core.Tx, docName string) (storage.Desc, *storage.Doc, error) {
	doc, err := tx.Document(docName)
	if err != nil {
		return storage.Desc{}, nil, err
	}
	lib := doc.Schema.Root.Children[0]
	var bookSn *schema.Node
	for _, c := range lib.Children {
		if c.Name == "book" {
			bookSn = c
		}
	}
	if bookSn == nil {
		return storage.Desc{}, nil, fmt.Errorf("bench: no book schema node")
	}
	d, ok, err := storage.FirstOfSchema(tx.Tx, bookSn)
	if err != nil || !ok {
		return storage.Desc{}, nil, fmt.Errorf("bench: no book node: %v", err)
	}
	return d, doc, nil
}

// TempDir creates a working directory for a harness run.
func TempDir(pattern string) (string, func(), error) {
	dir, err := os.MkdirTemp("", pattern)
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
