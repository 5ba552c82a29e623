// Package bench holds the corpus builders and the statement runner the
// cmd/sedna-bench experiments share (EXPERIMENTS.md). Each database it opens
// reports into a metrics registry of its own.
package bench

import (
	"os"
	"strings"

	"sedna"
	"sedna/internal/core"
	"sedna/internal/metrics"
	"sedna/internal/query"
	"sedna/internal/schema"
	"sedna/internal/subtree"
	"sedna/internal/xmlgen"
)

// OpenDB creates a throwaway database under dir (NoSync: experiments
// measure algorithmic behaviour, not fsync latency, unless stated).
func OpenDB(dir string) (*sedna.DB, error) {
	return sedna.Open(dir, &sedna.Options{NoSync: true, BufferPages: 8192})
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

// OpenDBBulk opens a database with an explicit LoadXML ingest path — the
// E24 measurement setup comparing the streaming bulk loader against
// node-at-a-time inserts.
func OpenDBBulk(dir string, mode core.BulkLoadMode) (*core.Database, error) {
	return core.Open(dir, core.Options{NoSync: true, BufferPages: 8192, BulkLoad: mode})
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

// Query runs src over a snapshot of db and returns its serialized result
// and profile. baseline, when not nil, switches off the mechanism an
// experiment measures (the rewriter, virtual constructors, the optimizer).
func Query(db *core.Database, src string, baseline func(*query.ExecCtx)) (string, metrics.QueryProfile, error) {
	tx, err := db.BeginReadOnly()
	if err != nil {
		return "", metrics.QueryProfile{}, err
	}
	defer tx.Rollback()
	ctx := query.NewExecCtx(tx)
	if baseline != nil {
		baseline(ctx)
	}
	res, err := query.Execute(ctx, src)
	if err != nil {
		return "", metrics.QueryProfile{}, err
	}
	var sb strings.Builder
	if err := res.Serialize(&sb); err != nil {
		return "", metrics.QueryProfile{}, err
	}
	return sb.String(), ctx.Profile, nil
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

// TempDir creates a working directory for a harness run.
func TempDir(pattern string) (string, func(), error) {
	dir, err := os.MkdirTemp("", pattern)
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
