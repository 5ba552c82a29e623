// Package core assembles the Sedna engine: the catalog of documents and
// indexes, database open/close with two-step crash recovery (§6.4),
// checkpointing, transaction orchestration over the storage substrate, XML
// bulk loading and serialization, and hot backup (§6.5). It corresponds to
// the "database manager" of the paper's Figure 1.
package core

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"sedna/internal/opt"
	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
)

// IndexMeta describes a value index over one document path: the nodes
// selected by OnPath are indexed under the key computed by ByPath relative
// to each node, typed as KeyType ("string" or "number").
type IndexMeta struct {
	Name    string
	DocName string
	OnPath  string
	ByPath  string
	KeyType string
	// Root is the live root of the B+tree, assigned by the update
	// transaction that holds the document's exclusive lock; snapshot readers
	// take the root committed at their snapshot (Tx.IndexRoot).
	Root sas.XPtr
}

// Catalog tracks every document and index in the database, plus the
// optimizer state attached to documents: the ANALYZE statistics snapshots
// (persisted through the meta file) and the live update activity counters
// (advisory, reset on restart).
type Catalog struct {
	mu        sync.RWMutex
	docs      map[string]*storage.Doc
	docsByID  map[uint32]*storage.Doc
	indexes   map[string]*IndexMeta
	stats     map[string]*opt.DocStats
	activity  map[string]*opt.Activity
	nextDocID uint32
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		docs:      make(map[string]*storage.Doc),
		docsByID:  make(map[uint32]*storage.Doc),
		indexes:   make(map[string]*IndexMeta),
		stats:     make(map[string]*opt.DocStats),
		activity:  make(map[string]*opt.Activity),
		nextDocID: 1,
	}
}

// Doc returns the document by name.
func (c *Catalog) Doc(name string) (*storage.Doc, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.docs[name]
	return d, ok
}

// DocByID returns the document by identifier.
func (c *Catalog) DocByID(id uint32) (*storage.Doc, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.docsByID[id]
	return d, ok
}

// DocNames returns the sorted document names.
func (c *Catalog) DocNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.docs))
	for n := range c.docs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AllocDocID reserves the next document identifier.
func (c *Catalog) AllocDocID() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextDocID
	c.nextDocID++
	return id
}

// Put registers a document.
func (c *Catalog) Put(doc *storage.Doc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.docs[doc.Name] = doc
	c.docsByID[doc.ID] = doc
	if doc.ID >= c.nextDocID {
		c.nextDocID = doc.ID + 1
	}
}

// Delete removes a document.
func (c *Catalog) Delete(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.docs[name]; ok {
		delete(c.docsByID, d.ID)
		delete(c.docs, name)
	}
	delete(c.stats, name)
	delete(c.activity, name)
}

// Index returns index metadata by name.
func (c *Catalog) Index(name string) (*IndexMeta, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ix, ok := c.indexes[name]
	return ix, ok
}

// PutIndex registers an index.
func (c *Catalog) PutIndex(ix *IndexMeta) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.indexes[ix.Name] = ix
}

// DeleteIndex removes an index.
func (c *Catalog) DeleteIndex(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.indexes, name)
}

// indexRoots returns the B+tree roots of the document's indexes by name (nil
// when it has none).
func (c *Catalog) indexRoots(docName string) map[string]sas.XPtr {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out map[string]sas.XPtr
	for _, ix := range c.indexes {
		if ix.DocName == docName {
			if out == nil {
				out = make(map[string]sas.XPtr)
			}
			out[ix.Name] = ix.Root
		}
	}
	return out
}

// IndexesOf returns the indexes defined over a document.
func (c *Catalog) IndexesOf(docName string) []*IndexMeta {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*IndexMeta
	for _, ix := range c.indexes {
		if ix.DocName == docName {
			out = append(out, ix)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DocStats returns the ANALYZE statistics snapshot for a document, or nil
// when the document has never been analyzed.
func (c *Catalog) DocStats(docName string) *opt.DocStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stats[docName]
}

// PutDocStats installs (or, with nil, clears) a document's statistics
// snapshot. Snapshots are immutable after installation; ANALYZE replaces the
// whole value.
func (c *Catalog) PutDocStats(docName string, s *opt.DocStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s == nil {
		delete(c.stats, docName)
		return
	}
	c.stats[docName] = s
}

// Activity returns the document's live activity counters, creating them on
// first use. The counters are advisory and reset on restart.
func (c *Catalog) Activity(docName string) *opt.Activity {
	c.mu.RLock()
	a := c.activity[docName]
	c.mu.RUnlock()
	if a != nil {
		return a
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if a = c.activity[docName]; a == nil {
		a = &opt.Activity{}
		c.activity[docName] = a
	}
	return a
}

// NoteUpdate records one committed update transaction touching the document.
func (c *Catalog) NoteUpdate(docName string) {
	c.Activity(docName).Updates.Add(1)
}

// ---- catalog snapshot (the meta.<gen> file written at every checkpoint) ----

type metaDoc struct {
	ID                    uint32
	Name                  string
	RootHandle            sas.XPtr
	IndirFirst, IndirLast sas.XPtr
	TextFirst, TextLast   sas.XPtr
	Schema                []schema.Flat
}

type metaFile struct {
	Gen       uint64
	NextDocID uint32
	FreeList  []sas.PageID
	Docs      []metaDoc
	Indexes   []IndexMeta
	Stats     map[string]*opt.DocStats
}

func metaPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("meta.%d", gen))
}

// saveMeta writes the catalog snapshot for generation gen and fsyncs it.
func saveMeta(dir string, gen uint64, c *Catalog, freeList []sas.PageID) error {
	c.mu.RLock()
	mf := metaFile{Gen: gen, NextDocID: c.nextDocID, FreeList: freeList}
	for _, d := range c.docs {
		mf.Docs = append(mf.Docs, metaDoc{
			ID: d.ID, Name: d.Name, RootHandle: d.RootHandle,
			IndirFirst: d.IndirFirst, IndirLast: d.IndirLast,
			TextFirst: d.TextFirst, TextLast: d.TextLast,
			Schema: d.Schema.Flatten(),
		})
	}
	for _, ix := range c.indexes {
		mf.Indexes = append(mf.Indexes, *ix)
	}
	if len(c.stats) > 0 {
		mf.Stats = make(map[string]*opt.DocStats, len(c.stats))
		for n, s := range c.stats {
			if _, ok := c.docs[n]; ok {
				mf.Stats[n] = s
			}
		}
	}
	c.mu.RUnlock()
	sort.Slice(mf.Docs, func(i, j int) bool { return mf.Docs[i].ID < mf.Docs[j].ID })
	sort.Slice(mf.Indexes, func(i, j int) bool { return mf.Indexes[i].Name < mf.Indexes[j].Name })

	path := metaPath(dir, gen)
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return fmt.Errorf("core: save meta: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(&mf); err != nil {
		f.Close()
		return fmt.Errorf("core: encode meta: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// loadMeta reads the catalog snapshot of generation gen and rebuilds the
// catalog.
func loadMeta(dir string, gen uint64) (*Catalog, []sas.PageID, error) {
	f, err := os.Open(metaPath(dir, gen))
	if err != nil {
		return nil, nil, fmt.Errorf("core: load meta: %w", err)
	}
	defer f.Close()
	var mf metaFile
	if err := gob.NewDecoder(f).Decode(&mf); err != nil {
		return nil, nil, fmt.Errorf("core: decode meta: %w", err)
	}
	c := NewCatalog()
	c.nextDocID = mf.NextDocID
	for _, md := range mf.Docs {
		s, err := schema.Rebuild(md.Schema)
		if err != nil {
			return nil, nil, fmt.Errorf("core: doc %q: %w", md.Name, err)
		}
		doc := &storage.Doc{
			ID: md.ID, Name: md.Name, Schema: s,
			RootHandle: md.RootHandle,
			IndirFirst: md.IndirFirst, IndirLast: md.IndirLast,
			TextFirst: md.TextFirst, TextLast: md.TextLast,
		}
		c.docs[doc.Name] = doc
		c.docsByID[doc.ID] = doc
	}
	for i := range mf.Indexes {
		ix := mf.Indexes[i]
		c.indexes[ix.Name] = &ix
	}
	for n, s := range mf.Stats {
		if _, ok := c.docs[n]; ok {
			c.stats[n] = s
		}
	}
	return c, mf.FreeList, nil
}

// removeOldMeta deletes catalog snapshots older than keepGen.
func removeOldMeta(dir string, keepGen uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		var gen uint64
		if _, err := fmt.Sscanf(e.Name(), "meta.%d", &gen); err == nil && gen < keepGen {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
