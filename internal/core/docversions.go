package core

import (
	"sort"
	"sync"

	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
)

// docVersionStore keeps, per document name, immutable copies of the
// document's metadata (descriptive schema, block-list heads, chain heads,
// the roots of its indexes) as of each commit that changed it. Snapshot
// transactions resolve documents against the version matching their
// snapshot timestamp, so a reader never observes uncommitted (or too-new)
// schema changes or index roots even though updaters mutate them in place
// under the document's exclusive lock.
//
// In the original system this falls out of storing metadata in versioned
// pages (§6.1); with the metadata held in Go memory, publishing committed
// copies reproduces the same behaviour. Versions older than the oldest
// active snapshot are purged on publish.
type docVersionStore struct {
	mu     sync.RWMutex
	byName map[string][]docVersion
}

type docVersion struct {
	ts    uint64
	doc   *storage.Doc        // nil = document dropped at ts
	roots map[string]sas.XPtr // index name → B+tree root
}

func newDocVersionStore() *docVersionStore {
	return &docVersionStore{byName: make(map[string][]docVersion)}
}

// publish records a committed metadata version (v.doc nil = drop tombstone)
// and purges versions no active snapshot can read. minSnap is the oldest
// active snapshot timestamp.
func (s *docVersionStore) publish(name string, v docVersion, minSnap uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	versions := append(s.byName[name], v)
	sort.SliceStable(versions, func(i, j int) bool { return versions[i].ts < versions[j].ts })
	// Keep the newest version with ts <= minSnap and everything newer.
	cut := 0
	for i := range versions {
		if versions[i].ts <= minSnap {
			cut = i
		}
	}
	s.byName[name] = versions[cut:]
}

// at returns the version of the document visible to a snapshot at ts;
// ok=false when the document did not exist then.
func (s *docVersionStore) at(name string, ts uint64) (docVersion, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var best docVersion
	for _, v := range s.byName[name] {
		if v.ts <= ts {
			best = v
		}
	}
	return best, best.doc != nil
}

// committedVersion copies what a commit publishes of a live document: its
// metadata and the roots of its indexes. The caller holds the document's
// lock, or no writer runs beside it.
func (db *Database) committedVersion(doc *storage.Doc) docVersion {
	return docVersion{doc: cloneDoc(doc), roots: db.catalog.indexRoots(doc.Name)}
}

// cloneDoc makes an immutable metadata copy: the schema tree is rebuilt
// from its flattened form, detaching it from the live (mutable) schema.
func cloneDoc(doc *storage.Doc) *storage.Doc {
	s, err := schema.Rebuild(doc.Schema.Flatten())
	if err != nil {
		// Flatten/Rebuild round-trips by construction; failure means heap
		// corruption, so fail loudly.
		panic("core: schema clone failed: " + err.Error())
	}
	return &storage.Doc{
		ID: doc.ID, Name: doc.Name, Schema: s,
		RootHandle: doc.RootHandle,
		IndirFirst: doc.IndirFirst, IndirLast: doc.IndirLast,
		TextFirst: doc.TextFirst, TextLast: doc.TextLast,
	}
}
