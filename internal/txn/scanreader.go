package txn

import (
	"errors"

	"sedna/internal/sas"
	"sedna/internal/storage"
)

// ScanReader reads a read-only transaction's snapshot for one goroutine that
// passes over a whole document once — the resident build. The transaction's
// own page cache keeps a private copy of every page it ever resolved until
// the transaction ends, which for such a pass is a second copy of the
// document held for as long as the structure being built from it; a
// ScanReader sees the same pages through a clock cache of a fixed number of
// copies instead. A depth-first pass over block lists needs few: it advances
// along every schema node's list monotonically, so its working set is about
// one block per schema node.
//
// Not safe for concurrent use. A page view stays valid until its
// ReleasePage, as storage.Reader requires, and no longer.
type ScanReader struct {
	tx      *Tx
	max     int
	entries []*scanPage
	byID    map[sas.PageID]*scanPage
	hand    int
}

type scanPage struct {
	id   sas.PageID
	page *snapPage
	pins int
	ref  bool // touched since the clock hand last passed
}

// ScanReader returns a reader over the transaction's snapshot that keeps at
// most maxPages page copies at a time (more only while that many are pinned).
// Close it when the pass is done.
func (tx *Tx) ScanReader(maxPages int) (*ScanReader, error) {
	if !tx.readonly {
		return nil, errors.New("txn: ScanReader needs a read-only transaction")
	}
	return &ScanReader{tx: tx, max: maxPages, byID: make(map[sas.PageID]*scanPage, maxPages)}, nil
}

var _ storage.Reader = (*ScanReader)(nil)

// ViewPage implements storage.Reader.
func (s *ScanReader) ViewPage(p sas.XPtr) ([]byte, any, error) {
	tx := s.tx
	if tx.done {
		return nil, nil, ErrDone
	}
	if p.IsNil() {
		return nil, nil, errors.New("txn: read of nil pointer")
	}
	tx.pagesTouched.Add(1)
	id := sas.PageIDOf(p)
	e := s.byID[id]
	if e == nil {
		e = s.victim()
		if err := tx.resolveSnapshotPage(id, e.page); err != nil {
			// The entry keeps its buffer but names no page.
			e.id = sas.PageID{}
			return nil, nil, err
		}
		e.id = id
		s.byID[id] = e
	}
	e.pins++
	e.ref = true
	return e.page[:], e, nil
}

// victim returns an entry whose buffer may be overwritten: a new one while
// the cache is below its size, otherwise the first unpinned entry the clock
// hand finds that was not touched since its last pass.
func (s *ScanReader) victim() *scanPage {
	if len(s.entries) >= s.max {
		for sweep := 0; sweep < 2*len(s.entries); sweep++ {
			e := s.entries[s.hand]
			s.hand = (s.hand + 1) % len(s.entries)
			if e.pins > 0 {
				continue
			}
			if e.ref {
				e.ref = false
				continue
			}
			delete(s.byID, e.id)
			return e
		}
	}
	e := &scanPage{page: snapPages.Get().(*snapPage)}
	s.entries = append(s.entries, e)
	return e
}

// ReleasePage implements storage.Reader.
func (s *ScanReader) ReleasePage(pin any) {
	if e, ok := pin.(*scanPage); ok {
		e.pins--
	}
}

// ReadPage implements storage.Reader.
func (s *ScanReader) ReadPage(p sas.XPtr, fn func(page []byte) error) error {
	page, pin, err := s.ViewPage(p)
	if err != nil {
		return err
	}
	defer s.ReleasePage(pin)
	return fn(page)
}

// PrefetchFrom implements storage.Prefetcher through the transaction.
func (s *ScanReader) PrefetchFrom(block sas.XPtr) { s.tx.PrefetchFrom(block) }

// Close hands the page copies back for reuse; the reader must not be used
// afterwards.
func (s *ScanReader) Close() {
	for _, e := range s.entries {
		snapPages.Put(e.page)
	}
	s.entries, s.byID = nil, nil
}
