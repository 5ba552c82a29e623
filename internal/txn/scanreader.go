package txn

import (
	"sedna/internal/sas"
	"sedna/internal/storage"
)

// ScanReader reads a transaction's pages for one goroutine that passes over a
// whole document once — the open-time recount. Through
// the transaction itself such a pass parks the document in the buffer pool
// and pushes out what statements are using. A ScanReader remembers the last
// pages it read from disk and hands the oldest back as it goes, and the rest when
// it is closed: a scan ring inside the pool. Pages that were resident before
// the pass are left alone.
//
// Not safe for concurrent use.
type ScanReader struct {
	tx   *Tx
	ring []sas.PageID // pages this reader loaded; the oldest is at next
	next int
}

// ScanReader returns a reader over the transaction that keeps at most
// ringPages of the pages it loads in the buffer pool, and none once closed.
func (tx *Tx) ScanReader(ringPages int) *ScanReader {
	return &ScanReader{tx: tx, ring: make([]sas.PageID, 0, ringPages)}
}

var _ storage.Reader = (*ScanReader)(nil)

// ViewPage implements storage.Reader.
func (s *ScanReader) ViewPage(p sas.XPtr) ([]byte, any, error) {
	page, f, loaded, err := s.tx.view(p)
	if f == nil {
		return page, nil, err
	}
	if loaded {
		if id := sas.PageIDOf(p); len(s.ring) < cap(s.ring) {
			s.ring = append(s.ring, id)
		} else {
			// A page still pinned by this pass stays; it is one of few.
			s.tx.m.buf.Discard(s.ring[s.next])
			s.ring[s.next] = id
			s.next = (s.next + 1) % len(s.ring)
		}
	}
	return page, f, nil
}

// ReleasePage implements storage.Reader.
func (s *ScanReader) ReleasePage(pin any) { s.tx.ReleasePage(pin) }

// ReadPage implements storage.Reader.
func (s *ScanReader) ReadPage(p sas.XPtr, fn func(page []byte) error) error {
	page, pin, err := s.ViewPage(p)
	if err != nil {
		return err
	}
	defer s.ReleasePage(pin)
	return fn(page)
}

// Close hands the pages still in the ring back to the pool.
func (s *ScanReader) Close() {
	for _, id := range s.ring {
		s.tx.m.buf.Discard(id)
	}
	s.ring = s.ring[:0]
}
