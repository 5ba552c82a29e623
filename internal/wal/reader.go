package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Reader tails a live log for replication shipping. It reads through its own
// read-only file descriptor on one segment at a time with positioned reads,
// so it never interferes with the appender's file position and needs no lock
// coordination beyond mapping an LSN to its segment: it only reads below the
// durable LSN, and bytes below the durable LSN are complete, fsynced records
// that will never change.
type Reader struct {
	log  *Log
	f    *os.File // the segment starting at base; nil before the first read
	base uint64
}

// OpenReader opens a tailing reader over the log.
func (l *Log) OpenReader() (*Reader, error) { return &Reader{log: l}, nil }

// Close releases the reader's file descriptor.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	return r.f.Close()
}

// ReadRecords reads a record-aligned chunk of the log starting at from,
// bounded by the durable LSN, by the end of from's segment and approximately
// by maxBytes (a single record larger than maxBytes is returned whole). It
// returns the raw bytes exactly as they appear in the log (framing headers
// included), the LSN of the first byte after the chunk, and the number of
// complete records in it; the next call continues in the next segment. A
// caught-up reader gets (nil, from, 0, nil); combine with Log.NotifyDurable
// to wait for more. A read below the oldest retained LSN fails with
// ErrRetired.
func (r *Reader) ReadRecords(from uint64, maxBytes int) (data []byte, next uint64, nrecs int, err error) {
	seg, end, err := r.log.segmentFor(from)
	if err != nil {
		return nil, from, 0, err
	}
	if from == end {
		return nil, from, 0, nil
	}
	if r.f == nil || r.base != seg.Base {
		f, err := os.Open(seg.Path)
		if errors.Is(err, os.ErrNotExist) {
			return nil, from, 0, fmt.Errorf("%w: segment of LSN %d", ErrRetired, from)
		}
		if err != nil {
			return nil, from, 0, fmt.Errorf("wal: open reader: %w", err)
		}
		if r.f != nil {
			r.f.Close()
		}
		r.f, r.base = f, seg.Base
	}
	if maxBytes < 64 {
		maxBytes = 64
	}
	avail := end - from
	n := uint64(maxBytes)
	if n > avail {
		n = avail
	}
	buf := make([]byte, n)
	if _, err := r.f.ReadAt(buf, int64(from-seg.Base)); err != nil {
		return nil, from, 0, fmt.Errorf("wal: read records: %w", err)
	}
	aligned, cnt := recordAlignedEnd(buf)
	if aligned == 0 {
		// The first record is larger than maxBytes; it is durable, hence
		// complete — read it whole.
		if len(buf) < 8 {
			return nil, from, 0, ErrCorrupt
		}
		total := uint64(8 + binary.LittleEndian.Uint32(buf[0:]))
		if total > avail {
			return nil, from, 0, ErrCorrupt
		}
		buf = make([]byte, total)
		if _, err := r.f.ReadAt(buf, int64(from-seg.Base)); err != nil {
			return nil, from, 0, fmt.Errorf("wal: read records: %w", err)
		}
		aligned, cnt = recordAlignedEnd(buf)
		if aligned == 0 {
			return nil, from, 0, ErrCorrupt
		}
	}
	return buf[:aligned], from + uint64(aligned), cnt, nil
}

// segmentFor maps lsn to the segment holding it and the end of what may be
// read there: the next segment's base, or the durable LSN in the live one.
func (l *Log) segmentFor(lsn uint64) (Segment, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn > l.flushed {
		return Segment{}, 0, fmt.Errorf("wal: read from %d past durable LSN %d", lsn, l.flushed)
	}
	if oldest := l.segs[0].Base; lsn < oldest {
		return Segment{}, 0, fmt.Errorf("%w: LSN %d is below the oldest retained LSN %d", ErrRetired, lsn, oldest)
	}
	i := l.segmentIndex(lsn)
	end := l.flushed
	if i+1 < len(l.segs) {
		end = min(end, l.segs[i+1].Base)
	}
	return l.segs[i], end, nil
}

// recordAlignedEnd returns the length of the longest prefix of buf holding
// only complete records, and how many records that prefix contains.
func recordAlignedEnd(buf []byte) (int, int) {
	pos, cnt := 0, 0
	for pos+8 <= len(buf) {
		n := int(binary.LittleEndian.Uint32(buf[pos:]))
		if n == 0 || n > maxPayload {
			break
		}
		if pos+8+n > len(buf) {
			break
		}
		pos += 8 + n
		cnt++
	}
	return pos, cnt
}

// ScanBytes walks the complete records in a raw log chunk (as produced by
// Reader.ReadRecords and shipped over a replication stream), verifying each
// record's checksum and calling fn with the record's LSN (base + offset) and
// decoded form. Torn or corrupt content returns ErrCorrupt: shipped chunks
// are record-aligned by construction, so unlike a log-tail scan nothing here
// is silently tolerated. A record's Data aliases buf and is valid only
// until fn returns; a record fn keeps must be Cloned.
func ScanBytes(base uint64, buf []byte, fn func(lsn uint64, r *Record, recLen int) error) error {
	pos := 0
	for pos < len(buf) {
		if pos+8 > len(buf) {
			return ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint32(buf[pos:]))
		crc := binary.LittleEndian.Uint32(buf[pos+4:])
		if n == 0 || n > maxPayload || pos+8+n > len(buf) {
			return ErrCorrupt
		}
		payload := buf[pos+8 : pos+8+n]
		if crc32.ChecksumIEEE(payload) != crc {
			return ErrCorrupt
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		if err := fn(base+uint64(pos), rec, 8+n); err != nil {
			return err
		}
		pos += 8 + n
	}
	return nil
}

var _ io.Closer = (*Reader)(nil)
