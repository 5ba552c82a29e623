// Package wal implements Sedna's write-ahead log (§6.4). All main
// operations are logged: physical page writes carry redo information for
// every byte an update statement changes, and logical catalog records
// (document creation, descriptive-schema growth, block-list changes, index
// DDL) carry the in-memory metadata recovery must rebuild. Recovery is
// redo-only: the persistent snapshot restored in step one is
// transaction-consistent, so step two replays only the records of
// transactions that committed after the checkpoint.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sedna/internal/metrics"
	"sedna/internal/sas"
	"sedna/internal/trace"
)

// RecType enumerates log record types.
type RecType byte

// Log record types.
const (
	RecBegin RecType = iota + 1
	RecCommit
	RecAbort
	RecPageWrite
	RecAllocPage
	RecFreePage
	RecCreateDoc
	RecDropDoc
	RecAddSchemaNode
	RecSchemaBlocks
	RecDocMeta
	RecCreateIndex
	RecDropIndex
	RecIndexMeta
	RecCheckpoint
	// RecReplApplied is written only on replicas: it records how far in the
	// primary's log the replica has applied, so a restarted replica resumes
	// streaming from the right point. Inside an apply transaction it carries
	// that transaction's progress (valid only if the transaction committed);
	// with Txn == 0 it is a standalone watermark written after a checkpoint
	// or a seed, flushed before it is relied upon.
	RecReplApplied
	// RecBulkLoad marks a completed streaming bulk load of one document.
	// The whole-page images of the load precede it in the same transaction,
	// so redo needs nothing from it; replicas use it to account the load as
	// a load (one record) instead of N per-node inserts.
	RecBulkLoad
)

// Record is the union of all log record payloads; which fields are
// meaningful depends on Type.
type Record struct {
	Type RecType
	Txn  uint64

	CommitTS uint64 // RecCommit

	Page sas.PageID // RecPageWrite, RecAllocPage, RecFreePage
	Off  uint32     // RecPageWrite
	// Data is a page write's bytes; in a scanned record it is valid only
	// during the callback (see Scan).
	Data []byte // RecPageWrite

	DocID    uint32 // document-scoped records
	Name     string // RecCreateDoc, RecCreateIndex, RecDropIndex, RecAddSchemaNode
	Path     string // RecCreateIndex
	ParentID uint32 // RecAddSchemaNode
	NodeID   uint32 // RecAddSchemaNode, RecSchemaBlocks
	Kind     byte   // RecAddSchemaNode

	Ptrs [5]sas.XPtr // RecSchemaBlocks (first,last), RecDocMeta (root, indirF, indirL, textF, textL)

	// RecReplApplied: RestartLSN is the primary-log position replication
	// must resume shipping from (every record below it is applied or belongs
	// to an aborted transaction); CommitLSN is the position just past the
	// last applied commit record (commit records below it must not be
	// re-applied when the stream overlaps).
	RestartLSN uint64
	CommitLSN  uint64

	// RecBulkLoad: load summary (DocID and Name identify the document).
	Nodes  uint64
	Blocks uint64
	Bytes  uint64
}

// Clone returns a copy of r that owns its Data, for a caller that keeps a
// scanned record past the callback that delivered it.
func (r *Record) Clone() *Record {
	c := *r
	c.Data = bytes.Clone(r.Data)
	return &c
}

// ErrCorrupt reports a malformed record in the middle of the log (not a
// torn tail, which is silently treated as the end) or a gap between
// segments.
var ErrCorrupt = errors.New("wal: corrupt log record")

// ErrRetired reports a read below the oldest retained LSN: the segment
// holding it was deleted after a checkpoint.
var ErrRetired = errors.New("wal: log retired")

// Options configures Open.
type Options struct {
	// NoSync disables fsync on Flush; tests and benchmarks only.
	NoSync bool
	// Metrics is the registry the log reports into under the "wal." family
	// (nil = a fresh private registry).
	Metrics *metrics.Registry
}

// Log is an append-only write-ahead log. LSNs are byte offsets of record
// starts in the logical log; the bytes live in segment files (segment.go).
//
// Flush implements group commit: concurrent flushers targeting undurable
// LSNs elect one leader, which performs a single batched fsync covering
// every record appended so far; the others wait on the round and return
// when their records are durable. A flusher whose records are already
// durable returns immediately without touching the disk, so the WAL-rule
// hook on the page-eviction path (FlushThrough) costs nothing when the
// victim's last record is durable, whatever was appended since.
type Log struct {
	mu      sync.Mutex
	cond    *sync.Cond // signaled when a sync round completes
	f       *os.File   // the live (last) segment, open for appending
	w       *bufio.Writer
	nextLSN uint64
	flushed uint64 // all records below this LSN are durable
	syncing bool   // a leader fsync is in flight (mu released)
	syncErr error  // outcome of the last completed round
	waiters int    // flushers waiting for the in-flight round
	noSync  bool
	path    string

	// segs lists the retained segments, oldest first; the last one is live.
	// Segment i covers [segs[i].Base, segs[i+1].Base).
	segs []Segment
	// holds keep segments past the checkpoint for replicas and backups;
	// checkpoint is the cutoff of the last Retire.
	holds      []*Hold
	checkpoint uint64

	// durableSubs are notified (non-blocking) whenever the durable LSN
	// advances; replication streamers tailing the log wait on them.
	durableSubs map[int]chan struct{}
	nextSub     int

	met walMetrics
}

// walMetrics binds the write-ahead-log counters in a metrics registry.
type walMetrics struct {
	appends     *metrics.Counter
	appendBytes *metrics.Counter
	flushes     *metrics.Counter
	fsyncs      *metrics.Counter
	fsyncNs     *metrics.Histogram
	groupCommit *metrics.Counter // commit-flush rounds (one batched fsync each when durable)
	groupTxns   *metrics.Counter // flush requests that found undurable records (each counted once)
	groupSize   *metrics.Gauge   // flushers enqueued when the most recent round began
}

func bindWalMetrics(reg *metrics.Registry) walMetrics {
	return walMetrics{
		appends:     reg.Counter("wal.appends"),
		appendBytes: reg.Counter("wal.append_bytes"),
		flushes:     reg.Counter("wal.flushes"),
		fsyncs:      reg.Counter("wal.fsyncs"),
		fsyncNs:     reg.Histogram("wal.fsync_ns"),
		groupCommit: reg.Counter("wal.group_commits"),
		groupTxns:   reg.Counter("wal.group_commit_txns"),
		groupSize:   reg.Gauge("wal.group_size"),
	}
}

// maxPayload bounds a record payload; a larger length field is garbage.
const maxPayload = 1 << 24

// Open opens or creates the log whose segments are path.<base LSN> and
// positions appends at the end of the last complete record. Only the last
// segment can hold a torn tail: it is truncated to its valid prefix.
func Open(path string, opts Options) (*Log, error) {
	reg := metrics.OrNew(opts.Metrics)
	l := &Log{noSync: opts.NoSync, path: path, met: bindWalMetrics(reg)}
	segs, err := listSegments(path)
	if err != nil {
		return nil, err
	}
	created := len(segs) == 0
	if created {
		segs = []Segment{{Base: 0, Path: segmentPath(path, 0)}}
	}
	live := segs[len(segs)-1]
	f, err := os.OpenFile(live.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if created {
		if err := l.syncDir(); err != nil {
			f.Close()
			return nil, err
		}
	}
	end, err := validEnd(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(int64(end)); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(int64(end), io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	l.f = f
	l.segs = segs
	l.nextLSN = live.Base + end
	l.flushed = l.nextLSN
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.cond = sync.NewCond(&l.mu)
	l.bindGauges(reg)
	return l, nil
}

// validEnd scans a segment for the end of its last complete record,
// reusing one payload buffer.
func validEnd(f *os.File) (uint64, error) {
	r := bufio.NewReaderSize(f, 1<<16)
	var pos uint64
	var hdr [8]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return pos, tornOK(err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if n == 0 || n > maxPayload {
			return pos, nil
		}
		payload = grow(payload, int(n))
		if _, err := io.ReadFull(r, payload); err != nil {
			return pos, tornOK(err)
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return pos, nil
		}
		pos += 8 + uint64(n)
	}
}

// tornOK maps an end-of-file read (a torn tail) to nil and keeps real I/O
// errors.
func tornOK(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return fmt.Errorf("wal: read: %w", err)
}

// grow returns buf resized to n bytes, reallocating only when it is too
// small.
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// Append appends the record and returns its LSN. The record is durable only
// after Flush. A checkpoint record starts a new segment (see roll).
//
// A page write's Data is not copied into a payload: the fixed fields are
// encoded apart, the checksum runs over them and then Data, outside the
// mutex, and Data goes to the buffered writer as it is. The caller may reuse
// Data once Append returns.
func (l *Log) Append(r *Record) (uint64, error) {
	fields := encodeFields(r)
	var data []byte
	if r.Type == RecPageWrite {
		data = r.Data
	}
	n := uint64(len(fields) + len(data))
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Update(crc32.ChecksumIEEE(fields), crc32.IEEETable, data))
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.Type == RecCheckpoint {
		if err := l.rollLocked(); err != nil {
			return 0, err
		}
	}
	lsn := l.nextLSN
	for _, b := range [][]byte{hdr[:], fields, data} {
		if _, err := l.w.Write(b); err != nil {
			return 0, fmt.Errorf("wal: append: %w", err)
		}
	}
	l.nextLSN += 8 + n
	l.met.appends.Inc()
	l.met.appendBytes.Add(8 + n)
	return lsn, nil
}

// Flush makes all appended records durable. Returns immediately when
// everything appended so far is already durable.
func (l *Log) Flush() error { return l.flushTo(nil, math.MaxUint64) }

// FlushThrough makes the record at lsn and every record before it durable:
// the WAL rule for one page, whose last logged write is at lsn. It returns
// at once when that record is durable already, however much was appended
// after it.
func (l *Log) FlushThrough(lsn uint64) error { return l.flushTo(nil, lsn+1) }

// FlushSpan is Flush attributing the work to a trace span: the batched sync
// runs inside a "wal.fsync" child span and time spent waiting on another
// flusher's round inside "wal.group_wait".
func (l *Log) FlushSpan(sp *trace.Span) error { return l.flushTo(sp, math.MaxUint64) }

// flushTo makes every record below target durable (target is capped at the
// end of the log).
//
// Group commit: the first flusher to find no round in flight becomes the
// leader; it flushes the buffered records and runs one fsync of the live
// segment with the mutex released, so concurrent committers keep appending
// and enqueueing behind it. Every flusher whose records the round covered is
// satisfied by that single fsync. (A segment roll waits for the round, so
// the live segment cannot change under it.)
func (l *Log) flushTo(sp *trace.Span, target uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.met.flushes.Inc()
	target = min(target, l.nextLSN)
	if l.flushed < target {
		// Counted once per flush request regardless of how many rounds it
		// waits through, so group_commit_txns / group_commits is the true
		// batching factor.
		l.met.groupTxns.Inc()
	}
	for l.flushed < target {
		if l.syncing {
			// Follower: wait out the in-flight round, then re-check. The
			// round's goal was taken before we appended only if our target
			// is still above flushed afterwards, in which case we loop and
			// may lead the next round.
			l.waiters++
			ws := sp.Child("wal.group_wait")
			for l.syncing {
				l.cond.Wait()
			}
			ws.End()
			l.waiters--
			if l.syncErr != nil && l.flushed < target {
				return l.syncErr
			}
			continue
		}
		// Leader: everything appended up to this instant rides this round.
		group := uint64(1 + l.waiters)
		if err := l.w.Flush(); err != nil {
			return fmt.Errorf("wal: flush: %w", err)
		}
		goal := l.nextLSN
		if !l.noSync {
			f := l.f
			l.syncing = true
			l.syncErr = nil
			l.mu.Unlock()
			fs := sp.Child("wal.fsync")
			start := time.Now()
			err := f.Sync()
			fs.End()
			l.mu.Lock()
			l.syncing = false
			if err != nil {
				l.syncErr = fmt.Errorf("wal: sync: %w", err)
				l.cond.Broadcast()
				return l.syncErr
			}
			l.met.fsyncs.Inc()
			l.met.fsyncNs.Observe(time.Since(start))
		}
		l.flushed = goal
		l.met.groupCommit.Inc()
		l.met.groupSize.Set(int64(group))
		l.cond.Broadcast()
		l.notifyDurableLocked()
	}
	return nil
}

// notifyDurableLocked wakes durable-LSN subscribers without blocking; a
// subscriber whose channel is full already has a wakeup pending.
func (l *Log) notifyDurableLocked() {
	for _, ch := range l.durableSubs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// NotifyDurable registers ch to receive a (non-blocking) signal every time
// the durable LSN advances. The returned cancel function unregisters it.
// Subscribers must still poll DurableLSN: signals are wakeups, not values,
// and may be coalesced.
func (l *Log) NotifyDurable(ch chan struct{}) (cancel func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.durableSubs == nil {
		l.durableSubs = make(map[int]chan struct{})
	}
	id := l.nextSub
	l.nextSub++
	l.durableSubs[id] = ch
	return func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		delete(l.durableSubs, id)
	}
}

// DurableLSN returns the LSN below which every record is durable.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// NextLSN returns the LSN the next record will receive.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// OldestLSN returns the first LSN still on disk (the base of the oldest
// retained segment).
func (l *Log) OldestLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].Base
}

// Size returns the bytes of log on disk: the retained segments, from the
// oldest LSN to the end of the log.
func (l *Log) Size() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - l.segs[0].Base
}

// Scan replays records from the given LSN in order, across segments. A
// torn tail of the live segment terminates the scan without error; a
// malformed record anywhere else returns ErrCorrupt, and a start below the
// oldest retained LSN returns ErrRetired. Appends are blocked during the
// scan. A record's Data aliases the scan's read buffer: it is valid only
// until fn returns, and a record fn keeps must be Cloned.
func (l *Log) Scan(from uint64, fn func(lsn uint64, r *Record) error) error {
	return l.scan(from, 0, fn)
}

// ScanType is Scan restricted to records of one type: the others are read
// and checksummed but not decoded. Data is valid only until fn returns, as
// in Scan.
func (l *Log) ScanType(from uint64, typ RecType, fn func(lsn uint64, r *Record) error) error {
	return l.scan(from, typ, fn)
}

func (l *Log) scan(from uint64, only RecType, fn func(lsn uint64, r *Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if oldest := l.segs[0].Base; from < oldest {
		return fmt.Errorf("%w: scan from LSN %d, oldest retained LSN is %d", ErrRetired, from, oldest)
	}
	if from > l.nextLSN {
		return fmt.Errorf("%w: scan from LSN %d past the end of the log at %d", ErrCorrupt, from, l.nextLSN)
	}
	var payload []byte
	for i := l.segmentIndex(from); i < len(l.segs); i++ {
		end, live := l.nextLSN, i == len(l.segs)-1
		if !live {
			end = l.segs[i+1].Base
		}
		if from == end {
			continue
		}
		var err error
		payload, err = scanSegment(l.segs[i], from, end, live, only, payload, fn)
		if err != nil || live {
			return err
		}
		from = end
	}
	return nil
}

// scanSegment reads the records of seg in [from, end) through its own file
// descriptor. A torn or corrupt record ends a live segment's scan quietly
// (it is a tail Open has not seen) and is ErrCorrupt in a sealed one.
func scanSegment(seg Segment, from, end uint64, live bool, only RecType, payload []byte,
	fn func(lsn uint64, r *Record) error) ([]byte, error) {
	f, err := os.Open(seg.Path)
	if err != nil {
		return payload, fmt.Errorf("wal: scan: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(int64(from-seg.Base), io.SeekStart); err != nil {
		return payload, fmt.Errorf("wal: scan: %w", err)
	}
	r := bufio.NewReaderSize(f, 1<<16)
	bad := func(err error) ([]byte, error) {
		if live {
			return payload, tornOK(err)
		}
		if err == nil || tornOK(err) == nil {
			return payload, fmt.Errorf("%w: segment %s at LSN %d", ErrCorrupt, filepath.Base(seg.Path), from)
		}
		return payload, fmt.Errorf("wal: scan: %w", err)
	}
	var hdr [8]byte
	for from < end {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return bad(err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if n == 0 || n > maxPayload || from+8+uint64(n) > end {
			return bad(nil)
		}
		payload = grow(payload, int(n))
		if _, err := io.ReadFull(r, payload); err != nil {
			return bad(err)
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return bad(nil)
		}
		if only == 0 || RecType(payload[0]) == only {
			rec, err := decodeRecord(payload)
			if err != nil {
				return payload, err
			}
			if err := fn(from, rec); err != nil {
				return payload, err
			}
		}
		from += 8 + uint64(n)
	}
	return payload, nil
}

// Close flushes and closes the log. It waits for any in-flight group-commit
// round before touching the file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	if !l.noSync {
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return err
		}
	}
	return l.f.Close()
}

// encodeFields encodes the payload of r up to, not including, a page
// write's Data, which is the payload's last field.
func encodeFields(r *Record) []byte {
	b := make([]byte, 0, 64+len(r.Name)+len(r.Path))
	b = append(b, byte(r.Type))
	b = binary.LittleEndian.AppendUint64(b, r.Txn)
	switch r.Type {
	case RecCommit:
		b = binary.LittleEndian.AppendUint64(b, r.CommitTS)
	case RecPageWrite:
		b = binary.LittleEndian.AppendUint32(b, r.Page.Layer)
		b = binary.LittleEndian.AppendUint32(b, r.Page.Page)
		b = binary.LittleEndian.AppendUint32(b, r.Off)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Data)))
	case RecAllocPage, RecFreePage:
		b = binary.LittleEndian.AppendUint32(b, r.Page.Layer)
		b = binary.LittleEndian.AppendUint32(b, r.Page.Page)
	case RecCreateDoc, RecDropDoc:
		b = binary.LittleEndian.AppendUint32(b, r.DocID)
		b = appendString(b, r.Name)
	case RecAddSchemaNode:
		b = binary.LittleEndian.AppendUint32(b, r.DocID)
		b = binary.LittleEndian.AppendUint32(b, r.ParentID)
		b = binary.LittleEndian.AppendUint32(b, r.NodeID)
		b = append(b, r.Kind)
		b = appendString(b, r.Name)
	case RecSchemaBlocks:
		b = binary.LittleEndian.AppendUint32(b, r.DocID)
		b = binary.LittleEndian.AppendUint32(b, r.NodeID)
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Ptrs[0]))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Ptrs[1]))
	case RecDocMeta:
		b = binary.LittleEndian.AppendUint32(b, r.DocID)
		for _, p := range r.Ptrs {
			b = binary.LittleEndian.AppendUint64(b, uint64(p))
		}
	case RecCreateIndex:
		b = binary.LittleEndian.AppendUint32(b, r.DocID)
		b = appendString(b, r.Name)
		b = appendString(b, r.Path)
	case RecDropIndex:
		b = appendString(b, r.Name)
	case RecIndexMeta:
		b = appendString(b, r.Name)
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Ptrs[0]))
	case RecReplApplied:
		b = binary.LittleEndian.AppendUint64(b, r.RestartLSN)
		b = binary.LittleEndian.AppendUint64(b, r.CommitLSN)
	case RecBulkLoad:
		b = binary.LittleEndian.AppendUint32(b, r.DocID)
		b = appendString(b, r.Name)
		b = binary.LittleEndian.AppendUint64(b, r.Nodes)
		b = binary.LittleEndian.AppendUint64(b, r.Blocks)
		b = binary.LittleEndian.AppendUint64(b, r.Bytes)
	case RecBegin, RecAbort, RecCheckpoint:
		// no payload beyond type+txn
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

type decoder struct {
	b   []byte
	pos int
	err error
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.pos+4 > len(d.b) {
		d.err = ErrCorrupt
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.pos:])
	d.pos += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.pos+8 > len(d.b) {
		d.err = ErrCorrupt
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.pos:])
	d.pos += 8
	return v
}

func (d *decoder) byte1() byte {
	if d.err != nil || d.pos+1 > len(d.b) {
		d.err = ErrCorrupt
		return 0
	}
	v := d.b[d.pos]
	d.pos++
	return v
}

// bytes returns the next n bytes of the payload itself, not a copy.
func (d *decoder) bytes(n int) []byte {
	if d.err != nil || d.pos+n > len(d.b) {
		d.err = ErrCorrupt
		return nil
	}
	v := d.b[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return v
}

func (d *decoder) str() string {
	n := d.u32()
	return string(d.bytes(int(n)))
}

// decodeRecord decodes one payload. A page write's Data aliases payload;
// strings are copied out of it.
func decodeRecord(payload []byte) (*Record, error) {
	if len(payload) < 9 {
		return nil, ErrCorrupt
	}
	d := &decoder{b: payload}
	r := &Record{Type: RecType(d.byte1()), Txn: d.u64()}
	switch r.Type {
	case RecCommit:
		r.CommitTS = d.u64()
	case RecPageWrite:
		r.Page.Layer = d.u32()
		r.Page.Page = d.u32()
		r.Off = d.u32()
		n := d.u32()
		r.Data = d.bytes(int(n))
	case RecAllocPage, RecFreePage:
		r.Page.Layer = d.u32()
		r.Page.Page = d.u32()
	case RecCreateDoc, RecDropDoc:
		r.DocID = d.u32()
		r.Name = d.str()
	case RecAddSchemaNode:
		r.DocID = d.u32()
		r.ParentID = d.u32()
		r.NodeID = d.u32()
		r.Kind = d.byte1()
		r.Name = d.str()
	case RecSchemaBlocks:
		r.DocID = d.u32()
		r.NodeID = d.u32()
		r.Ptrs[0] = sas.XPtr(d.u64())
		r.Ptrs[1] = sas.XPtr(d.u64())
	case RecDocMeta:
		r.DocID = d.u32()
		for i := range r.Ptrs {
			r.Ptrs[i] = sas.XPtr(d.u64())
		}
	case RecCreateIndex:
		r.DocID = d.u32()
		r.Name = d.str()
		r.Path = d.str()
	case RecDropIndex:
		r.Name = d.str()
	case RecIndexMeta:
		r.Name = d.str()
		r.Ptrs[0] = sas.XPtr(d.u64())
	case RecReplApplied:
		r.RestartLSN = d.u64()
		r.CommitLSN = d.u64()
	case RecBulkLoad:
		r.DocID = d.u32()
		r.Name = d.str()
		r.Nodes = d.u64()
		r.Blocks = d.u64()
		r.Bytes = d.u64()
	case RecBegin, RecAbort, RecCheckpoint:
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrCorrupt, r.Type)
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}
