// Package pagefile implements the persistent page store underneath the Sedna
// buffer manager: a data file addressed by (layer, page) identifiers, a
// master page holding checkpoint metadata, page allocation with a free list,
// and the snapshot area that keeps persistent-snapshot copies of pages that
// were overwritten in place since the last checkpoint (§6.4 of the paper:
// recovery first restores the transaction-consistent persistent snapshot,
// then redoes the log).
package pagefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"sedna/internal/metrics"
	"sedna/internal/sas"
)

// Magic identifies a Sedna-Go data file.
const Magic = "SEDNAGO1"

// FormatVersion is bumped on incompatible layout changes.
const FormatVersion = 1

// ErrCorrupt reports a malformed data file.
var ErrCorrupt = errors.New("pagefile: corrupt data file")

// Master is the content of the master page (global page 0). It records the
// state of the page allocator and of the log as of the last checkpoint; all
// fields describe the persistent snapshot, not the live state.
type Master struct {
	NextAlloc     uint64 // global index of the next never-allocated page
	CheckpointLSN uint64 // LSN of the last checkpoint record
	CommitTS      uint64 // commit-timestamp counter as of the checkpoint
	CleanShutdown bool   // set by Close, cleared by the first write
	MetaGen       uint64 // generation number of the valid catalog snapshot
}

// File is the page-addressed data file.
type File struct {
	mu sync.Mutex

	f    *os.File
	path string

	master Master // persistent (checkpoint-time) allocator state

	// Live allocator state, reset to master at recovery.
	nextAlloc uint64
	freeList  []sas.PageID

	noSync bool

	met pfMetrics
}

// pfMetrics binds the pagefile counters in a metrics registry.
type pfMetrics struct {
	reads   *metrics.Counter
	writes  *metrics.Counter
	extends *metrics.Counter // fresh pages handed out past the high-water mark
	frees   *metrics.Counter
	syncs   *metrics.Counter
}

func bindPfMetrics(reg *metrics.Registry) pfMetrics {
	return pfMetrics{
		reads:   reg.Counter("pagefile.reads"),
		writes:  reg.Counter("pagefile.writes"),
		extends: reg.Counter("pagefile.extends"),
		frees:   reg.Counter("pagefile.frees"),
		syncs:   reg.Counter("pagefile.syncs"),
	}
}

// Options configures Open.
type Options struct {
	// NoSync disables fsync. Only for tests and benchmarks that accept
	// losing durability on power failure.
	NoSync bool
	// Metrics is the registry the file reports into under the "pagefile."
	// family (nil = a fresh private registry).
	Metrics *metrics.Registry
}

// MasterPageID is the identity of the master page; it is never handed out by
// Alloc.
var MasterPageID = sas.PageID{Layer: 1, Page: 0}

// Open opens or creates the data file at path.
func Open(path string, opts Options) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagefile: open: %w", err)
	}
	pf := &File{f: f, path: path, noSync: opts.NoSync, met: bindPfMetrics(metrics.OrNew(opts.Metrics))}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pagefile: stat: %w", err)
	}
	if st.Size() == 0 {
		pf.master = Master{NextAlloc: 1} // page 0 is the master page
		pf.nextAlloc = 1
		if err := pf.flushMasterLocked(); err != nil {
			f.Close()
			return nil, err
		}
		return pf, nil
	}
	if err := pf.readMaster(); err != nil {
		f.Close()
		return nil, err
	}
	pf.nextAlloc = pf.master.NextAlloc
	return pf, nil
}

func (pf *File) readMaster() error {
	buf := make([]byte, sas.PageSize)
	if _, err := pf.f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return fmt.Errorf("pagefile: read master: %w", err)
	}
	if string(buf[:8]) != Magic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != FormatVersion {
		return fmt.Errorf("%w: format version %d", ErrCorrupt, v)
	}
	if ps := binary.LittleEndian.Uint32(buf[12:]); ps != sas.PageSize {
		return fmt.Errorf("%w: page size %d (built with %d)", ErrCorrupt, ps, sas.PageSize)
	}
	pf.master.NextAlloc = binary.LittleEndian.Uint64(buf[16:])
	pf.master.CheckpointLSN = binary.LittleEndian.Uint64(buf[24:])
	pf.master.CommitTS = binary.LittleEndian.Uint64(buf[32:])
	pf.master.CleanShutdown = buf[40] == 1
	pf.master.MetaGen = binary.LittleEndian.Uint64(buf[48:])
	return nil
}

func (pf *File) flushMasterLocked() error {
	buf := make([]byte, sas.PageSize)
	copy(buf, Magic)
	binary.LittleEndian.PutUint32(buf[8:], FormatVersion)
	binary.LittleEndian.PutUint32(buf[12:], sas.PageSize)
	binary.LittleEndian.PutUint64(buf[16:], pf.master.NextAlloc)
	binary.LittleEndian.PutUint64(buf[24:], pf.master.CheckpointLSN)
	binary.LittleEndian.PutUint64(buf[32:], pf.master.CommitTS)
	if pf.master.CleanShutdown {
		buf[40] = 1
	}
	binary.LittleEndian.PutUint64(buf[48:], pf.master.MetaGen)
	if _, err := pf.f.WriteAt(buf, 0); err != nil {
		return fmt.Errorf("pagefile: write master: %w", err)
	}
	return pf.syncLocked()
}

func (pf *File) syncLocked() error {
	if pf.noSync {
		return nil
	}
	if err := pf.f.Sync(); err != nil {
		return fmt.Errorf("pagefile: sync: %w", err)
	}
	pf.met.syncs.Inc()
	return nil
}

// Master returns the checkpoint-time metadata.
func (pf *File) Master() Master {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.master
}

// WriteMaster atomically (with respect to this process) updates the master
// page. Called at checkpoint with the new allocator and log positions.
func (pf *File) WriteMaster(m Master) error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	pf.master = m
	return pf.flushMasterLocked()
}

// ReadPage reads the page id into buf, which must be PageSize bytes. Reading
// a page past the end of the file yields zero bytes (pages are materialized
// lazily).
func (pf *File) ReadPage(id sas.PageID, buf []byte) error {
	if len(buf) != sas.PageSize {
		return fmt.Errorf("pagefile: ReadPage buffer is %d bytes", len(buf))
	}
	pf.met.reads.Inc()
	off := int64(id.GlobalIndex()) * sas.PageSize
	n, err := pf.f.ReadAt(buf, off)
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("pagefile: read %v: %w", id, err)
	}
	// Pages are materialized lazily: a read at or past EOF — including a
	// *short* read of a partial page at EOF — yields zeros for the missing
	// tail, exactly as if the file had been extended with zero pages.
	clear(buf[n:])
	return nil
}

// WritePage writes the page id from data (PageSize bytes).
func (pf *File) WritePage(id sas.PageID, data []byte) error {
	if len(data) != sas.PageSize {
		return fmt.Errorf("pagefile: WritePage buffer is %d bytes", len(data))
	}
	pf.met.writes.Inc()
	off := int64(id.GlobalIndex()) * sas.PageSize
	if _, err := pf.f.WriteAt(data, off); err != nil {
		return fmt.Errorf("pagefile: write %v: %w", id, err)
	}
	return nil
}

// Sync flushes the file to stable storage.
func (pf *File) Sync() error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.syncLocked()
}

// Alloc returns a page for use, recycling from the free list when possible.
// fresh reports that the file was extended for it: the page never held
// content. A recycled page's previous content is unspecified.
func (pf *File) Alloc() (id sas.PageID, fresh bool) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if n := len(pf.freeList); n > 0 {
		id := pf.freeList[n-1]
		pf.freeList = pf.freeList[:n-1]
		return id, false
	}
	id = sas.PageIDFromGlobal(pf.nextAlloc)
	pf.nextAlloc++
	pf.met.extends.Inc()
	return id, true
}

// Free returns a page to the allocator. The free list is persisted by the
// engine at checkpoint time (it is part of the catalog metadata), so between
// checkpoints it is purely in-memory; recovery resets it to the checkpoint
// state.
func (pf *File) Free(id sas.PageID) {
	if id == MasterPageID {
		panic("pagefile: freeing the master page")
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	pf.freeList = append(pf.freeList, id)
	pf.met.frees.Inc()
}

// NextAlloc returns the live next-allocation cursor.
func (pf *File) NextAlloc() uint64 {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.nextAlloc
}

// FreeList returns a copy of the live free list.
func (pf *File) FreeList() []sas.PageID {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	out := make([]sas.PageID, len(pf.freeList))
	copy(out, pf.freeList)
	return out
}

// ResetAllocator forces the live allocator state; used by recovery to roll
// the allocator back to the checkpoint state, and by checkpoint loading.
func (pf *File) ResetAllocator(nextAlloc uint64, freeList []sas.PageID) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	pf.nextAlloc = nextAlloc
	pf.freeList = append([]sas.PageID(nil), freeList...)
}

// RedoAlloc replays a logged page allocation during recovery: the page is
// removed from the free list if present, and the next-allocation cursor is
// advanced past it otherwise.
func (pf *File) RedoAlloc(id sas.PageID) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	for i, f := range pf.freeList {
		if f == id {
			pf.freeList = append(pf.freeList[:i], pf.freeList[i+1:]...)
			return
		}
	}
	if g := id.GlobalIndex(); g >= pf.nextAlloc {
		pf.nextAlloc = g + 1
	}
}

// IsFreshSinceCheckpoint reports whether the page did not exist in the
// persistent snapshot; such pages never need a snapshot-area copy before
// being overwritten in place.
func (pf *File) IsFreshSinceCheckpoint(id sas.PageID) bool {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return id.GlobalIndex() >= pf.master.NextAlloc
}

// Size returns the data file size in bytes.
func (pf *File) Size() (int64, error) {
	st, err := pf.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Path returns the file path.
func (pf *File) Path() string { return pf.path }

// Close flushes and closes the file.
func (pf *File) Close() error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if err := pf.syncLocked(); err != nil {
		pf.f.Close()
		return err
	}
	return pf.f.Close()
}
