// Package buffer implements the Sedna buffer manager together with the two
// mechanisms the paper builds on top of it:
//
//   - the layer-mapping dereference of §4.2 / Fig. 4: an address within a
//     layer maps to a virtual-address slot on an equality basis, so a SAS
//     pointer dereference is a slot lookup plus a layer-number check, with a
//     buffer-manager "memory fault" on mismatch — no pointer swizzling;
//
//   - page-level multiversioning of §6.1: the first update to a page inside
//     a transaction moves the committed bytes onto the page's version chain
//     and gives the writer a copy, commit stamps the page with a commit
//     timestamp, and snapshot (read-only) transactions view the newest
//     version not newer than their snapshot timestamp — the live frame when
//     that is it, a chain entry otherwise. A version no active snapshot can
//     reach is freed when the transaction that superseded it commits, or
//     when the last snapshot that needed it ends.
//
// The buffer manager also enforces the interaction with recovery: before a
// page that existed in the persistent snapshot is overwritten in the data
// file, its checkpoint-time content is saved to the snapshot area (§6.4).
//
// # Concurrency
//
// The pool is sharded into power-of-two lock stripes selected by the page
// index (id.Page & mask), so pages sharing a virtual-address slot — same
// page index, any layer — always live in the same stripe and every slot is
// owned by exactly one stripe. Each stripe holds its own frame map, a
// clock-sweep (second-chance) replacement ring, its share of the slot table
// and the versioning maps for its pages. A hot Deref is a stripe read-lock,
// one slot comparison and two atomics (ref bit + pin count); a hot
// ViewSnapshot is the same with three map lookups in place of the slot
// comparison, so readers on distinct stripes never serialize and readers on
// the same stripe share it.
//
// Committed bytes are immutable. A buffer that holds committed content — a
// frame's data while no transaction owns the page, and every version-chain
// entry — is never written again and never reused: PinWrite re-points the
// frame at a fresh copy for the writer instead, so a snapshot reader that
// took the slice a moment earlier keeps reading what it saw, and nobody
// waits. Frame.data is therefore read and re-pointed only under the stripe
// mutex; both view entry points return the slice they read there.
//
// Lock order: at most one stripe mutex is held at a time. While holding a
// stripe mutex the manager may acquire, in this order only: the WAL mutex
// (walFlush during eviction), the transaction-manager mutex (activeSnaps
// during purge), and the pagefile/snap-area mutexes. The txn-pages mutex
// (txnMu) is never held together with a stripe mutex. Per-frame pin counts
// and ref bits are atomics; pins are only *taken* while holding the owning
// stripe's mutex (read or write), and eviction inspects them under the
// write lock, so a pinned frame can never be chosen as a victim. Unpin is
// lock-free.
//
// The readahead workers (prefetch.go) obey the same order: page reads happen
// with no locks held, installs take exactly one stripe mutex, and the
// prefetch eviction sweep never flushes (so it never touches the WAL mutex).
package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sedna/internal/metrics"
	"sedna/internal/pagefile"
	"sedna/internal/sas"
)

// ErrBusy reports that every frame is pinned and none can be evicted, even
// after the bounded pin wait.
var ErrBusy = errors.New("buffer: all frames pinned")

// ErrWriteConflict reports that a transaction tried to update a page that
// carries uncommitted changes of another transaction. Document-granularity
// strict 2PL makes this unreachable in normal operation; it guards the
// invariant.
var ErrWriteConflict = errors.New("buffer: page has uncommitted changes of another transaction")

// maxStripes bounds the stripe fan-out. The count is halved until every
// stripe owns at least minStripeFrames frames: striping partitions the
// pool, so a stripe must stay large enough that one statement's transient
// pins can never exhaust it. Tiny test pools (capacity 2–127) collapse to a
// single stripe and keep exact whole-pool eviction semantics.
const (
	maxStripes      = 16
	minStripeFrames = 64
)

// Bounded wait-and-retry for pin pressure: a load that finds every frame in
// the stripe pinned backs off and retries instead of failing the statement,
// up to pinWaitBudget in total.
const (
	pinWaitBudget  = 50 * time.Millisecond
	pinWaitInitial = 200 * time.Microsecond
	pinWaitMax     = 5 * time.Millisecond
)

// Frame is a main-memory copy of one page.
type Frame struct {
	id   sas.PageID
	data []byte

	// pin is the pin count. It is incremented only while holding the owning
	// stripe's mutex (read or write); eviction reads it under the write
	// lock, which excludes pinning, so pin==0 under the write lock means the
	// frame is evictable. Unpin decrements without any lock.
	pin atomic.Int32

	// ref is the clock-sweep reference bit, set on every touch and cleared
	// by the sweeping hand (second chance).
	ref atomic.Bool

	// clockIdx is the frame's position in its stripe's clock ring,
	// maintained under the stripe mutex for O(1) removal.
	clockIdx int

	// prefetched marks a frame installed by the readahead worker that has
	// not yet been touched by a real access. The first touch CASes it off
	// and counts a prefetch hit; eviction or invalidation while still set
	// counts the read as wasted. Both transitions release the frame's share
	// of the resident-prefetch budget.
	prefetched atomic.Bool
}

// ID returns the identity of the page held by the frame.
func (f *Frame) ID() sas.PageID { return f.id }

// Data returns the page bytes of a pinned frame to the transaction that owns
// the page (after PinWrite or PinNew) or to a caller no writer can run beside.
// Everyone else takes the slice DerefTrack or ViewSnapshot returns: a first
// touch re-points the frame at the writer's copy.
func (f *Frame) Data() []byte { return f.data }

// zeroPage is what a snapshot older than a page's first commit reads. Views
// are read-only, so one page serves every such read.
var zeroPage = make([]byte, sas.PageSize)

// pageVersion is one committed pre-image on a page's version chain.
type pageVersion struct {
	ts   uint64 // commit timestamp of this content
	data []byte
}

type slotEntry struct {
	layer uint32
	frame *Frame
}

// Stats is the legacy flat view of the buffer-manager counters. The counters
// themselves live in the metrics registry (family "buffer.*"); Stats remains
// as a thin compatibility accessor for existing experiment output.
type Stats struct {
	Hits          uint64 // dereferences answered by the mapped slot
	Faults        uint64 // dereferences that missed the slot mapping
	DiskReads     uint64
	DiskWrites    uint64
	Evictions     uint64
	SnapSaves     uint64 // persistent-snapshot copies taken before overwrite
	VersionsMade  uint64 // pre-images pushed
	VersionsFreed uint64 // pre-images purged
	SnapshotReads uint64 // snapshot views served from a version chain
}

// bufMetrics binds the buffer-manager counters in a metrics registry.
type bufMetrics struct {
	hits           *metrics.Counter
	faults         *metrics.Counter
	diskReads      *metrics.Counter
	diskWrites     *metrics.Counter
	evictions      *metrics.Counter
	snapSaves      *metrics.Counter
	versionsMade   *metrics.Counter
	versionsFreed  *metrics.Counter
	snapshotReads  *metrics.Counter
	versionsLive   *metrics.Gauge
	stripeLockWait *metrics.Counter // ns spent blocked on contended stripe mutexes
	clockSweeps    *metrics.Counter // clock-hand advances during eviction scans
	pinWaits       *metrics.Counter // bounded waits entered because all frames were pinned

	prefetchIssued  *metrics.Counter // pages read from disk and installed by the prefetcher
	prefetchHits    *metrics.Counter // prefetched frames later touched by a real access
	prefetchWasted  *metrics.Counter // prefetched frames evicted or invalidated untouched
	prefetchDropped *metrics.Counter // hints discarded (queue full, budget, raced, stale)
}

func bindBufMetrics(reg *metrics.Registry) bufMetrics {
	return bufMetrics{
		hits:           reg.Counter("buffer.hits"),
		faults:         reg.Counter("buffer.faults"),
		diskReads:      reg.Counter("buffer.disk_reads"),
		diskWrites:     reg.Counter("buffer.disk_writes"),
		evictions:      reg.Counter("buffer.evictions"),
		snapSaves:      reg.Counter("buffer.snap_saves"),
		versionsMade:   reg.Counter("buffer.versions_made"),
		versionsFreed:  reg.Counter("buffer.versions_freed"),
		snapshotReads:  reg.Counter("buffer.snapshot_reads"),
		versionsLive:   reg.Gauge("buffer.versions_live"),
		stripeLockWait: reg.Counter("buffer.stripe_lock_wait_ns"),
		clockSweeps:    reg.Counter("buffer.clock_sweeps"),
		pinWaits:       reg.Counter("buffer.pin_waits"),

		prefetchIssued:  reg.Counter("buffer.prefetch_issued"),
		prefetchHits:    reg.Counter("buffer.prefetch_hits"),
		prefetchWasted:  reg.Counter("buffer.prefetch_wasted"),
		prefetchDropped: reg.Counter("buffer.prefetch_dropped"),
	}
}

// stripe is one lock shard of the pool: the frames, clock ring, slot-table
// share and versioning state for every page whose index hashes here.
type stripe struct {
	mu sync.RWMutex

	capacity int
	frames   map[sas.PageID]*Frame
	clock    []*Frame // clock-sweep ring; positions tracked in Frame.clockIdx
	hand     int

	// slots is this stripe's share of the emulated process virtual address
	// range: slots[pageIndex>>stripeShift] records which layer's page is
	// currently mapped at that address. Equality-basis mapping means a
	// pointer's page index IS its slot index.
	slots []slotEntry

	// Versioning state. It is keyed by page identity, not by frame, so it
	// survives eviction.
	pageTS  map[sas.PageID]uint64        // commit TS of the live content
	dirtyBy map[sas.PageID]uint64        // txn holding uncommitted changes
	dirty   map[sas.PageID]bool          // live content differs from disk
	chains  map[sas.PageID][]pageVersion // newest first
}

// Manager is the buffer manager.
type Manager struct {
	pf   *pagefile.File
	snap *pagefile.SnapArea

	capacity    int
	stripes     []*stripe
	stripeMask  uint32
	stripeShift uint

	// txnPages maps a transaction to the set of pages it dirtied, across all
	// stripes. Guarded by txnMu, which is never held together with a stripe
	// mutex.
	txnMu    sync.Mutex
	txnPages map[uint64]map[sas.PageID]struct{}

	walFlush    func() error    // flush the WAL; called before any page write (WAL rule)
	activeSnaps func() []uint64 // timestamps of active snapshots, for purge

	// pref is the async readahead machinery (prefetch.go): a bounded worker
	// pool that loads hinted pages into unpinned frames ahead of the scan.
	pref prefetcher

	reg *metrics.Registry
	met bufMetrics
}

// New creates a buffer manager over the data file and snapshot area with
// room for capacity frames, reporting into a private metrics registry.
func New(pf *pagefile.File, snap *pagefile.SnapArea, capacity int) *Manager {
	return NewWithMetrics(pf, snap, capacity, nil)
}

// NewWithMetrics creates a buffer manager that reports its counters into reg
// under the "buffer." family (nil = a fresh private registry).
func NewWithMetrics(pf *pagefile.File, snap *pagefile.SnapArea, capacity int, reg *metrics.Registry) *Manager {
	if capacity < 2 {
		capacity = 2
	}
	reg = metrics.OrNew(reg)
	n := maxStripes
	for n > 1 && capacity/n < minStripeFrames {
		n /= 2
	}
	shift := uint(0)
	for 1<<shift < n {
		shift++
	}
	m := &Manager{
		reg:         reg,
		met:         bindBufMetrics(reg),
		pf:          pf,
		snap:        snap,
		capacity:    capacity,
		stripes:     make([]*stripe, n),
		stripeMask:  uint32(n - 1),
		stripeShift: shift,
		txnPages:    make(map[uint64]map[sas.PageID]struct{}),
	}
	m.pref.init(capacity)
	slotsPer := (sas.PagesPerLayer + n - 1) / n
	base, extra := capacity/n, capacity%n
	for i := range m.stripes {
		cap := base
		if i < extra {
			cap++
		}
		m.stripes[i] = &stripe{
			capacity: cap,
			frames:   make(map[sas.PageID]*Frame),
			slots:    make([]slotEntry, slotsPer),
			pageTS:   make(map[sas.PageID]uint64),
			dirtyBy:  make(map[sas.PageID]uint64),
			dirty:    make(map[sas.PageID]bool),
			chains:   make(map[sas.PageID][]pageVersion),
		}
	}
	return m
}

func (m *Manager) stripeFor(page uint32) *stripe {
	return m.stripes[page&m.stripeMask]
}

// lock acquires the stripe write lock, accounting contention into
// buffer.stripe_lock_wait_ns. The TryLock fast path keeps the uncontended
// case free of clock reads.
func (s *stripe) lock(m *Manager) {
	if s.mu.TryLock() {
		return
	}
	start := time.Now()
	s.mu.Lock()
	m.met.stripeLockWait.Add(uint64(time.Since(start)))
}

// rlock acquires the stripe read lock, accounting contention like lock.
func (s *stripe) rlock(m *Manager) {
	if s.mu.TryRLock() {
		return
	}
	start := time.Now()
	s.mu.RLock()
	m.met.stripeLockWait.Add(uint64(time.Since(start)))
}

// SetWALFlush installs the hook that flushes the write-ahead log; it is
// invoked before any dirty page reaches the data file.
func (m *Manager) SetWALFlush(fn func() error) { m.walFlush = fn }

// SetActiveSnapshots installs the provider of active snapshot timestamps
// used by version purging.
func (m *Manager) SetActiveSnapshots(fn func() []uint64) { m.activeSnaps = fn }

// Stats returns a flat copy of the event counters — the compatibility
// accessor over the metrics registry for pre-registry consumers.
func (m *Manager) Stats() Stats {
	return Stats{
		Hits:          m.met.hits.Value(),
		Faults:        m.met.faults.Value(),
		DiskReads:     m.met.diskReads.Value(),
		DiskWrites:    m.met.diskWrites.Value(),
		Evictions:     m.met.evictions.Value(),
		SnapSaves:     m.met.snapSaves.Value(),
		VersionsMade:  m.met.versionsMade.Value(),
		VersionsFreed: m.met.versionsFreed.Value(),
		SnapshotReads: m.met.snapshotReads.Value(),
	}
}

// Metrics returns the registry this manager reports into.
func (m *Manager) Metrics() *metrics.Registry { return m.reg }

// Capacity returns the frame-pool capacity.
func (m *Manager) Capacity() int { return m.capacity }

// Stripes returns the lock-stripe count (for tests and experiments).
func (m *Manager) Stripes() int { return len(m.stripes) }

// withPinRetry runs attempt, and on ErrBusy backs off and retries within
// pinWaitBudget so transient pin pressure does not fail statements. attempt
// must not hold any lock when it returns.
func (m *Manager) withPinRetry(attempt func() (*Frame, error)) (*Frame, error) {
	f, err := attempt()
	if !errors.Is(err, ErrBusy) {
		return f, err
	}
	m.met.pinWaits.Inc()
	deadline := time.Now().Add(pinWaitBudget)
	backoff := pinWaitInitial
	for {
		time.Sleep(backoff)
		f, err = attempt()
		if !errors.Is(err, ErrBusy) || time.Now().After(deadline) {
			return f, err
		}
		if backoff < pinWaitMax {
			backoff *= 2
		}
	}
}

// Deref resolves a SAS pointer to its page frame through the layer-mapping
// fast path: the pointer's page index selects the slot; if the resident
// layer matches the pointer's layer the dereference costs one comparison
// (the paper's "comparable to a conventional pointer"). A mismatch is the
// emulated memory fault handled by loading the page. The frame is returned
// pinned; the caller must Unpin it.
func (m *Manager) Deref(p sas.XPtr) (*Frame, error) {
	_, f, _, err := m.DerefTrack(p)
	return f, err
}

// DerefTrack is Deref additionally returning the page bytes, read under the
// stripe lock that pinned the frame, and whether the page was read from disk
// for this call, so callers can attribute loads to the active trace span.
// buffer.faults counts what the paper calls a memory fault — the slot did not
// map the pointer's layer — whether or not the page was resident elsewhere.
func (m *Manager) DerefTrack(p sas.XPtr) (data []byte, f *Frame, loaded bool, err error) {
	if p.IsNil() {
		return nil, nil, false, errors.New("buffer: dereference of nil XPtr")
	}
	page := p.PageIndex()
	s := m.stripeFor(page)
	slot := int(page >> m.stripeShift)
	layer := p.Layer()

	// Fast path: the slot maps this layer. A read lock suffices — pinning
	// is an atomic increment and eviction needs the write lock.
	s.rlock(m)
	if e := &s.slots[slot]; e.frame != nil && e.layer == layer {
		f := e.frame
		f.ref.Store(true)
		f.pin.Add(1)
		data = f.data
		s.mu.RUnlock()
		m.met.hits.Inc()
		m.notePrefetchTouch(f)
		return data, f, false, nil
	}
	s.mu.RUnlock()

	// Memory fault: load the page and remap the slot.
	m.met.faults.Inc()
	f, err = m.withPinRetry(func() (*Frame, error) {
		s.lock(m)
		defer s.mu.Unlock()
		if e := &s.slots[slot]; e.frame != nil && e.layer == layer {
			// Another goroutine mapped it between our locks.
			f := e.frame
			f.ref.Store(true)
			f.pin.Add(1)
			data = f.data
			return f, nil
		}
		f, read, err := s.load(m, sas.PageIDOf(p))
		if err != nil {
			return nil, err
		}
		s.slots[slot] = slotEntry{layer: layer, frame: f}
		f.pin.Add(1)
		data, loaded = f.data, read
		return f, nil
	})
	return data, f, loaded, err
}

// ViewSnapshot returns the content of the page as of snapshot timestamp
// snapTS: the read path of read-only transactions. When the live version is
// the visible one its frame is pinned (loading the page if need be) and its
// bytes returned, at the cost of a Deref; the caller must Unpin it. loaded
// reports that this call read the page from disk. Otherwise the visible
// version-chain entry is returned, or a page of zeros when the page did not
// exist at the snapshot, and pin is nil: nothing can recycle those bytes
// under a reader. The hot path runs entirely under the stripe read lock and
// no path waits for a writer — the paper's "read-only transactions are never
// blocked" (§6.3). The live test is safe without further synchronisation: a
// writer sets dirtyBy under the write lock before its first mutation, and by
// then the frame holds the writer's own copy.
func (m *Manager) ViewSnapshot(id sas.PageID, snapTS uint64) (page []byte, pin *Frame, loaded bool, err error) {
	s := m.stripeFor(id.Page)
	s.rlock(m)
	if !s.liveVisible(id, snapTS) {
		page = s.versionAt(id, snapTS)
		s.mu.RUnlock()
		m.met.snapshotReads.Inc()
		return page, nil, false, nil
	}
	if f := s.frames[id]; f != nil {
		f.ref.Store(true)
		f.pin.Add(1)
		page = f.data
		s.mu.RUnlock()
		m.met.hits.Inc()
		m.notePrefetchTouch(f)
		return page, f, false, nil
	}
	s.mu.RUnlock()

	pin, err = m.withPinRetry(func() (*Frame, error) {
		s.lock(m)
		defer s.mu.Unlock()
		if !s.liveVisible(id, snapTS) {
			// A writer took the page between our locks.
			page = s.versionAt(id, snapTS)
			return nil, nil
		}
		f, read, err := s.load(m, id)
		if err != nil {
			return nil, err
		}
		if read {
			// Map the slot as a Deref fault does: an updater's first
			// dereference of a page a reader loaded is a hit.
			s.slots[int(id.Page)>>m.stripeShift] = slotEntry{layer: id.Layer, frame: f}
		}
		f.pin.Add(1)
		page, loaded = f.data, read
		return f, nil
	})
	switch {
	case err != nil:
	case pin == nil:
		m.met.snapshotReads.Inc()
	case loaded:
		m.met.faults.Inc()
	default:
		// Another reader loaded it between our locks.
		m.met.hits.Inc()
	}
	return page, pin, loaded, err
}

// liveVisible reports whether the live content of the page is what a
// snapshot at snapTS reads. The caller holds the stripe mutex.
func (s *stripe) liveVisible(id sas.PageID, snapTS uint64) bool {
	return s.dirtyBy[id] == 0 && s.pageTS[id] <= snapTS
}

// versionAt returns the newest chain entry of the page not newer than
// snapTS, or the zero page when the page did not exist then. The caller
// holds the stripe mutex.
func (s *stripe) versionAt(id sas.PageID, snapTS uint64) []byte {
	for _, v := range s.chains[id] {
		if v.ts <= snapTS {
			return v.data
		}
	}
	return zeroPage
}

// Discard drops the page's frame if it is resident, unpinned and clean: a
// reader passing over a whole document once hands back what it loaded,
// so the pass leaves the pool as it found it.
func (m *Manager) Discard(id sas.PageID) {
	s := m.stripeFor(id.Page)
	s.lock(m)
	if f := s.frames[id]; f != nil && f.pin.Load() == 0 && !s.dirty[id] {
		s.drop(m, f)
		m.met.evictions.Inc()
	}
	s.mu.Unlock()
}

// Pin loads (if necessary) and pins the page. Unlike Deref it does not go
// through or update the layer mapping.
func (m *Manager) Pin(id sas.PageID) (*Frame, error) {
	s := m.stripeFor(id.Page)
	s.rlock(m)
	if f := s.frames[id]; f != nil {
		f.ref.Store(true)
		f.pin.Add(1)
		s.mu.RUnlock()
		m.notePrefetchTouch(f)
		return f, nil
	}
	s.mu.RUnlock()
	return m.withPinRetry(func() (*Frame, error) {
		s.lock(m)
		defer s.mu.Unlock()
		f, _, err := s.load(m, id)
		if err != nil {
			return nil, err
		}
		f.pin.Add(1)
		return f, nil
	})
}

// Unpin releases a pin taken by Pin, Deref, PinWrite or PinNew. It is
// lock-free.
func (m *Manager) Unpin(f *Frame) {
	if f.pin.Add(-1) < 0 {
		panic("buffer: Unpin of unpinned frame")
	}
}

// PinWrite prepares the page for modification by txn: on the first touch the
// frame's committed bytes become the top of the version chain (the pre-image
// for rollback and for snapshot readers, who may be reading them right now),
// the frame gets a copy for the writer, and the page joins the transaction's
// dirty set. The frame is returned pinned.
func (m *Manager) PinWrite(id sas.PageID, txn uint64) (*Frame, error) {
	if txn == 0 {
		panic("buffer: PinWrite with zero txn id")
	}
	s := m.stripeFor(id.Page)
	f, err := m.withPinRetry(func() (*Frame, error) {
		s.lock(m)
		defer s.mu.Unlock()
		if owner := s.dirtyBy[id]; owner != 0 && owner != txn {
			return nil, fmt.Errorf("%w: page %v owned by txn %d", ErrWriteConflict, id, owner)
		}
		f, _, err := s.load(m, id)
		if err != nil {
			return nil, err
		}
		if s.dirtyBy[id] != txn {
			pre := f.data
			f.data = make([]byte, sas.PageSize)
			copy(f.data, pre)
			s.chains[id] = append([]pageVersion{{ts: s.pageTS[id], data: pre}}, s.chains[id]...)
			m.met.versionsMade.Inc()
			m.met.versionsLive.Inc()
			s.dirtyBy[id] = txn
		}
		s.dirty[id] = true
		f.pin.Add(1)
		return f, nil
	})
	if err != nil {
		return nil, err
	}
	m.txnMu.Lock()
	tp := m.txnPages[txn]
	if tp == nil {
		tp = make(map[sas.PageID]struct{})
		m.txnPages[txn] = tp
	}
	tp[id] = struct{}{}
	m.txnMu.Unlock()
	return f, nil
}

// PinNew prepares a newly allocated page for txn: it behaves like PinWrite
// (so that recycled pages keep a pre-image for snapshot readers and for
// rollback) and zeroes the content. The frame is returned pinned.
func (m *Manager) PinNew(id sas.PageID, txn uint64) (*Frame, error) {
	f, err := m.PinWrite(id, txn)
	if err != nil {
		return nil, err
	}
	data := f.Data()
	for i := range data {
		data[i] = 0
	}
	return f, nil
}

// load returns the frame for id and whether it had to read the page from
// disk to get it. The caller holds the stripe write lock.
func (s *stripe) load(m *Manager, id sas.PageID) (f *Frame, read bool, err error) {
	if f := s.frames[id]; f != nil {
		f.ref.Store(true)
		m.notePrefetchTouch(f)
		return f, false, nil
	}
	for len(s.frames) >= s.capacity {
		if err := s.evictOne(m); err != nil {
			return nil, false, err
		}
	}
	f = &Frame{id: id, data: make([]byte, sas.PageSize)}
	f.clockIdx = len(s.clock)
	s.clock = append(s.clock, f)
	s.frames[id] = f
	if err := m.pf.ReadPage(id, f.data); err != nil {
		s.drop(m, f)
		return nil, false, err
	}
	m.met.diskReads.Inc()
	f.ref.Store(true)
	return f, true, nil
}

// drop removes the frame from the stripe's clock ring, frame map and slot
// share. The caller holds the stripe write lock.
func (s *stripe) drop(m *Manager, f *Frame) {
	if f.prefetched.CompareAndSwap(true, false) {
		m.met.prefetchWasted.Inc()
		m.pref.resident.Add(-1)
	}
	last := len(s.clock) - 1
	i := f.clockIdx
	s.clock[i] = s.clock[last]
	s.clock[i].clockIdx = i
	s.clock = s.clock[:last]
	if s.hand > last {
		s.hand = 0
	}
	delete(s.frames, f.id)
	if e := &s.slots[int(f.id.Page)>>m.stripeShift]; e.frame == f {
		*e = slotEntry{}
	}
}

// evictOne runs the clock hand until a victim with a clear reference bit
// and no pins is found, writes it back if dirty, and drops it. Two full
// sweeps (clear refs, then reap) suffice; if they do not, every frame is
// pinned. The caller holds the stripe write lock.
func (s *stripe) evictOne(m *Manager) error {
	for i := 0; i < 2*len(s.clock)+1; i++ {
		if s.hand >= len(s.clock) {
			s.hand = 0
		}
		f := s.clock[s.hand]
		s.hand++
		m.met.clockSweeps.Inc()
		if f.pin.Load() > 0 {
			continue
		}
		if f.ref.Swap(false) {
			continue // second chance
		}
		if s.dirty[f.id] {
			if err := s.flushFrame(m, f); err != nil {
				return err
			}
		}
		s.drop(m, f)
		m.met.evictions.Inc()
		return nil
	}
	return ErrBusy
}

// flushFrame writes the frame to the data file, observing the WAL rule and
// the persistent-snapshot save-before-overwrite rule. The caller holds the
// stripe write lock; the WAL, snap-area and pagefile guard themselves, so
// flushes from different stripes proceed concurrently.
func (s *stripe) flushFrame(m *Manager, f *Frame) error {
	if m.walFlush != nil {
		if err := m.walFlush(); err != nil {
			return err
		}
	}
	if m.snap != nil && !m.pf.IsFreshSinceCheckpoint(f.id) && !m.snap.Saved(f.id) {
		// The checkpoint-time content is the current on-disk content: this
		// is the first overwrite since the checkpoint.
		old := make([]byte, sas.PageSize)
		if err := m.pf.ReadPage(f.id, old); err != nil {
			return err
		}
		if err := m.snap.Save(f.id, old); err != nil {
			return err
		}
		m.met.snapSaves.Inc()
	}
	if err := m.pf.WritePage(f.id, f.data); err != nil {
		return err
	}
	m.met.diskWrites.Inc()
	delete(s.dirty, f.id)
	return nil
}

// CommitTxn makes txn's pages committed at commit timestamp cts and frees
// every version of them that no active snapshot can read — with no reader
// around, the pre-images the transaction itself pushed.
func (m *Manager) CommitTxn(txn, cts uint64) {
	m.txnMu.Lock()
	pages := m.txnPages[txn]
	delete(m.txnPages, txn)
	m.txnMu.Unlock()
	// One list serves every page: the transaction manager lets no snapshot
	// begin while a commit stamps its pages, the next one reads at cts, and
	// every version purged here ends before cts. A snapshot that ends while
	// the loop runs is still in the list; what it alone could read is kept
	// until the next read-only transaction ends (PurgeAllVersions).
	snaps := m.snapshots()
	for id := range pages {
		s := m.stripeFor(id.Page)
		s.lock(m)
		delete(s.dirtyBy, id)
		s.pageTS[id] = cts
		s.purgeChain(m, id, snaps)
		s.mu.Unlock()
	}
}

// snapshots returns the timestamps of the active snapshots.
func (m *Manager) snapshots() []uint64 {
	if m.activeSnaps == nil {
		return nil
	}
	return m.activeSnaps()
}

// RollbackTxn restores the pre-images of every page txn dirtied and discards
// the transaction's versions.
func (m *Manager) RollbackTxn(txn uint64) error {
	m.txnMu.Lock()
	pages := m.txnPages[txn]
	delete(m.txnPages, txn)
	m.txnMu.Unlock()
	for id := range pages {
		s := m.stripeFor(id.Page)
		s.lock(m)
		if err := s.rollbackPage(m, id); err != nil {
			s.mu.Unlock()
			return err
		}
		s.mu.Unlock()
	}
	return nil
}

// rollbackPage undoes txn's changes to one page. The caller holds the
// stripe write lock.
func (s *stripe) rollbackPage(m *Manager, id sas.PageID) error {
	chain := s.chains[id]
	if len(chain) > 0 && chain[0].ts == s.pageTS[id] {
		// The chain top is the pre-image pushed by this transaction's
		// first touch: copy it back into the writer's buffer and pop it.
		// The entry itself is never made the live buffer again — readers
		// may still hold it.
		f, _, err := s.load(m, id)
		if err != nil {
			return err
		}
		copy(f.data, chain[0].data)
		if len(chain) == 1 {
			delete(s.chains, id)
		} else {
			s.chains[id] = chain[1:]
		}
		m.met.versionsFreed.Inc()
		m.met.versionsLive.Dec()
		s.dirty[id] = true // disk may hold the discarded bytes
	} else {
		// No pre-image on the chain. Every first touch pushes one (PinNew
		// included), so this is a transaction that outlived DropVersions;
		// there is nothing to restore and no snapshot left to read the page.
		if f := s.frames[id]; f != nil {
			for i := range f.data {
				f.data[i] = 0
			}
		}
		s.dirty[id] = true
	}
	delete(s.dirtyBy, id)
	return nil
}

// prefetchEligibility captures, per page, whether a disk read made now may
// later be installed (not resident — which with the dirty ⟹ resident
// invariant also means the disk copy is current) and the page's commit
// timestamp at capture time. An install is refused unless the timestamp is
// still unchanged, so bytes that a concurrent commit (or a flush racing the
// pread) could have made stale never reach the pool.
func (m *Manager) prefetchEligibility(ids []sas.PageID) ([]bool, []uint64) {
	elig := make([]bool, len(ids))
	ts0 := make([]uint64, len(ids))
	for i, id := range ids {
		s := m.stripeFor(id.Page)
		s.rlock(m)
		elig[i] = s.frames[id] == nil && s.dirtyBy[id] == 0
		ts0[i] = s.pageTS[id]
		s.mu.RUnlock()
	}
	return elig, ts0
}

// purgeChain drops the versions of a committed page that none of the
// snapshots in snaps can read. A version with timestamp v.ts is the visible
// one for snapshot sn iff v.ts <= sn and sn is below the timestamp of the
// next newer content. The caller holds the stripe write lock.
func (s *stripe) purgeChain(m *Manager, id sas.PageID, snaps []uint64) {
	chain := s.chains[id]
	if len(chain) == 0 {
		return
	}
	nextTS := s.pageTS[id] // timestamp of the next newer content (live)
	kept := chain[:0]
	for _, v := range chain {
		needed := false
		for _, sn := range snaps {
			if v.ts <= sn && sn < nextTS {
				needed = true
				break
			}
		}
		if needed {
			kept = append(kept, v)
		} else {
			m.met.versionsFreed.Inc()
			m.met.versionsLive.Dec()
		}
		nextTS = v.ts
	}
	if len(kept) == 0 {
		delete(s.chains, id)
	} else {
		s.chains[id] = kept
	}
}

// PurgeAllVersions runs the purge rule over every chain; the transaction
// manager calls it when a snapshot ends. With no version alive — the common
// case, since commit frees what nobody can read — it takes no lock at all.
// Stripes are processed one at a time, so concurrent readers on other
// stripes are unaffected.
func (m *Manager) PurgeAllVersions() {
	if m.met.versionsLive.Value() == 0 {
		return
	}
	for _, s := range m.stripes {
		s.lock(m)
		if len(s.chains) > 0 {
			// Fetched under the stripe lock: a snapshot that begins after
			// this reads every committed page of the stripe live, one that
			// began before is in the list. A list fetched earlier would miss
			// a reader whose version a commit has pushed since.
			snaps := m.snapshots()
			for id := range s.chains {
				// An uncommitted pre-image on top: the owner's commit or
				// rollback deals with the chain.
				if s.dirtyBy[id] == 0 {
					s.purgeChain(m, id, snaps)
				}
			}
		}
		s.mu.Unlock()
	}
}

// VersionCount returns the total number of retained pre-images (for tests
// and the E12 experiment).
func (m *Manager) VersionCount() int {
	n := 0
	for _, s := range m.stripes {
		s.rlock(m)
		for _, c := range s.chains {
			n += len(c)
		}
		s.mu.RUnlock()
	}
	return n
}

// FlushCommitted writes every committed dirty page to the data file (with
// snapshot-area saves) and syncs. Uncommitted pages are skipped. The engine
// must quiesce writers first.
func (m *Manager) FlushCommitted() error {
	for _, s := range m.stripes {
		s.lock(m)
		var ids []sas.PageID
		for id := range s.dirty {
			if s.dirtyBy[id] == 0 {
				ids = append(ids, id)
			}
		}
		for _, id := range ids {
			f, _, err := s.load(m, id)
			if err != nil {
				s.mu.Unlock()
				return err
			}
			if err := s.flushFrame(m, f); err != nil {
				s.mu.Unlock()
				return err
			}
		}
		s.mu.Unlock()
	}
	return m.pf.Sync()
}

// DropVersions discards every version chain and commit-timestamp record.
// Used after recovery and at shutdown, when no snapshots exist.
func (m *Manager) DropVersions() {
	for _, s := range m.stripes {
		s.lock(m)
		s.chains = make(map[sas.PageID][]pageVersion)
		s.pageTS = make(map[sas.PageID]uint64)
		s.mu.Unlock()
	}
	m.met.versionsLive.Set(0)
}

// InvalidateAll drops every frame and mapping without writing anything.
// Used by recovery before re-reading the restored data file, and by hot
// backup tests. Panics if any frame is pinned.
func (m *Manager) InvalidateAll() {
	// Fence the prefetch workers first: any install that locks its stripe
	// after this bump sees a stale generation and refuses, so no prefetched
	// page can reappear behind the invalidation.
	m.pref.gen.Add(1)
	for _, s := range m.stripes {
		s.lock(m)
		for _, f := range s.frames {
			if f.pin.Load() > 0 {
				s.mu.Unlock()
				panic("buffer: InvalidateAll with pinned frames")
			}
			if f.prefetched.Load() {
				m.met.prefetchWasted.Inc()
			}
		}
		s.frames = make(map[sas.PageID]*Frame)
		s.clock = nil
		s.hand = 0
		s.slots = make([]slotEntry, len(s.slots))
		s.dirty = make(map[sas.PageID]bool)
		s.dirtyBy = make(map[sas.PageID]uint64)
		s.chains = make(map[sas.PageID][]pageVersion)
		s.pageTS = make(map[sas.PageID]uint64)
		s.mu.Unlock()
	}
	m.txnMu.Lock()
	m.txnPages = make(map[uint64]map[sas.PageID]struct{})
	m.txnMu.Unlock()
	m.met.versionsLive.Set(0)
	m.pref.resident.Store(0)
}

// FrameCount returns the number of pages resident in the pool.
func (m *Manager) FrameCount() int {
	n := 0
	for _, s := range m.stripes {
		s.rlock(m)
		n += len(s.frames)
		s.mu.RUnlock()
	}
	return n
}

// DirtyCount returns the number of pages whose live content differs from
// disk.
func (m *Manager) DirtyCount() int {
	n := 0
	for _, s := range m.stripes {
		s.rlock(m)
		n += len(s.dirty)
		s.mu.RUnlock()
	}
	return n
}
