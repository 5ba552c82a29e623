package buffer

import (
	"sync"
	"sync/atomic"

	"sedna/internal/sas"
)

// Readahead for block-list scans. Per-schema block lists are explicit
// nextBlock chains, so a scan's future page accesses are known in advance;
// the prefetcher overlaps those reads with the scan's compute. Hints are
// fire-and-forget: the enqueue path never blocks and never does I/O, the
// workers never pin frames, and an install that would require flushing a
// dirty frame or evicting a pinned one is simply dropped. Adjacent pages
// across one worker batch coalesce into single preads via
// pagefile.ReadPages.
//
// Lock discipline: workers read pages with no locks held, then install under
// one stripe write lock, which may cascade into the clean-eviction sweep —
// the same stripe→pagefile order as every other load. The resident budget
// (a fraction of pool capacity, see prefetchBudget) bounds how much of the
// pool untouched prefetched frames may occupy, so readahead can degrade only
// itself, never the hot set.
const (
	prefetchWorkers   = 2
	prefetchQueueSize = 256
	prefetchBatchMax  = 16

	// prefetchPeekBytes is how much of a resident frame a worker copies when
	// peeking a chain link. Chain decoders contractually read only the block
	// header (all next-pointer fields live in the first few dozen bytes), so
	// peeks avoid whole-page memcpys while skipping resident prefixes.
	prefetchPeekBytes = 128

	// prefetchBudgetDiv sets the resident budget to capacity/8 (with a small
	// floor so tiny test pools still exercise the machinery). Frames whose
	// prefetched bit is still set count against it; a real touch or an
	// eviction releases the share.
	prefetchBudgetDiv   = 8
	prefetchBudgetFloor = 4
)

// prefetchReq is one queued hint: load id, and if depth > 1 decode the next
// chain link from its bytes via next and follow it.
type prefetchReq struct {
	id    sas.PageID
	depth int
	next  func(page []byte) (sas.PageID, bool)
	gen   uint64
}

// prefetcher is the Manager's readahead state. Workers start lazily on the
// first hint and stop via StopPrefetch.
type prefetcher struct {
	queue chan prefetchReq
	done  chan struct{}
	wg    sync.WaitGroup

	start   sync.Once
	stopped atomic.Bool
	started atomic.Bool

	// inflight dedupes ids currently queued or being loaded.
	mu       sync.Mutex
	inflight map[sas.PageID]struct{}

	// resident counts frames whose prefetched bit is set; budget caps it.
	resident atomic.Int64
	budget   int

	// gen is bumped by InvalidateAll; installs carrying an older generation
	// are refused.
	gen atomic.Uint64
}

func (p *prefetcher) init(capacity int) {
	p.queue = make(chan prefetchReq, prefetchQueueSize)
	p.done = make(chan struct{})
	p.inflight = make(map[sas.PageID]struct{})
	p.budget = capacity / prefetchBudgetDiv
	if p.budget < prefetchBudgetFloor {
		p.budget = prefetchBudgetFloor
	}
}

func (p *prefetcher) forget(id sas.PageID) {
	p.mu.Lock()
	delete(p.inflight, id)
	p.mu.Unlock()
}

// notePrefetchTouch records a real access to a frame: if the frame was
// installed by the prefetcher and not yet used, this is the prefetch paying
// off. Lock-free; called from the Deref/Pin/load/ViewSnapshot hot paths.
func (m *Manager) notePrefetchTouch(f *Frame) {
	if f.prefetched.CompareAndSwap(true, false) {
		m.met.prefetchHits.Inc()
		m.pref.resident.Add(-1)
	}
}

// PrefetchBudget returns the cap on resident untouched prefetched frames.
func (m *Manager) PrefetchBudget() int { return m.pref.budget }

// PrefetchResident returns the number of resident prefetched frames that no
// real access has touched yet. Always ≤ PrefetchBudget plus transient
// in-flight installs of one worker batch.
func (m *Manager) PrefetchResident() int { return int(m.pref.resident.Load()) }

// Prefetch hints that the pages in ids are about to be read. Cold pages are
// loaded into unpinned frames by background workers; the call itself never
// blocks and never performs I/O.
func (m *Manager) Prefetch(ids []sas.PageID) {
	for _, id := range ids {
		m.prefetchEnqueue(id, 1, nil)
	}
}

// PrefetchChain hints that a scan is about to walk the block chain starting
// at id, up to depth pages. next decodes the successor page from raw page
// bytes (the buffer manager is layout-agnostic; storage supplies the
// decoder); it must depend only on the first prefetchPeekBytes bytes of the
// page, which holds for every block-header layout. Workers follow the chain asynchronously: each loaded page yields
// the next hint, so cold chains are discovered ahead of the scan without the
// scan ever faulting synchronously for the peek.
func (m *Manager) PrefetchChain(id sas.PageID, depth int, next func(page []byte) (sas.PageID, bool)) {
	m.prefetchEnqueue(id, depth, next)
}

func (m *Manager) prefetchEnqueue(id sas.PageID, depth int, next func([]byte) (sas.PageID, bool)) {
	p := &m.pref
	if depth <= 0 || p.stopped.Load() {
		return
	}
	p.start.Do(m.startPrefetchWorkers)
	p.mu.Lock()
	if _, busy := p.inflight[id]; busy {
		p.mu.Unlock()
		return
	}
	p.inflight[id] = struct{}{}
	p.mu.Unlock()
	select {
	case p.queue <- prefetchReq{id: id, depth: depth, next: next, gen: p.gen.Load()}:
	default:
		m.met.prefetchDropped.Inc()
		p.forget(id)
	}
}

func (m *Manager) startPrefetchWorkers() {
	p := &m.pref
	if p.stopped.Load() {
		return
	}
	p.started.Store(true)
	p.wg.Add(prefetchWorkers)
	for i := 0; i < prefetchWorkers; i++ {
		go m.prefetchWorker()
	}
}

// StopPrefetch shuts the readahead workers down and waits for them; safe to
// call whether or not they ever started. Hints arriving afterwards are
// ignored. The engine calls it before closing the data file.
func (m *Manager) StopPrefetch() {
	p := &m.pref
	p.stopped.Store(true)
	// Resolve the start slot: after this Do returns, either the workers are
	// fully started or they never will be.
	p.start.Do(func() {})
	if p.started.CompareAndSwap(true, false) {
		close(p.done)
		p.wg.Wait()
	}
}

func (m *Manager) prefetchWorker() {
	p := &m.pref
	defer p.wg.Done()
	scratch := make([]byte, prefetchPeekBytes)
	batch := make([]prefetchReq, 0, prefetchBatchMax)
	for {
		batch = batch[:0]
		select {
		case <-p.done:
			return
		case r := <-p.queue:
			batch = append(batch, r)
		}
		for len(batch) < prefetchBatchMax {
			select {
			case r := <-p.queue:
				batch = append(batch, r)
				continue
			default:
			}
			break
		}
		m.prefetchBatch(batch, scratch)
	}
}

// prefetchBatch resolves one drained batch. Chained hints first skip their
// already-resident prefix in place (peeking each frame under the stripe read
// lock, never through the queue — a scan repeatedly hinting a chain it is
// halfway through must not cost one worker round-trip per resident block),
// then window-load from the first cold link. Flat hints are read in one
// coalesced pagefile batch and installed unpinned.
func (m *Manager) prefetchBatch(batch []prefetchReq, scratch []byte) {
	p := &m.pref
	flat := batch[:0]
	for _, r := range batch {
		p.forget(r.id)
		if r.gen != p.gen.Load() {
			m.met.prefetchDropped.Inc()
			continue
		}
		if r.next == nil || r.depth <= 1 {
			if resident, _, _ := m.chainPeekResident(prefetchReq{id: r.id, depth: 1}, scratch); !resident {
				flat = append(flat, r)
			}
			continue
		}
		id, depth := r.id, r.depth
		for depth > 0 {
			resident, nid, follow := m.chainPeekResident(prefetchReq{id: id, depth: depth, next: r.next}, scratch)
			if resident {
				if !follow {
					// Chain end, or a page under active update — unstable.
					break
				}
				id, depth = nid, depth-1
				continue
			}
			if int(p.resident.Load()) >= p.budget {
				m.met.prefetchDropped.Inc()
				break
			}
			// Converging hints resolve to the same first cold link; only one
			// worker window-loads it, the rest drop out here.
			p.mu.Lock()
			_, busy := p.inflight[id]
			if !busy {
				p.inflight[id] = struct{}{}
			}
			p.mu.Unlock()
			if busy {
				break
			}
			nid, ndepth, cont := m.prefetchChainWindow(prefetchReq{id: id, depth: depth, next: r.next, gen: r.gen})
			p.forget(id)
			if !cont {
				break
			}
			id, depth = nid, ndepth
		}
	}
	if len(flat) == 0 {
		return
	}
	ids := make([]sas.PageID, len(flat))
	bufs := make([][]byte, len(flat))
	for i, r := range flat {
		ids[i] = r.id
		bufs[i] = make([]byte, sas.PageSize)
	}
	elig, ts0 := m.prefetchEligibility(ids)
	if err := m.pf.ReadPages(ids, bufs); err != nil {
		for range flat {
			m.met.prefetchDropped.Inc()
		}
		return
	}
	for i, r := range flat {
		if elig[i] && m.installPrefetched(r.id, bufs[i], r.gen, ts0[i]) {
			m.met.prefetchIssued.Inc()
		} else {
			m.met.prefetchDropped.Inc()
		}
	}
}

// prefetchChainWindow resolves one cold chain hint with a speculative
// sequential window: block chains are laid out mostly in allocation order,
// so rather than reading one page per hop (a serial pointer chase the scan
// would immediately overtake), the worker reads the next min(depth,
// prefetchBatchMax) file-adjacent pages in a single coalesced pread and then
// walks the real chain through that window, installing only pages the chain
// actually visits. Window pages off the chain are discarded unpublished —
// over-read bytes cost one already-paid sequential pread, never a frame.
// When the chain leaves the window (a reallocated or fragmented link) with
// depth to spare, the first out-of-window link and the remaining depth are
// returned with cont=true so the caller keeps following in the same call.
func (m *Manager) prefetchChainWindow(r prefetchReq) (sas.PageID, int, bool) {
	w := r.depth
	if w > prefetchBatchMax {
		w = prefetchBatchMax
	}
	g0 := r.id.GlobalIndex()
	ids := make([]sas.PageID, w)
	bufs := make([][]byte, w)
	for i := range ids {
		ids[i] = sas.PageIDFromGlobal(g0 + uint64(i))
		bufs[i] = make([]byte, sas.PageSize)
	}
	elig, ts0 := m.prefetchEligibility(ids)
	if err := m.pf.ReadPages(ids, bufs); err != nil {
		m.met.prefetchDropped.Inc()
		return sas.PageID{}, 0, false
	}
	seen := make([]bool, w)
	rel, depth := 0, r.depth
	for {
		seen[rel] = true
		// Decode the successor before installing: once the frame is
		// published the bytes are shared and a writer may mutate them.
		var next sas.PageID
		ok := false
		if depth > 1 {
			next, ok = r.next(bufs[rel])
		}
		if elig[rel] && m.installPrefetched(ids[rel], bufs[rel], r.gen, ts0[rel]) {
			m.met.prefetchIssued.Inc()
		} else if rel == 0 {
			m.met.prefetchDropped.Inc()
		}
		depth--
		if !ok {
			return sas.PageID{}, 0, false
		}
		nrel := int64(next.GlobalIndex()) - int64(g0)
		if nrel > 0 && nrel < int64(w) && !seen[nrel] {
			rel = int(nrel)
			continue
		}
		// The chain leaves the speculative window with depth to spare.
		return next, depth, true
	}
}

// chainPeekResident reports whether r.id is already resident, and if the
// hint wants to go deeper, decodes the successor from a copy of the frame.
// The copy is taken under the stripe read lock with dirtyBy == 0, the same
// visibility argument as ViewSnapshot: any past writer's mutations
// happened-before the commit that cleared dirtyBy. A page under active
// update is not followed — its chain is unstable.
func (m *Manager) chainPeekResident(r prefetchReq, scratch []byte) (resident bool, nid sas.PageID, follow bool) {
	s := m.stripeFor(r.id.Page)
	s.rlock(m)
	f := s.frames[r.id]
	if f == nil {
		s.mu.RUnlock()
		return false, sas.PageID{}, false
	}
	if r.depth > 1 && r.next != nil && s.dirtyBy[r.id] == 0 {
		copy(scratch, f.data[:prefetchPeekBytes])
		s.mu.RUnlock()
		nid, ok := r.next(scratch)
		return true, nid, ok
	}
	s.mu.RUnlock()
	return true, sas.PageID{}, false
}

// installPrefetched publishes a freshly read page as an unpinned frame. ts0
// is the page's commit timestamp captured (via prefetchEligibility) before
// the disk read: if it has moved, or an uncommitted writer has appeared, the
// bytes in hand may predate a commit — or be torn by a flush racing the
// lockless pread — so the install is refused. It also refuses — the hint is
// dropped, never retried — when the generation is stale, the page raced to
// residency, the budget is spent, or making room would require flushing a
// dirty frame or touching a pinned one. The frame starts with a clear
// reference bit, so an untouched prefetched page is the clock's first
// victim under pressure.
func (m *Manager) installPrefetched(id sas.PageID, data []byte, gen uint64, ts0 uint64) bool {
	p := &m.pref
	s := m.stripeFor(id.Page)
	s.lock(m)
	defer s.mu.Unlock()
	if p.gen.Load() != gen {
		return false
	}
	if s.frames[id] != nil || s.dirtyBy[id] != 0 || s.pageTS[id] != ts0 {
		return false
	}
	// Reserve a budget share first (CAS, so the bound is hard even with
	// concurrent installs on other stripes); release it on any refusal.
	for {
		cur := p.resident.Load()
		if int(cur) >= p.budget {
			return false
		}
		if p.resident.CompareAndSwap(cur, cur+1) {
			break
		}
	}
	for len(s.frames) >= s.capacity {
		if !s.prefetchEvictOne(m) {
			p.resident.Add(-1)
			return false
		}
	}
	f := &Frame{id: id, data: data}
	f.clockIdx = len(s.clock)
	s.clock = append(s.clock, f)
	s.frames[id] = f
	f.prefetched.Store(true)
	// Map the slot only if it is free: readahead must not unmap a layer
	// another scan is actively dereferencing through this slot.
	if e := &s.slots[int(id.Page)>>m.stripeShift]; e.frame == nil {
		*e = slotEntry{layer: id.Layer, frame: f}
	}
	return true
}

// prefetchEvictOne frees one frame for a prefetch install using the normal
// clock second-chance sweep, except that dirty frames are skipped instead of
// flushed: readahead must never force a hot dirty page to disk (nor take the
// WAL mutex on this path). Returns false when no clean unpinned victim
// exists. The caller holds the stripe write lock.
func (s *stripe) prefetchEvictOne(m *Manager) bool {
	for i := 0; i < 2*len(s.clock)+1; i++ {
		if s.hand >= len(s.clock) {
			s.hand = 0
		}
		f := s.clock[s.hand]
		s.hand++
		m.met.clockSweeps.Inc()
		if f.pin.Load() > 0 || s.dirty[f.id] {
			continue
		}
		if f.ref.Swap(false) {
			continue // second chance
		}
		s.drop(m, f)
		m.met.evictions.Inc()
		return true
	}
	return false
}
