package buffer

import (
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sedna/internal/metrics"
	"sedna/internal/pagefile"
	"sedna/internal/sas"
)

// writeChain allocates n pages forming a nextBlock-style chain: each page
// stores its successor's global index at offset 8 (0 = end) plus a payload
// byte, using the test's own layout — the prefetcher is layout-agnostic and
// takes the decoder as a callback.
func writeChain(t *testing.T, pf *pagefile.File, n int) []sas.PageID {
	t.Helper()
	ids := make([]sas.PageID, n)
	for i := range ids {
		ids[i] = pf.Alloc()
	}
	buf := make([]byte, sas.PageSize)
	for i, id := range ids {
		for j := range buf {
			buf[j] = byte(i + 1)
		}
		var next uint64
		if i+1 < n {
			next = ids[i+1].GlobalIndex()
		}
		binary.LittleEndian.PutUint64(buf[8:], next)
		if err := pf.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

func chainDecode(page []byte) (sas.PageID, bool) {
	g := binary.LittleEndian.Uint64(page[8:])
	if g == 0 {
		return sas.PageID{}, false
	}
	return sas.PageIDFromGlobal(g), true
}

// waitFor polls cond for up to two seconds — prefetching is asynchronous and
// best-effort, so tests wait for the effect rather than the mechanism.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPrefetchChainLoadsAheadAndCountsHits(t *testing.T) {
	m, pf, _ := newTestManager(t, 256)
	ids := writeChain(t, pf, 6)

	m.PrefetchChain(ids[0], len(ids), chainDecode)
	waitFor(t, "chain resident", func() bool {
		return m.PrefetchResident() >= len(ids)
	})
	if got := m.met.prefetchIssued.Value(); got < uint64(len(ids)) {
		t.Fatalf("prefetch_issued = %d, want >= %d", got, len(ids))
	}

	// A real scan over the chain should hit every prefetched frame and
	// consume the budget shares.
	reads := m.met.diskReads.Value()
	for i, id := range ids {
		f, err := m.Deref(id.Ptr())
		if err != nil {
			t.Fatal(err)
		}
		if f.Data()[0] != byte(i+1) {
			t.Fatalf("page %d payload = %#x", i, f.Data()[0])
		}
		m.Unpin(f)
	}
	if got := m.met.diskReads.Value(); got != reads {
		t.Fatalf("scan did %d synchronous disk reads, want 0 (all prefetched)", got-reads)
	}
	if got := m.met.prefetchHits.Value(); got != uint64(len(ids)) {
		t.Fatalf("prefetch_hits = %d, want %d", got, len(ids))
	}
	if got := m.PrefetchResident(); got != 0 {
		t.Fatalf("resident after full scan = %d, want 0", got)
	}
}

func TestPrefetchBatchesAdjacentPages(t *testing.T) {
	// The pagefile must share the manager's registry for the batch counters
	// to be visible here.
	reg := metrics.NewRegistry()
	dir := t.TempDir()
	pf, err := pagefile.Open(filepath.Join(dir, "data.sdb"), pagefile.Options{NoSync: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := pagefile.OpenSnapArea(filepath.Join(dir, "data.snap"), pagefile.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close(); snap.Close() })
	m := NewWithMetrics(pf, snap, 256, reg)
	t.Cleanup(m.StopPrefetch)

	ids := writeChain(t, pf, 8)
	before := m.reg.Counter("pagefile.batch_pages").Value()
	m.Prefetch(ids)
	waitFor(t, "batch resident", func() bool {
		return m.PrefetchResident() >= len(ids)
	})
	if got := m.reg.Counter("pagefile.batch_pages").Value() - before; got == 0 {
		t.Fatal("prefetcher did not use the batched read path")
	}
}

func TestPrefetchDepthZeroIsNoop(t *testing.T) {
	m, pf, _ := newTestManager(t, 64)
	ids := writeChain(t, pf, 3)
	m.PrefetchChain(ids[0], 0, chainDecode)
	time.Sleep(10 * time.Millisecond)
	if got := m.met.prefetchIssued.Value() + m.met.prefetchDropped.Value(); got != 0 {
		t.Fatalf("depth 0 produced prefetch activity: issued+dropped = %d", got)
	}
	if m.PrefetchResident() != 0 {
		t.Fatalf("depth 0 left %d resident pages", m.PrefetchResident())
	}
}

func TestPrefetchBudgetIsHardBound(t *testing.T) {
	m, pf, _ := newTestManager(t, 64) // budget = 8
	budget := m.PrefetchBudget()
	ids := writeChain(t, pf, 4*budget)
	m.Prefetch(ids)
	waitFor(t, "budget consumed", func() bool {
		return m.PrefetchResident() >= budget || m.met.prefetchDropped.Value() > 0
	})
	for i := 0; i < 100; i++ {
		if got := m.PrefetchResident(); got > budget {
			t.Fatalf("resident = %d exceeds budget %d", got, budget)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if m.met.prefetchDropped.Value() == 0 {
		t.Fatal("flooding 4x the budget dropped nothing")
	}
}

func TestPrefetchAfterStopIsIgnored(t *testing.T) {
	m, pf, _ := newTestManager(t, 64)
	ids := writeChain(t, pf, 3)
	m.StopPrefetch()
	m.Prefetch(ids)
	time.Sleep(5 * time.Millisecond)
	if m.PrefetchResident() != 0 {
		t.Fatalf("prefetch after stop installed %d pages", m.PrefetchResident())
	}
	m.StopPrefetch() // idempotent
}

func TestInvalidateAllDiscardsPrefetchedFrames(t *testing.T) {
	m, pf, _ := newTestManager(t, 256)
	ids := writeChain(t, pf, 5)
	m.Prefetch(ids)
	waitFor(t, "resident", func() bool { return m.PrefetchResident() >= len(ids) })
	m.InvalidateAll()
	if got := m.PrefetchResident(); got != 0 {
		t.Fatalf("resident after InvalidateAll = %d", got)
	}
	if got := m.met.prefetchWasted.Value(); got < uint64(len(ids)) {
		t.Fatalf("prefetch_wasted = %d, want >= %d", got, len(ids))
	}
}

// TestPrefetchStressTinyPool floods the readahead machinery against a pool
// smaller than the prefetch budget while scans, writers and pins compete for
// frames. Run under -race it checks, throughout and afterwards:
//
//   - a pinned frame is never evicted (pointer identity survives the storm);
//   - the resident-prefetch count never exceeds the hard budget;
//   - no deadlock against the documented stripe→WAL→pagefile lock order
//     (writers force dirty frames and evictions while hints install);
//   - committed data survives byte-exact.
func TestPrefetchStressTinyPool(t *testing.T) {
	m, pf, _ := newTestManager(t, 3) // collapses to one stripe; budget floor 4 > capacity
	m.SetWALFlush(func() error { return nil })
	if m.PrefetchBudget() <= m.Capacity() {
		t.Fatalf("stress wants budget (%d) > capacity (%d)", m.PrefetchBudget(), m.Capacity())
	}
	chain := writeChain(t, pf, 32)
	scanIDs := chain[:16]
	writeID := pf.Alloc()
	pinID := pf.Alloc()

	// Hold one frame pinned across the whole run.
	pinned, err := m.Pin(pinID)
	if err != nil {
		t.Fatal(err)
	}
	copy(pinned.Data(), []byte("sentinel"))

	const iters = 400
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	stop := make(chan struct{})

	// Budget watchdog (own WaitGroup: it runs until the workers finish).
	var watchdog sync.WaitGroup
	watchdog.Add(1)
	go func() {
		defer watchdog.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := m.PrefetchResident(); got > m.PrefetchBudget() {
				errc <- errBudget(got)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	// Hinters flood chain prefetches.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				m.PrefetchChain(chain[rng.Intn(len(chain))], 8, chainDecode)
			}
		}(int64(w))
	}

	// Scanners deref chain pages (competing with installs for the 3 frames).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < iters; i++ {
				id := scanIDs[rng.Intn(len(scanIDs))]
				f, err := m.Pin(id)
				if err != nil {
					continue // ErrBusy under extreme pin pressure is legal
				}
				if f.Data()[0] == 0 {
					errc <- errZero(id)
					m.Unpin(f)
					return
				}
				m.Unpin(f)
			}
		}(int64(w))
	}

	// A writer keeps one page dirty so installs must skip it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			f, err := m.PinWrite(writeID, 1)
			if err != nil {
				continue
			}
			f.Data()[0] = byte(i + 1)
			m.Unpin(f)
			m.CommitTxn(1, uint64(i+1))
		}
	}()

	wg.Wait()
	close(stop)
	watchdog.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// The pinned frame must have survived untouched and unevicted.
	again, err := m.Pin(pinID)
	if err != nil {
		t.Fatal(err)
	}
	if again != pinned {
		t.Fatal("pinned frame was evicted and reloaded during the stress run")
	}
	if string(again.Data()[:8]) != "sentinel" {
		t.Fatalf("pinned frame content clobbered: %q", again.Data()[:8])
	}
	m.Unpin(again)
	m.Unpin(pinned)
	if got := m.PrefetchResident(); got > m.PrefetchBudget() {
		t.Fatalf("final resident %d > budget %d", got, m.PrefetchBudget())
	}
}

type errBudget int

func (e errBudget) Error() string { return "resident prefetch pages exceeded budget" }

type errZero sas.PageID

func (e errZero) Error() string { return "scanned page read as zeros" }

// TestViewSnapshotLoadsThroughThePool covers the cold half of the one
// snapshot read path: a miss loads the page into the pool like any other
// fault (one fault, one disk read) and maps its slot, the next view of it and
// an updater's dereference are hits with no disk read, and frames the
// readahead workers installed serve snapshot views resident — not reported as
// loaded by the viewer — and are counted as prefetch hits.
func TestViewSnapshotLoadsThroughThePool(t *testing.T) {
	m, pf, _ := newTestManager(t, 256)
	ids := writeChain(t, pf, 8)
	view := func(i int) (loaded bool) {
		t.Helper()
		page, pin, loaded, err := m.ViewSnapshot(ids[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		if pin == nil || pin.ID() != ids[i] {
			t.Fatalf("page %d: live-visible view came back without its frame", i)
		}
		if page[0] != byte(i+1) || page[sas.PageSize-1] != byte(i+1) {
			t.Fatalf("page %d payload = %#x", i, page[0])
		}
		m.Unpin(pin)
		return loaded
	}

	if !view(0) {
		t.Fatal("cold view did not report a load")
	}
	if view(0) {
		t.Fatal("warm view reported a load")
	}
	f, err := m.Deref(ids[0].Ptr())
	if err != nil {
		t.Fatal(err)
	}
	m.Unpin(f)
	if st := m.Stats(); st.Faults != 1 || st.DiskReads != 1 || st.Hits != 2 || st.SnapshotReads != 0 {
		t.Fatalf("one cold view, one warm view and one dereference counted as %+v", st)
	}

	m.PrefetchChain(ids[1], len(ids)-1, chainDecode)
	waitFor(t, "chain resident", func() bool { return m.PrefetchResident() >= len(ids)-1 })
	reads := m.met.diskReads.Value()
	for i := 1; i < len(ids); i++ {
		if view(i) {
			t.Fatalf("page %d: view of a prefetched frame reported a load", i)
		}
	}
	if got := m.met.diskReads.Value(); got != reads {
		t.Fatalf("views over prefetched frames did %d disk reads, want 0", got-reads)
	}
	if got := int(m.met.prefetchHits.Value()); got != len(ids)-1 {
		t.Fatalf("prefetch_hits = %d, want %d", got, len(ids)-1)
	}
}

// TestViewSnapshotBesideUncommittedWriter: a page under an uncommitted writer
// is served from its version chain — the committed bytes, no pin, counted as
// a snapshot read — whether or not the snapshot reader had the frame first,
// and neither side's bytes reach the other.
func TestViewSnapshotBesideUncommittedWriter(t *testing.T) {
	m, pf, _ := newTestManager(t, 256)
	ids := writeChain(t, pf, 2)

	// The reader views the committed frame, then the writer arrives.
	held, pin, _, err := m.ViewSnapshot(ids[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.PinWrite(ids[1], 7)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 0xEE
	m.Unpin(f)
	if held[0] != 2 {
		t.Fatalf("held view reads %#x after the writer's first touch, want 2", held[0])
	}
	m.Unpin(pin)

	page, pin, loaded, err := m.ViewSnapshot(ids[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if pin != nil || loaded || page[0] != 2 {
		t.Fatalf("view beside the writer: pin=%v loaded=%v byte=%#x, want the unpinned pre-image", pin, loaded, page[0])
	}
	if got := m.Stats().SnapshotReads; got != 1 {
		t.Fatalf("snapshot_reads = %d, want 1", got)
	}
	// The neighbour is untouched by any of it.
	if b := snapByte(t, m, ids[0], 1); b != 1 {
		t.Fatalf("neighbour reads %#x", b)
	}
	g, err := m.Deref(ids[1].Ptr())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unpin(g)
	if g.Data()[0] != 0xEE {
		t.Fatalf("writer's page content = %#x, want 0xEE", g.Data()[0])
	}
}
