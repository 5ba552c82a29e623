package buffer

import (
	"path/filepath"
	"testing"

	"sedna/internal/pagefile"
	"sedna/internal/sas"
)

func newTestManager(t *testing.T, capacity int) (*Manager, *pagefile.File, *pagefile.SnapArea) {
	t.Helper()
	dir := t.TempDir()
	pf, err := pagefile.Open(filepath.Join(dir, "data.sdb"), pagefile.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := pagefile.OpenSnapArea(filepath.Join(dir, "data.snap"), pagefile.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close(); snap.Close() })
	return New(pf, snap, capacity), pf, snap
}

// alloc allocates a page from pf.
func alloc(pf *pagefile.File) sas.PageID {
	id, _ := pf.Alloc()
	return id
}

// snapByte returns the first byte of the page as a snapshot at ts views it.
func snapByte(t *testing.T, m *Manager, id sas.PageID, ts uint64) byte {
	t.Helper()
	page, pin, _, err := m.ViewSnapshot(id, ts)
	if err != nil {
		t.Fatal(err)
	}
	b := page[0]
	if pin != nil {
		m.Unpin(pin)
	}
	return b
}

func TestDerefFastPathAfterFault(t *testing.T) {
	m, pf, _ := newTestManager(t, 8)
	id := alloc(pf)
	p := id.Ptr()

	f, err := m.Deref(p)
	if err != nil {
		t.Fatal(err)
	}
	m.Unpin(f)
	st := m.Stats()
	if st.Faults != 1 || st.Hits != 0 {
		t.Fatalf("first deref: %+v", st)
	}

	f2, err := m.Deref(p.Add(100))
	if err != nil {
		t.Fatal(err)
	}
	m.Unpin(f2)
	st = m.Stats()
	if st.Hits != 1 {
		t.Fatalf("second deref must hit the mapped slot: %+v", st)
	}
	if f2 != f {
		t.Fatal("same page must resolve to the same frame")
	}
}

func TestDerefLayerMismatchFaults(t *testing.T) {
	m, _, _ := newTestManager(t, 8)
	// Two pages at the same page index in different layers compete for the
	// same mapping slot — the equality-basis mapping of the paper.
	p1 := sas.MakePtr(1, 5*sas.PageSize)
	p2 := sas.MakePtr(2, 5*sas.PageSize)

	f1, err := m.Deref(p1)
	if err != nil {
		t.Fatal(err)
	}
	m.Unpin(f1)
	f2, err := m.Deref(p2)
	if err != nil {
		t.Fatal(err)
	}
	m.Unpin(f2)
	st := m.Stats()
	if st.Faults != 2 {
		t.Fatalf("layer mismatch must fault: %+v", st)
	}
	// p2 now owns the slot; p1 faults again.
	f1b, err := m.Deref(p1)
	if err != nil {
		t.Fatal(err)
	}
	m.Unpin(f1b)
	if got := m.Stats().Faults; got != 3 {
		t.Fatalf("faults = %d, want 3", got)
	}
}

func TestDerefNil(t *testing.T) {
	m, _, _ := newTestManager(t, 8)
	if _, err := m.Deref(sas.NilPtr); err == nil {
		t.Fatal("nil deref must error")
	}
}

func TestEvictionWritesBack(t *testing.T) {
	m, pf, _ := newTestManager(t, 2)
	ids := []sas.PageID{alloc(pf), alloc(pf), alloc(pf)}
	for i, id := range ids {
		f, err := m.PinWrite(id, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = byte(i + 1)
		m.Unpin(f)
	}
	// Loading a third page evicted one of the first two; its bytes must be
	// on disk.
	if m.Stats().Evictions == 0 {
		t.Fatal("expected at least one eviction with capacity 2")
	}
	m.CommitTxn(1, 1)
	if err := m.FlushCommitted(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, sas.PageSize)
	for i, id := range ids {
		if err := pf.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("page %d first byte = %d", i, buf[0])
		}
	}
}

func TestAllPinnedErrBusy(t *testing.T) {
	m, pf, _ := newTestManager(t, 2)
	f1, err := m.Pin(alloc(pf))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := m.Pin(alloc(pf))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Pin(alloc(pf)); err == nil {
		t.Fatal("want ErrBusy when all frames pinned")
	}
	m.Unpin(f1)
	m.Unpin(f2)
}

func TestWriteConflictDetected(t *testing.T) {
	m, pf, _ := newTestManager(t, 8)
	id := alloc(pf)
	f, err := m.PinWrite(id, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Unpin(f)
	if _, err := m.PinWrite(id, 2, 0); err == nil {
		t.Fatal("second txn writing the same page must conflict")
	}
}

func TestSnapshotReadSeesOldVersion(t *testing.T) {
	m, pf, _ := newTestManager(t, 8)
	// The snapshot the test reads at is an active one: commit frees what no
	// active snapshot can read.
	m.SetActiveSnapshots(func() []uint64 { return []uint64{10} })
	id := alloc(pf)

	// Txn 1 commits version A at ts 10.
	f, err := m.PinWrite(id, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 'A'
	m.Unpin(f)
	m.CommitTxn(1, 10)

	// Txn 2 starts modifying; snapshot at ts 10 must still see A.
	f, err = m.PinWrite(id, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 'B'
	m.Unpin(f)

	if b := snapByte(t, m, id, 10); b != 'A' {
		t.Fatalf("snapshot at 10 sees %q, want A (uncommitted B invisible)", b)
	}

	// After commit at 20, snapshot 10 still sees A, snapshot 20 sees B.
	m.CommitTxn(2, 20)
	if b := snapByte(t, m, id, 10); b != 'A' {
		t.Fatalf("snapshot at 10 sees %q after commit, want A", b)
	}
	if b := snapByte(t, m, id, 20); b != 'B' {
		t.Fatalf("snapshot at 20 sees %q, want B", b)
	}
	if n := m.VersionCount(); n != 1 {
		t.Fatalf("%d versions kept for one snapshot of one page", n)
	}
}

func TestSnapshotReadOfNonexistentPageIsZero(t *testing.T) {
	m, pf, _ := newTestManager(t, 8)
	id := alloc(pf)
	f, err := m.PinWrite(id, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 'X'
	m.Unpin(f)
	m.CommitTxn(1, 50)

	// A snapshot older than the page's first commit sees zeros: pageTS is
	// 50 > 1, and the pre-image of the unallocated page (ts 0) was zeros too
	// while the chain still held it.
	if b := snapByte(t, m, id, 1); b != 0 {
		t.Fatalf("pre-creation snapshot sees %#x, want zero page", b)
	}
}

func TestRollbackRestoresPreImage(t *testing.T) {
	m, pf, _ := newTestManager(t, 8)
	id := alloc(pf)

	f, err := m.PinWrite(id, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 'A'
	m.Unpin(f)
	m.CommitTxn(1, 10)

	f, err = m.PinWrite(id, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 'B'
	m.Unpin(f)
	if err := m.RollbackTxn(2); err != nil {
		t.Fatal(err)
	}

	g, err := m.Pin(id)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unpin(g)
	if g.Data()[0] != 'A' {
		t.Fatalf("after rollback live = %q, want A", g.Data()[0])
	}
	// A new txn can now write the page.
	if _, err := m.PinWrite(id, 3, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackSurvivesEviction(t *testing.T) {
	m, pf, _ := newTestManager(t, 2)
	id := alloc(pf)
	f, err := m.PinWrite(id, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 'A'
	m.Unpin(f)
	m.CommitTxn(1, 5)

	f, err = m.PinWrite(id, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 'B'
	m.Unpin(f)

	// Force the uncommitted page to be evicted (flushed to disk).
	for i := 0; i < 4; i++ {
		g, err := m.Pin(alloc(pf))
		if err != nil {
			t.Fatal(err)
		}
		m.Unpin(g)
	}
	if err := m.RollbackTxn(2); err != nil {
		t.Fatal(err)
	}
	g, err := m.Pin(id)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unpin(g)
	if g.Data()[0] != 'A' {
		t.Fatalf("after rollback live = %q, want A", g.Data()[0])
	}
}

func TestVersionPurge(t *testing.T) {
	m, pf, _ := newTestManager(t, 8)
	var snaps []uint64
	m.SetActiveSnapshots(func() []uint64 { return snaps })
	id := alloc(pf)

	write := func(txn, ts uint64, b byte) {
		f, err := m.PinWrite(id, txn, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = b
		m.Unpin(f)
		m.CommitTxn(txn, ts)
	}

	snaps = []uint64{10}
	write(1, 10, 'A')
	write(2, 20, 'B')
	write(3, 30, 'C')
	// Snapshot 10 pins the content as of ts 10 ('A'); the newer pre-image
	// ('B') and the older one (zeros) died at the commits that superseded
	// them.
	if n := m.VersionCount(); n != 1 {
		t.Fatalf("versions after three commits = %d, want 1", n)
	}
	if b := snapByte(t, m, id, 10); b != 'A' {
		t.Fatalf("snapshot 10 sees %q", b)
	}

	// Release the snapshot: everything purges.
	snaps = nil
	m.PurgeAllVersions()
	if n := m.VersionCount(); n != 0 {
		t.Fatalf("versions after purge = %d, want 0", n)
	}
}

// pageOf returns a whole page image filled with b.
func pageOf(b byte) []byte {
	page := make([]byte, sas.PageSize)
	for i := range page {
		page[i] = b
	}
	return page
}

// evictAll pushes every unpinned frame out of a pool of the given capacity
// by pinning that many other pages in turn.
func evictAll(t *testing.T, m *Manager, pf *pagefile.File, capacity int) {
	t.Helper()
	for i := 0; i < 2*capacity; i++ {
		g, err := m.Pin(alloc(pf))
		if err != nil {
			t.Fatal(err)
		}
		m.Unpin(g)
	}
}

// TestInstallRecycledPageKeepsFreedContent: a page freed while an older
// snapshot is active and then installed, not resident, by the transaction
// that recycles it is read once more and keeps its freed content for that
// snapshot, before and after the commit.
func TestInstallRecycledPageKeepsFreedContent(t *testing.T) {
	m, pf, _ := newTestManager(t, 2)
	var snaps []uint64
	m.SetActiveSnapshots(func() []uint64 { return snaps })
	id := alloc(pf)
	f, err := m.PinWrite(id, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 'Z'
	m.Unpin(f)
	m.CommitTxn(1, 10)
	evictAll(t, m, pf, 2)
	pf.Free(id)

	snaps = []uint64{10}
	id2, fresh := pf.Alloc()
	if id2 != id || fresh {
		t.Fatalf("expected the recycled page %v, got %v (fresh %v)", id, id2, fresh)
	}
	reads := m.Stats().DiskReads
	if err := m.InstallPage(id, 2, pageOf('N'), 1, false); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().DiskReads - reads; got != 1 {
		t.Fatalf("installing a recycled page under a snapshot read %d pages, want 1", got)
	}
	if b := snapByte(t, m, id, 10); b != 'Z' {
		t.Fatalf("snapshot 10 sees %q before the commit, want Z", b)
	}
	m.CommitTxn(2, 20)
	if b := snapByte(t, m, id, 10); b != 'Z' {
		t.Fatalf("snapshot 10 sees %q after the commit, want Z", b)
	}
	if b := snapByte(t, m, id, 20); b != 'N' {
		t.Fatalf("snapshot 20 sees %q, want N", b)
	}
}

// TestInstallFreshPageReadsNothing: a page the file was extended for is
// installed with no read and no version, even while a snapshot is active,
// and that snapshot reads it as the zero page.
func TestInstallFreshPageReadsNothing(t *testing.T) {
	m, pf, _ := newTestManager(t, 8)
	m.SetActiveSnapshots(func() []uint64 { return []uint64{10} })
	id, fresh := pf.Alloc()
	if !fresh {
		t.Fatal("first allocation not fresh")
	}
	before := m.Stats()
	if err := m.InstallPage(id, 2, pageOf('F'), 1, true); err != nil {
		t.Fatal(err)
	}
	after := m.Stats()
	if after.DiskReads != before.DiskReads || after.VersionsMade != before.VersionsMade {
		t.Fatalf("fresh install read %d pages and made %d versions, want 0 and 0",
			after.DiskReads-before.DiskReads, after.VersionsMade-before.VersionsMade)
	}
	if b := snapByte(t, m, id, 10); b != 0 {
		t.Fatalf("snapshot 10 sees %#x on a page created after it, want 0", b)
	}
	f, err := m.Pin(id)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unpin(f)
	if f.Data()[0] != 'F' || f.Data()[sas.PageSize-1] != 'F' {
		t.Fatal("the installed page is not the frame's content")
	}
}

// TestInstallPageRollback: rolling back an installed page leaves a fresh
// page reading zeros and a resident committed page its committed bytes.
func TestInstallPageRollback(t *testing.T) {
	m, pf, _ := newTestManager(t, 8)
	kept := alloc(pf)
	f, err := m.PinWrite(kept, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 'A'
	m.Unpin(f)
	m.CommitTxn(1, 5)

	fresh := alloc(pf)
	if err := m.InstallPage(fresh, 2, pageOf('B'), 1, true); err != nil {
		t.Fatal(err)
	}
	if err := m.InstallPage(kept, 2, pageOf('B'), 2, false); err != nil {
		t.Fatal(err)
	}
	if err := m.RollbackTxn(2); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		id   sas.PageID
		want byte
	}{{fresh, 0}, {kept, 'A'}} {
		g, err := m.Pin(c.id)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.Data()[0]; got != c.want {
			t.Fatalf("page %v after rollback = %#x, want %#x", c.id, got, c.want)
		}
		m.Unpin(g)
	}
	if n := m.VersionCount(); n != 0 {
		t.Fatalf("versions after rollback = %d, want 0", n)
	}
	// The pages are free for the next writer.
	if err := m.InstallPage(fresh, 3, pageOf('C'), 3, true); err != nil {
		t.Fatal(err)
	}
}

// TestInstalledPageStolenAndFaultedBack: an installed, uncommitted page
// that is evicted is written back after its log record is made durable,
// and faults back in with the installed bytes.
func TestInstalledPageStolenAndFaultedBack(t *testing.T) {
	m, pf, _ := newTestManager(t, 2)
	var flushed []uint64
	m.SetWALFlush(func(lsn uint64) error {
		flushed = append(flushed, lsn)
		return nil
	})
	id := alloc(pf)
	if err := m.InstallPage(id, 1, pageOf('I'), 77, true); err != nil {
		t.Fatal(err)
	}
	writes := m.Stats().DiskWrites
	evictAll(t, m, pf, 2)
	if got := m.Stats().DiskWrites - writes; got != 1 {
		t.Fatalf("evicting the installed page wrote %d pages, want 1", got)
	}
	if len(flushed) != 1 || flushed[0] != 77 {
		t.Fatalf("WAL flushes before the write-back = %v, want [77]", flushed)
	}
	reads := m.Stats().DiskReads
	f, err := m.Pin(id)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unpin(f)
	if m.Stats().DiskReads != reads+1 {
		t.Fatal("the stolen page did not fault back in from disk")
	}
	if f.Data()[0] != 'I' || f.Data()[sas.PageSize-1] != 'I' {
		t.Fatalf("faulted-in page starts %q, want the installed bytes", f.Data()[0])
	}
}

func TestFlushCommittedSkipsUncommitted(t *testing.T) {
	m, pf, _ := newTestManager(t, 8)
	idC := alloc(pf)
	idU := alloc(pf)

	f, err := m.PinWrite(idC, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 'C'
	m.Unpin(f)
	m.CommitTxn(1, 1)

	f, err = m.PinWrite(idU, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 'U'
	m.Unpin(f)

	if err := m.FlushCommitted(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, sas.PageSize)
	if err := pf.ReadPage(idC, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 'C' {
		t.Fatal("committed page must be flushed")
	}
	if err := pf.ReadPage(idU, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Fatal("uncommitted page must not be flushed by FlushCommitted")
	}
}

func TestSnapSaveBeforeOverwrite(t *testing.T) {
	m, pf, snap := newTestManager(t, 8)
	id := alloc(pf)

	// Establish checkpoint content.
	f, err := m.PinWrite(id, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 'P' // persistent-snapshot content
	m.Unpin(f)
	m.CommitTxn(1, 1)
	if err := m.FlushCommitted(); err != nil {
		t.Fatal(err)
	}
	// Simulate a checkpoint: master now covers this page, snapshot area reset.
	master := pf.Master()
	master.NextAlloc = pf.NextAlloc()
	if err := pf.WriteMaster(master); err != nil {
		t.Fatal(err)
	}
	if err := snap.Reset(1); err != nil {
		t.Fatal(err)
	}

	// Overwrite after the checkpoint and flush: the snapshot area must have
	// received the checkpoint-time content first.
	f, err = m.PinWrite(id, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 'N'
	m.Unpin(f)
	m.CommitTxn(2, 2)
	if err := m.FlushCommitted(); err != nil {
		t.Fatal(err)
	}
	if !snap.Saved(id) {
		t.Fatal("overwritten page must be saved to the snapshot area")
	}
	found := false
	err = snap.Restore(func(gotID sas.PageID, data []byte) error {
		if gotID == id {
			found = true
			if data[0] != 'P' {
				t.Fatalf("snapshot copy holds %q, want P", data[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("snapshot entry missing")
	}
}

func TestSwizzleDerefBaseline(t *testing.T) {
	m, pf, _ := newTestManager(t, 8)
	s := NewSwizzleDeref(m)
	id := alloc(pf)
	p := id.Ptr()

	f, err := s.Deref(p)
	if err != nil {
		t.Fatal(err)
	}
	m.Unpin(f)
	f, err = s.Deref(p.Add(8))
	if err != nil {
		t.Fatal(err)
	}
	m.Unpin(f)
	hits, faults := s.Counters()
	if hits != 1 || faults != 1 {
		t.Fatalf("hits=%d faults=%d", hits, faults)
	}
}

func TestInvalidateAll(t *testing.T) {
	m, pf, _ := newTestManager(t, 8)
	f, err := m.Pin(alloc(pf))
	if err != nil {
		t.Fatal(err)
	}
	m.Unpin(f)
	m.InvalidateAll()
	if m.DirtyCount() != 0 {
		t.Fatal("InvalidateAll must clear dirty state")
	}
	st := m.Stats()
	// A deref after invalidation faults again.
	f2, err := m.Deref(sas.MakePtr(1, sas.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	m.Unpin(f2)
	if m.Stats().Faults != st.Faults+1 {
		t.Fatal("deref after InvalidateAll must fault")
	}
}

// writePages allocates n pages on disk, page i filled with byte i+1.
func writePages(t *testing.T, pf *pagefile.File, n int) []sas.PageID {
	t.Helper()
	ids := make([]sas.PageID, n)
	buf := make([]byte, sas.PageSize)
	for i := range ids {
		ids[i] = alloc(pf)
		for j := range buf {
			buf[j] = byte(i + 1)
		}
		if err := pf.WritePage(ids[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// TestViewSnapshotLoadsThroughThePool covers the cold half of the one
// snapshot read path: a miss loads the page into the pool like any other
// fault (one fault, one disk read) and maps its slot, and the next view of it
// and an updater's dereference are hits with no disk read.
func TestViewSnapshotLoadsThroughThePool(t *testing.T) {
	m, pf, _ := newTestManager(t, 256)
	ids := writePages(t, pf, 1)
	view := func() (loaded bool) {
		t.Helper()
		page, pin, loaded, err := m.ViewSnapshot(ids[0], 1)
		if err != nil {
			t.Fatal(err)
		}
		if pin == nil || pin.ID() != ids[0] {
			t.Fatal("live-visible view came back without its frame")
		}
		if page[0] != 1 || page[sas.PageSize-1] != 1 {
			t.Fatalf("payload = %#x", page[0])
		}
		m.Unpin(pin)
		return loaded
	}

	if !view() {
		t.Fatal("cold view did not report a load")
	}
	if view() {
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
}

// TestViewSnapshotBesideUncommittedWriter: a page under an uncommitted writer
// is served from its version chain — the committed bytes, no pin, counted as
// a snapshot read — whether or not the snapshot reader had the frame first,
// and neither side's bytes reach the other.
func TestViewSnapshotBesideUncommittedWriter(t *testing.T) {
	m, pf, _ := newTestManager(t, 256)
	ids := writePages(t, pf, 2)

	// The reader views the committed frame, then the writer arrives.
	held, pin, _, err := m.ViewSnapshot(ids[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.PinWrite(ids[1], 7, 0)
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
