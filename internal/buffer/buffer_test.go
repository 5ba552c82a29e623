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
	m := New(pf, snap, capacity)
	t.Cleanup(m.StopPrefetch) // LIFO: workers stop before the files close
	return m, pf, snap
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
	id := pf.Alloc()
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
	ids := []sas.PageID{pf.Alloc(), pf.Alloc(), pf.Alloc()}
	for i, id := range ids {
		f, err := m.PinWrite(id, 1)
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
	f1, err := m.Pin(pf.Alloc())
	if err != nil {
		t.Fatal(err)
	}
	f2, err := m.Pin(pf.Alloc())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Pin(pf.Alloc()); err == nil {
		t.Fatal("want ErrBusy when all frames pinned")
	}
	m.Unpin(f1)
	m.Unpin(f2)
}

func TestWriteConflictDetected(t *testing.T) {
	m, pf, _ := newTestManager(t, 8)
	id := pf.Alloc()
	f, err := m.PinWrite(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Unpin(f)
	if _, err := m.PinWrite(id, 2); err == nil {
		t.Fatal("second txn writing the same page must conflict")
	}
}

func TestSnapshotReadSeesOldVersion(t *testing.T) {
	m, pf, _ := newTestManager(t, 8)
	// The snapshot the test reads at is an active one: commit frees what no
	// active snapshot can read.
	m.SetActiveSnapshots(func() []uint64 { return []uint64{10} })
	id := pf.Alloc()

	// Txn 1 commits version A at ts 10.
	f, err := m.PinWrite(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 'A'
	m.Unpin(f)
	m.CommitTxn(1, 10)

	// Txn 2 starts modifying; snapshot at ts 10 must still see A.
	f, err = m.PinWrite(id, 2)
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
	id := pf.Alloc()
	f, err := m.PinWrite(id, 1)
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
	id := pf.Alloc()

	f, err := m.PinWrite(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 'A'
	m.Unpin(f)
	m.CommitTxn(1, 10)

	f, err = m.PinWrite(id, 2)
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
	if _, err := m.PinWrite(id, 3); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackSurvivesEviction(t *testing.T) {
	m, pf, _ := newTestManager(t, 2)
	id := pf.Alloc()
	f, err := m.PinWrite(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 'A'
	m.Unpin(f)
	m.CommitTxn(1, 5)

	f, err = m.PinWrite(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 'B'
	m.Unpin(f)

	// Force the uncommitted page to be evicted (flushed to disk).
	for i := 0; i < 4; i++ {
		g, err := m.Pin(pf.Alloc())
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
	id := pf.Alloc()

	write := func(txn, ts uint64, b byte) {
		f, err := m.PinWrite(id, txn)
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

func TestPinNewZeroesRecycledPage(t *testing.T) {
	m, pf, _ := newTestManager(t, 8)
	id := pf.Alloc()
	f, err := m.PinWrite(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 'Z'
	m.Unpin(f)
	m.CommitTxn(1, 10)
	pf.Free(id)

	id2 := pf.Alloc()
	if id2 != id {
		t.Fatalf("expected recycled page, got %v", id2)
	}
	f, err = m.PinNew(id2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Data()[0] != 0 {
		t.Fatal("PinNew must zero the page")
	}
	m.Unpin(f)

	// An old snapshot must still see the pre-recycling content.
	if b := snapByte(t, m, id, 10); b != 'Z' {
		t.Fatalf("snapshot sees %q, want Z", b)
	}
}

func TestFlushCommittedSkipsUncommitted(t *testing.T) {
	m, pf, _ := newTestManager(t, 8)
	idC := pf.Alloc()
	idU := pf.Alloc()

	f, err := m.PinWrite(idC, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 'C'
	m.Unpin(f)
	m.CommitTxn(1, 1)

	f, err = m.PinWrite(idU, 2)
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
	id := pf.Alloc()

	// Establish checkpoint content.
	f, err := m.PinWrite(id, 1)
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
	f, err = m.PinWrite(id, 2)
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
	id := pf.Alloc()
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
	f, err := m.Pin(pf.Alloc())
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
