package pagefile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sedna/internal/sas"
)

func openTemp(t *testing.T) *File {
	t.Helper()
	pf, err := Open(filepath.Join(t.TempDir(), "data.sdb"), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return pf
}

func TestOpenCreatesMaster(t *testing.T) {
	pf := openTemp(t)
	m := pf.Master()
	if m.NextAlloc != 1 {
		t.Fatalf("NextAlloc = %d, want 1 (page 0 reserved)", m.NextAlloc)
	}
}

func TestReopenKeepsMaster(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.sdb")
	pf, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.WriteMaster(Master{NextAlloc: 42, CheckpointLSN: 7, CommitTS: 9, CleanShutdown: true}); err != nil {
		t.Fatal(err)
	}
	pf.Close()

	pf2, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	m := pf2.Master()
	if m.NextAlloc != 42 || m.CheckpointLSN != 7 || m.CommitTS != 9 || !m.CleanShutdown {
		t.Fatalf("master = %+v", m)
	}
	if pf2.NextAlloc() != 42 {
		t.Fatalf("live allocator = %d", pf2.NextAlloc())
	}
}

func TestPageRoundTrip(t *testing.T) {
	pf := openTemp(t)
	id, _ := pf.Alloc()
	data := make([]byte, sas.PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := pf.WritePage(id, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, sas.PageSize)
	if err := pf.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("page contents differ after round trip")
	}
}

func TestReadBeyondEOFIsZero(t *testing.T) {
	pf := openTemp(t)
	buf := make([]byte, sas.PageSize)
	buf[0] = 0xFF
	if err := pf.ReadPage(sas.PageID{Layer: 1, Page: 100}, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want zero page", i, b)
		}
	}
}

func TestAllocSequentialAndRecycle(t *testing.T) {
	pf := openTemp(t)
	a, aFresh := pf.Alloc()
	b, bFresh := pf.Alloc()
	if a.GlobalIndex()+1 != b.GlobalIndex() {
		t.Fatalf("allocations not dense: %v then %v", a, b)
	}
	if !aFresh || !bFresh {
		t.Fatalf("pages past the end of the file reported recycled: %v %v", aFresh, bFresh)
	}
	pf.Free(a)
	c, cFresh := pf.Alloc()
	if c != a {
		t.Fatalf("free page not recycled: got %v want %v", c, a)
	}
	if cFresh {
		t.Fatal("a page from the free list reported fresh")
	}
}

func TestFreeMasterPanics(t *testing.T) {
	pf := openTemp(t)
	defer func() {
		if recover() == nil {
			t.Fatal("freeing master page must panic")
		}
	}()
	pf.Free(MasterPageID)
}

func TestResetAllocator(t *testing.T) {
	pf := openTemp(t)
	pf.Alloc()
	pf.Alloc()
	free := []sas.PageID{{Layer: 1, Page: 9}}
	pf.ResetAllocator(5, free)
	if pf.NextAlloc() != 5 {
		t.Fatalf("NextAlloc = %d", pf.NextAlloc())
	}
	if got := pf.FreeList(); len(got) != 1 || got[0] != free[0] {
		t.Fatalf("free list = %v", got)
	}
	// Alloc consumes the free list first.
	if id, _ := pf.Alloc(); id != free[0] {
		t.Fatalf("Alloc = %v", id)
	}
	if id, _ := pf.Alloc(); id.GlobalIndex() != 5 {
		t.Fatalf("Alloc = %v", id)
	}
}

func TestIsFreshSinceCheckpoint(t *testing.T) {
	pf := openTemp(t)
	if err := pf.WriteMaster(Master{NextAlloc: 10}); err != nil {
		t.Fatal(err)
	}
	if pf.IsFreshSinceCheckpoint(sas.PageIDFromGlobal(9)) {
		t.Fatal("page 9 existed at checkpoint")
	}
	if !pf.IsFreshSinceCheckpoint(sas.PageIDFromGlobal(10)) {
		t.Fatal("page 10 is fresh")
	}
}

func TestCorruptMagicRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.sdb")
	pf, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	pf.Close()
	// Clobber the magic.
	f, err := osOpenRW(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("NOTSEDNA"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(path, Options{NoSync: true}); err == nil {
		t.Fatal("corrupt magic must be rejected")
	}
}

func TestSnapAreaRoundTrip(t *testing.T) {
	sa, err := OpenSnapArea(filepath.Join(t.TempDir(), "data.snap"), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()

	id := sas.PageID{Layer: 1, Page: 3}
	data := make([]byte, sas.PageSize)
	data[0] = 0xAB
	if err := sa.Save(id, data); err != nil {
		t.Fatal(err)
	}
	if !sa.Saved(id) {
		t.Fatal("Saved must report true after Save")
	}
	// A second save of the same page is a no-op.
	other := make([]byte, sas.PageSize)
	other[0] = 0xCD
	if err := sa.Save(id, other); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	err = sa.Restore(func(gotID sas.PageID, d []byte) error {
		if gotID != id {
			t.Fatalf("restored id = %v", gotID)
		}
		cp := make([]byte, len(d))
		copy(cp, d)
		got = append(got, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0] != 0xAB {
		t.Fatalf("restore entries = %d, first byte %#x", len(got), got[0][0])
	}
	if sa.Len() != 1 {
		t.Fatalf("Len = %d", sa.Len())
	}
	if err := sa.Reset(33); err != nil {
		t.Fatal(err)
	}
	if sa.Saved(id) || sa.Len() != 0 {
		t.Fatal("Reset must clear the saved set")
	}
	if sa.Era() != 33 {
		t.Fatalf("Era = %d, want 33", sa.Era())
	}
}

func TestSnapAreaEraPersists(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.snap")
	sa, err := OpenSnapArea(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if sa.Era() != 0 {
		t.Fatalf("fresh era = %d", sa.Era())
	}
	if err := sa.Reset(88); err != nil {
		t.Fatal(err)
	}
	// Saves after a reset go into the new era.
	if err := sa.Save(sas.PageID{Layer: 1, Page: 2}, make([]byte, sas.PageSize)); err != nil {
		t.Fatal(err)
	}
	sa.Close()

	sa2, err := OpenSnapArea(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sa2.Close()
	if sa2.Era() != 88 {
		t.Fatalf("era after reopen = %d, want 88", sa2.Era())
	}
	if sa2.Len() != 1 {
		t.Fatalf("Len after reopen = %d", sa2.Len())
	}
}

func TestSnapAreaSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.snap")
	sa, err := OpenSnapArea(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	id := sas.PageID{Layer: 2, Page: 8}
	data := make([]byte, sas.PageSize)
	if err := sa.Save(id, data); err != nil {
		t.Fatal(err)
	}
	sa.Close()

	sa2, err := OpenSnapArea(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sa2.Close()
	if !sa2.Saved(id) {
		t.Fatal("saved set must be rebuilt on reopen")
	}
}

func TestSnapAreaIgnoresTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.snap")
	sa, err := OpenSnapArea(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	id := sas.PageID{Layer: 1, Page: 1}
	data := make([]byte, sas.PageSize)
	if err := sa.Save(id, data); err != nil {
		t.Fatal(err)
	}
	sa.Close()

	// Append half an entry, simulating a crash mid-write.
	f, err := osOpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sa2, err := OpenSnapArea(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sa2.Close()
	count := 0
	if err := sa2.Restore(func(sas.PageID, []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("restored %d entries, want 1 (torn tail ignored)", count)
	}
}

func TestShortReadAtEOFZeroFills(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.sdb")
	pf, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := pf.Alloc()
	data := make([]byte, sas.PageSize)
	for i := range data {
		data[i] = 0xAB
	}
	if err := pf.WritePage(id, data); err != nil {
		t.Fatal(err)
	}
	pf.Close()

	// Truncate the file mid-page so the last page is partial: a crash can
	// leave exactly this shape, and the missing tail must read as zeros,
	// not as whatever the caller's buffer held.
	off := int64(id.GlobalIndex())*sas.PageSize + 100
	if err := os.Truncate(path, off); err != nil {
		t.Fatal(err)
	}
	pf, err = Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	buf := make([]byte, sas.PageSize)
	for i := range buf {
		buf[i] = 0xFF // stale garbage the read must overwrite
	}
	if err := pf.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if buf[i] != 0xAB {
			t.Fatalf("byte %d = %#x, want surviving prefix 0xAB", i, buf[i])
		}
	}
	for i := 100; i < len(buf); i++ {
		if buf[i] != 0 {
			t.Fatalf("byte %d = %#x, want zero-filled tail", i, buf[i])
		}
	}
}
