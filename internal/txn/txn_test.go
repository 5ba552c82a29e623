package txn

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"sedna/internal/buffer"
	"sedna/internal/lock"
	"sedna/internal/pagefile"
	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
	"sedna/internal/wal"
)

type env struct {
	m    *Manager
	pf   *pagefile.File
	snap *pagefile.SnapArea
	log  *wal.Log
	buf  *buffer.Manager
}

func newEnv(t *testing.T) *env {
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
	log, err := wal.Open(filepath.Join(dir, "data.wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	buf := buffer.New(pf, snap, 256)
	m := NewManager(buf, log, pf, lock.New())
	t.Cleanup(func() { log.Close(); snap.Close(); pf.Close() })
	return &env{m: m, pf: pf, snap: snap, log: log, buf: buf}
}

// Storage-layer interface compliance.
var _ storage.Writer = (*Tx)(nil)
var _ storage.Reader = (*Tx)(nil)

func TestCommitMakesWritesVisible(t *testing.T) {
	e := newEnv(t)
	tx := e.m.Begin()
	id, err := tx.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteAt(id.Ptr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := e.m.Begin()
	defer tx2.Rollback()
	err = tx2.ReadPage(id.Ptr(), func(page []byte) error {
		if string(page[:5]) != "hello" {
			t.Fatalf("page = %q", page[:5])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRollbackDiscardsWritesAndRunsUndo(t *testing.T) {
	e := newEnv(t)
	setup := e.m.Begin()
	id, _ := setup.AllocPage()
	setup.WriteAt(id.Ptr(), []byte("AAAA"))
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := e.m.Begin()
	tx.WriteAt(id.Ptr(), []byte("BBBB"))
	undone := false
	tx.Defer(func() { undone = true })
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if !undone {
		t.Fatal("undo did not run")
	}

	tx2 := e.m.BeginReadOnly()
	defer tx2.Rollback()
	tx2.ReadPage(id.Ptr(), func(page []byte) error {
		if string(page[:4]) != "AAAA" {
			t.Fatalf("page = %q after rollback", page[:4])
		}
		return nil
	})
}

func TestReadOnlySnapshotIsolation(t *testing.T) {
	e := newEnv(t)
	w1 := e.m.Begin()
	id, _ := w1.AllocPage()
	w1.WriteAt(id.Ptr(), []byte{1})
	w1.Commit()

	r := e.m.BeginReadOnly()
	defer r.Rollback()

	w2 := e.m.Begin()
	w2.WriteAt(id.Ptr(), []byte{2})
	w2.Commit()

	// Reader still sees version 1; a new reader sees 2.
	r.ReadPage(id.Ptr(), func(page []byte) error {
		if page[0] != 1 {
			t.Fatalf("old snapshot sees %d", page[0])
		}
		return nil
	})
	r2 := e.m.BeginReadOnly()
	defer r2.Rollback()
	r2.ReadPage(id.Ptr(), func(page []byte) error {
		if page[0] != 2 {
			t.Fatalf("new snapshot sees %d", page[0])
		}
		return nil
	})
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	e := newEnv(t)
	r := e.m.BeginReadOnly()
	defer r.Rollback()
	if err := r.WriteAt(sas.MakePtr(1, sas.PageSize), []byte{1}); err != ErrReadOnly {
		t.Fatalf("err = %v", err)
	}
	if _, err := r.AllocPage(); err != ErrReadOnly {
		t.Fatalf("err = %v", err)
	}
}

func TestSnapshotReleasePurgesVersions(t *testing.T) {
	e := newEnv(t)
	w := e.m.Begin()
	id, _ := w.AllocPage()
	w.WriteAt(id.Ptr(), []byte{1})
	w.Commit()

	r := e.m.BeginReadOnly()
	w2 := e.m.Begin()
	w2.WriteAt(id.Ptr(), []byte{2})
	w2.Commit()
	if e.m.SnapshotCount() != 1 {
		t.Fatalf("snapshots = %d", e.m.SnapshotCount())
	}
	r.Rollback()
	if e.m.SnapshotCount() != 0 {
		t.Fatalf("snapshots = %d after release", e.m.SnapshotCount())
	}
	if n := e.buf.VersionCount(); n != 0 {
		t.Fatalf("versions retained after last snapshot released: %d", n)
	}
}

func TestFreedPageRecycledOnlyAfterCommit(t *testing.T) {
	e := newEnv(t)
	w := e.m.Begin()
	id, _ := w.AllocPage()
	w.WriteAt(id.Ptr(), []byte{9})
	w.Commit()

	w2 := e.m.Begin()
	if err := w2.FreePage(id); err != nil {
		t.Fatal(err)
	}
	// Not yet recycled: a concurrent alloc must not get it.
	w3 := e.m.Begin()
	other, _ := w3.AllocPage()
	if other == id {
		t.Fatal("page recycled before freeing txn committed")
	}
	w3.Rollback()
	w2.Commit()
	w4 := e.m.Begin()
	defer w4.Rollback()
	got, _ := w4.AllocPage()
	if got != id {
		t.Fatalf("freed page not recycled: got %v want %v", got, id)
	}
}

func TestRollbackReturnsAllocatedPages(t *testing.T) {
	e := newEnv(t)
	w := e.m.Begin()
	id, _ := w.AllocPage()
	w.Rollback()
	w2 := e.m.Begin()
	defer w2.Rollback()
	got, _ := w2.AllocPage()
	if got != id {
		t.Fatalf("aborted alloc not recycled: got %v want %v", got, id)
	}
}

func TestDocumentOperationsThroughTx(t *testing.T) {
	// End-to-end: storage operations through a real transaction.
	e := newEnv(t)
	tx := e.m.Begin()
	doc, err := storage.CreateDoc(tx, 1, "d.xml")
	if err != nil {
		t.Fatal(err)
	}
	el, err := storage.InsertNode(tx, doc, doc.RootHandle, sas.NilPtr, sas.NilPtr, schema.KindElement, "root", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := storage.InsertNode(tx, doc, el, sas.NilPtr, sas.NilPtr, schema.KindElement, "item", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := storage.VerifyDoc(tx, doc); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Verify through a read-only snapshot too.
	r := e.m.BeginReadOnly()
	defer r.Rollback()
	if err := storage.VerifyDoc(r, doc); err != nil {
		t.Fatalf("snapshot verify: %v", err)
	}
}

func TestAbortedDocumentInvisible(t *testing.T) {
	e := newEnv(t)
	tx := e.m.Begin()
	doc, err := storage.CreateDoc(tx, 1, "d.xml")
	if err != nil {
		t.Fatal(err)
	}
	el, err := storage.InsertNode(tx, doc, doc.RootHandle, sas.NilPtr, sas.NilPtr, schema.KindElement, "root", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = el
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	// The schema undo removed the element's schema node.
	if doc.Schema.Root.Child(schema.KindElement, "root") != nil {
		t.Fatal("schema growth survived rollback")
	}
}

func TestCheckpointPublishesMasterAndResetsSnapArea(t *testing.T) {
	e := newEnv(t)
	tx := e.m.Begin()
	id, _ := tx.AllocPage()
	tx.WriteAt(id.Ptr(), []byte{7})
	tx.Commit()

	lsn, err := e.m.Checkpoint(e.snap, 3)
	if err != nil {
		t.Fatal(err)
	}
	master := e.pf.Master()
	if master.CheckpointLSN != lsn || master.MetaGen != 3 {
		t.Fatalf("master = %+v, lsn %d", master, lsn)
	}
	if master.CommitTS != e.m.CommitTS() {
		t.Fatal("commitTS not recorded")
	}
	if e.snap.Era() != lsn {
		t.Fatalf("snap era = %d", e.snap.Era())
	}
	// Committed data is on disk.
	buf := make([]byte, sas.PageSize)
	if err := e.pf.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 7 {
		t.Fatal("committed page not flushed by checkpoint")
	}
}

func TestCommitTimestampsMonotonic(t *testing.T) {
	e := newEnv(t)
	var last uint64
	for i := 0; i < 10; i++ {
		tx := e.m.Begin()
		id, _ := tx.AllocPage()
		tx.WriteAt(id.Ptr(), []byte{byte(i)})
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if ts := e.m.CommitTS(); ts <= last {
			t.Fatalf("commitTS not monotonic: %d then %d", last, ts)
		} else {
			last = ts
		}
	}
}

func TestUseAfterFinish(t *testing.T) {
	e := newEnv(t)
	tx := e.m.Begin()
	tx.Commit()
	if err := tx.WriteAt(sas.MakePtr(1, sas.PageSize), []byte{1}); err != ErrDone {
		t.Fatalf("err = %v", err)
	}
	if err := tx.Commit(); err != ErrDone {
		t.Fatalf("double commit err = %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("rollback after commit should be a no-op, got %v", err)
	}
}

// TestConcurrentSnapshotReadersShareFrames runs snapshot readers that view
// the pool's frames and version-chain entries directly, against a writer
// rewriting every page in one transaction per version. A reader must find
// each page filled edge to edge with one version — no byte of a writer's
// buffer shows through — and the same version on every page of its
// snapshot; what it copied out of a page view must survive the end of the
// transaction. Two goroutines share each snapshot, as the parallel
// executor's workers do. Run under -race.
func TestConcurrentSnapshotReadersShareFrames(t *testing.T) {
	e := newEnv(t)
	const pages = 24
	fill := func(tx *Tx, ids []sas.PageID, version byte) {
		buf := make([]byte, sas.PageSize)
		for i, id := range ids {
			for j := range buf {
				buf[j] = version
			}
			buf[0] = byte(i)
			if err := tx.WriteAt(id.Ptr(), buf); err != nil {
				t.Error(err)
			}
		}
	}
	setup := e.m.Begin()
	ids := make([]sas.PageID, pages)
	for i := range ids {
		id, err := setup.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	fill(setup, ids, 1)
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	// Snapshots begin whenever they like, in the middle of a commit too: the
	// manager makes a commit's pages visible in one step.
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for v := byte(2); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if v == 0 {
				v = 1
			}
			w := e.m.Begin()
			fill(w, ids, v)
			if err := w.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// readHalf checks the pages at one parity through one access path and
	// returns the version they carry.
	readHalf := func(r *Tx, parity int, kept [][]byte) (byte, error) {
		var version byte
		for i := parity; i < pages; i += 2 {
			check := func(page []byte) error {
				v := page[1]
				if page[0] != byte(i) {
					return fmt.Errorf("page %d carries index %d", i, page[0])
				}
				for j := 1; j < len(page); j++ {
					if page[j] != v {
						return fmt.Errorf("page %d: byte %d is %d inside version %d", i, j, page[j], v)
					}
				}
				if version != 0 && v != version {
					return fmt.Errorf("page %d at version %d, earlier pages at %d", i, v, version)
				}
				version = v
				kept[i] = append(kept[i][:0], page[:64]...)
				return nil
			}
			var err error
			if parity == 0 {
				err = r.ReadPage(ids[i].Ptr(), check)
			} else {
				var page []byte
				var pin any
				if page, pin, err = r.ViewPage(ids[i].Ptr()); err == nil {
					err = check(page)
					r.ReleasePage(pin)
				}
			}
			if err != nil {
				return 0, err
			}
		}
		return version, nil
	}
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			kept := make([][]byte, pages)
			for round := 0; round < 150; round++ {
				r := e.m.BeginReadOnly()
				var versions [2]byte
				var errs [2]error
				var halves sync.WaitGroup
				for parity := 0; parity < 2; parity++ {
					halves.Add(1)
					go func(parity int) {
						defer halves.Done()
						versions[parity], errs[parity] = readHalf(r, parity, kept)
					}(parity)
				}
				halves.Wait()
				if err := r.Commit(); err != nil {
					t.Error(err)
					return
				}
				if errs[0] != nil || errs[1] != nil || versions[0] != versions[1] {
					t.Errorf("round %d: versions %v, errors %v", round, versions, errs)
					return
				}
				for i, b := range kept {
					if b[0] != byte(i) || b[1] != versions[0] || b[63] != versions[0] {
						t.Errorf("round %d: bytes copied out of page %d changed after the transaction ended", round, i)
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// TestScanReaderHandsPagesBack: a ScanReader shows exactly the transaction's
// snapshot — pages committed before it from their frames, pages rewritten
// after it from their version chains — and a pass over cold pages keeps no
// more of them in the pool than its ring holds, and none after Close; a page
// the pass still views is never taken from under it, and pages that were
// resident before the pass stay.
func TestScanReaderHandsPagesBack(t *testing.T) {
	e := newEnv(t)
	const pages, ring, rewritten = 40, 4, 5
	setup := e.m.Begin()
	ids := make([]sas.PageID, pages)
	buf := make([]byte, sas.PageSize)
	for i := range ids {
		id, err := setup.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		for j := range buf {
			buf[j] = 1
		}
		buf[0] = byte(i)
		if err := setup.WriteAt(id.Ptr(), buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	r := e.m.BeginReadOnly()
	defer r.Rollback()
	// A later commit rewrites the first pages; the snapshot must not see it.
	w := e.m.Begin()
	for _, id := range ids[:rewritten] {
		if err := w.WriteAt(id.Ptr().Add(1), []byte{2, 2, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// Cold pool, except for two pages some statement is using.
	if err := e.buf.FlushCommitted(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		e.buf.Discard(id)
	}
	if n := e.buf.FrameCount(); n != 0 {
		t.Fatalf("%d frames left after discarding every page", n)
	}
	for _, id := range ids[pages-2:] {
		if err := r.ReadPage(id.Ptr(), func([]byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}

	s := r.ScanReader(ring)
	check := func(i int, page []byte) {
		t.Helper()
		if page[0] != byte(i) || page[1] != 1 || page[3] != 1 || page[sas.PageSize-1] != 1 {
			t.Fatalf("page %d reads %v … %d, want index %d at version 1", i, page[:4], page[sas.PageSize-1], i)
		}
	}
	held, pin, err := s.ViewPage(ids[rewritten].Ptr())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if i%2 == 0 {
			err = s.ReadPage(ids[i].Ptr(), func(page []byte) error { check(i, page); return nil })
		} else {
			var page []byte
			var p any
			if page, p, err = s.ViewPage(ids[i].Ptr()); err == nil {
				check(i, page)
				s.ReleasePage(p)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		check(rewritten, held) // viewed throughout: never handed back
	}
	s.ReleasePage(pin)
	// The rewritten pages were served from their chains and loaded nothing,
	// so what is resident is the two warm pages, the held page and at most a
	// ring of the rest.
	if n := e.buf.FrameCount(); n > 2+1+ring {
		t.Fatalf("%d frames resident after a pass over %d cold pages with a ring of %d", n, pages, ring)
	}
	s.Close()
	if n := e.buf.FrameCount(); n > 2+1 {
		t.Fatalf("%d frames resident after Close: the ring was not handed back", n)
	}
	for _, id := range ids[pages-2:] {
		before := e.buf.Stats().Hits
		if err := r.ReadPage(id.Ptr(), func([]byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if e.buf.Stats().Hits != before+1 {
			t.Fatalf("page %v was resident before the pass and is gone after it", id)
		}
	}
}

// TestViewPageAllocations: a warm page view — a frame of the pool for either
// transaction kind, a version-chain entry for a snapshot behind a commit —
// and its release allocate nothing.
func TestViewPageAllocations(t *testing.T) {
	e := newEnv(t)
	w := e.m.Begin()
	id, err := w.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAt(id.Ptr(), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	old := e.m.BeginReadOnly()
	defer old.Rollback()
	w = e.m.Begin()
	if err := w.WriteAt(id.Ptr(), []byte{2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	cur := e.m.BeginReadOnly()
	defer cur.Rollback()
	upd := e.m.Begin()
	defer upd.Rollback()
	for _, c := range []struct {
		name string
		r    storage.Reader
		want byte
	}{{"snapshot on the frame", cur, 2}, {"snapshot on the chain", old, 1}, {"updater", upd, 2}} {
		var got byte
		allocs := testing.AllocsPerRun(200, func() {
			page, pin, err := c.r.ViewPage(id.Ptr())
			if err != nil {
				t.Fatal(err)
			}
			got = page[0]
			c.r.ReleasePage(pin)
		})
		if got != c.want {
			t.Fatalf("%s reads %d, want %d", c.name, got, c.want)
		}
		if allocs != 0 {
			t.Fatalf("%s: a warm ViewPage/ReleasePage pair made %.0f allocations", c.name, allocs)
		}
	}
}
