package query

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sedna/internal/core"
	"sedna/internal/sas"
	"sedna/internal/xmlgen"
)

// TestHeldViewAllocations: a read a statement worker serves from a view it
// holds allocates nothing, and release lets every view go.
func TestHeldViewAllocations(t *testing.T) {
	db := testDB(t)
	tx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	doc, err := tx.Document("lib")
	if err != nil {
		t.Fatal(err)
	}
	h := heldViews{tx: tx.Tx}
	defer h.release()
	want, _, err := h.ViewPage(doc.RootHandle)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		page, pin, err := h.ViewPage(doc.RootHandle)
		if err != nil || &page[0] != &want[0] {
			t.Fatalf("held view: %v, or another page than the first view's", err)
		}
		h.ReleasePage(pin)
	})
	if allocs != 0 {
		t.Fatalf("a read from a held view made %.0f allocations", allocs)
	}
	if n := tx.PagesTouched(); n != 1 {
		t.Fatalf("%d buffer-pool views for one page, want 1", n)
	}
	h.release()
	for _, v := range h.views {
		if v.page != nil {
			t.Fatal("a view is still held after release")
		}
	}
}

// TestHeldViewsReleased: whether a statement succeeds, fails or is killed,
// serially or on four workers, no frame stays pinned behind it — checked
// while its transaction is still open, by handing every page of the
// checkpointed database back to the pool and finding none left.
func TestHeldViewsReleased(t *testing.T) {
	lowerScanGate(t)
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true, BufferPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tx0, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx0.LoadXML("cat", strings.NewReader(xmlgen.SectionsString(8, 200, 1))); err != nil {
		t.Fatal(err)
	}
	if err := tx0.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(db.Dir(), "data.sdb"))
	if err != nil {
		t.Fatal(err)
	}
	pinned := func() int {
		for g := uint64(0); g < uint64(st.Size()/sas.PageSize); g++ {
			db.Buffer().Discard(sas.PageIDFromGlobal(g))
		}
		return db.Buffer().FrameCount()
	}

	for _, workers := range []int{1, 4} {
		for _, c := range []struct {
			name, src string
			kill      bool
		}{
			{"success", `count(doc("cat")//item[value > 5000])`, false},
			{"error", `doc("cat")//item/value + 1`, false},
			{"kill", `count(doc("cat")//item[count(doc("cat")//item) > 0])`, true},
		} {
			tx, err := db.BeginReadOnly()
			if err != nil {
				t.Fatal(err)
			}
			ctx := NewExecCtx(tx)
			ctx.Workers = workers
			done := make(chan error, 1)
			go func() {
				res, err := Execute(ctx, c.src)
				if err == nil {
					_, err = res.String()
				}
				done <- err
			}()
			if c.kill {
				time.Sleep(10 * time.Millisecond)
				ctx.Kill()
			}
			err = <-done
			switch {
			case c.kill && !errors.Is(err, ErrKilled), !c.kill && (err != nil) != (c.name == "error"):
				t.Errorf("workers=%d %s: %v", workers, c.name, err)
			}
			if n := pinned(); n != 0 {
				t.Errorf("workers=%d %s: %d frames still pinned after the statement", workers, c.name, n)
			}
			tx.Rollback()
		}
	}
}
