package core_test

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sedna/internal/core"
	"sedna/internal/query"
	"sedna/internal/xmlgen"
)

// TestParallelReadOnlyQueries drives many snapshot readers through the full
// engine stack at once. Every dereference takes the sharded buffer
// manager's stripe read-lock fast path; under -race this checks that
// concurrent readers share frames, slots and pin counts without a data
// race, and every reader must compute the same answer over the quiescent
// document.
func TestParallelReadOnlyQueries(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true, BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tx, _ := db.Begin()
	if _, err := tx.LoadXML("lib", strings.NewReader(xmlgen.LibraryString(300, 5))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := docCount(t, db, `count(doc("lib")//book)`)

	const goroutines = 8
	const queriesEach = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				rtx, err := db.BeginReadOnly()
				if err != nil {
					errs <- err
					return
				}
				res, err := query.Execute(query.NewExecCtx(rtx), `count(doc("lib")//book)`)
				if err != nil {
					errs <- err
					rtx.Rollback()
					return
				}
				s, _ := res.String()
				rtx.Rollback()
				var n int
				fmt.Sscanf(s, "%d", &n)
				if n != want {
					errs <- fmt.Errorf("parallel reader counted %d books, want %d", n, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestHotDocumentReadersDuringWrites is the mixed read/write gate on one hot,
// indexed, ANALYZEd document: one writer commits keyed updates back to back
// while readers look the same key up. Every read must reflect the last
// commit acknowledged before it started, and once the writer stops, the
// last one. Run under -race.
func TestHotDocumentReadersDuringWrites(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true, BufferPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec := func(src string) {
		t.Helper()
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := query.Execute(query.NewExecCtx(tx), src); err != nil {
			tx.Rollback()
			t.Fatalf("%s: %v", src, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tx, _ := db.Begin()
	if _, err := tx.LoadXML("auction", strings.NewReader(xmlgen.AuctionString(1500, 1500, 4, 3))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	exec(`CREATE INDEX "auction_id" ON doc("auction")/site/open_auctions/open_auction BY @id AS string`)
	exec(`ANALYZE doc("auction")`)
	const current = `doc("auction")/site/open_auctions/open_auction[@id = "a77"]/current`
	exec(`UPDATE replace $c in ` + current + ` with <current>0</current>`)

	// started counts update statements handed to the engine, acked the ones
	// whose commit returned: a read must see a value between the two.
	var started, acked atomic.Int64
	read := func() (int64, error) {
		rtx, err := db.BeginReadOnly()
		if err != nil {
			return 0, err
		}
		defer rtx.Rollback()
		res, err := query.Execute(query.NewExecCtx(rtx), `string(`+current+`)`)
		if err != nil {
			return 0, err
		}
		s, err := res.String()
		if err != nil {
			return 0, err
		}
		return strconv.ParseInt(s, 10, 64)
	}
	// Readers start at the writer's first commit and the writer keeps
	// committing until every reader has done its reads, so all of them run
	// while commits flow.
	const readers, readsEach, minCommits = 4, 40, 50
	errs := make(chan error, readers+1)
	firstCommit := make(chan struct{})
	var readersLeft atomic.Int64
	readersLeft.Store(readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer readersLeft.Add(-1)
			<-firstCommit
			for i := 0; i < readsEach; i++ {
				lo := acked.Load()
				v, err := read()
				hi := started.Load()
				if err == nil && (v < lo || v > hi) {
					err = fmt.Errorf("read saw current=%d; acknowledged before it %d, started by its end %d", v, lo, hi)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var once sync.Once
		defer once.Do(func() { close(firstCommit) }) // release the readers on a failure too
		for i := int64(1); i <= minCommits || readersLeft.Load() > 0; i++ {
			wtx, err := db.Begin()
			if err != nil {
				errs <- err
				return
			}
			started.Store(i)
			src := fmt.Sprintf(`UPDATE replace $c in %s with <current>%d</current>`, current, i)
			if _, err := query.Execute(query.NewExecCtx(wtx), src); err != nil {
				wtx.Rollback()
				errs <- err
				return
			}
			if err := wtx.Commit(); err != nil {
				errs <- err
				return
			}
			acked.Store(i)
			once.Do(func() { close(firstCommit) })
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	commits := acked.Load()

	c := db.Metrics().Snapshot().Counters
	if c["lock.deadlock_aborts"] != 0 || c["lock.timeouts"] != 0 {
		t.Errorf("deadlock_aborts=%d timeouts=%d, want 0/0", c["lock.deadlock_aborts"], c["lock.timeouts"])
	}
	if v, err := read(); err != nil || v != commits {
		t.Fatalf("read after the writer stopped = %d, %v; want %d", v, err, commits)
	}
}
