package txn

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"sedna/internal/buffer"
	"sedna/internal/lock"
	"sedna/internal/metrics"
	"sedna/internal/pagefile"
	"sedna/internal/sas"
	"sedna/internal/wal"
)

// newDurableEnv builds a manager whose WAL really fsyncs over a pool of the
// given number of frames, so concurrent commits exercise the group-commit
// leader/follower protocol end to end.
func newDurableEnv(t *testing.T, frames int) (*env, *metrics.Registry) {
	t.Helper()
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	pf, err := pagefile.Open(filepath.Join(dir, "data.sdb"), pagefile.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := pagefile.OpenSnapArea(filepath.Join(dir, "data.snap"), pagefile.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(filepath.Join(dir, "data.wal"), wal.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	buf := buffer.NewWithMetrics(pf, snap, frames, reg)
	m := NewManagerWithMetrics(buf, log, pf, lock.New(), reg)
	t.Cleanup(func() { log.Close(); snap.Close(); pf.Close() })
	return &env{m: m, pf: pf, snap: snap, log: log, buf: buf}, reg
}

// TestConcurrentCommitsAndSnapshotReaders runs writers (one page each, as
// document 2PL guarantees above this layer) committing through the durable
// group-commit WAL, racing snapshot readers that check the §6.3 invariant:
// a read-only transaction sees one frozen, untorn state of a page no matter
// how often it re-reads it.
func TestConcurrentCommitsAndSnapshotReaders(t *testing.T) {
	e, reg := newDurableEnv(t, 256)

	const writers = 2
	const readers = 2
	const commits = 40

	setup := e.m.Begin()
	pages := make([]sas.PageID, writers)
	for i := range pages {
		id, err := setup.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		pages[i] = id
		if err := setup.WriteAt(id.Ptr(), bytes.Repeat([]byte{1}, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				tx := e.m.Begin()
				v := byte(2 + i%250)
				if err := tx.WriteAt(pages[w].Ptr(), bytes.Repeat([]byte{v}, 8)); err != nil {
					errc <- err
					tx.Rollback()
					return
				}
				if i%9 == 4 {
					if err := tx.Rollback(); err != nil {
						errc <- err
						return
					}
					continue
				}
				if err := tx.Commit(); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				rtx := e.m.BeginReadOnly()
				id := pages[(r+i)%len(pages)]
				var first []byte
				for pass := 0; pass < 2; pass++ {
					err := rtx.ReadPage(id.Ptr(), func(page []byte) error {
						head := page[:8]
						for _, b := range head[1:] {
							if b != head[0] {
								return fmt.Errorf("torn snapshot read: % x", head)
							}
						}
						if pass == 0 {
							first = append([]byte(nil), head...)
						} else if !bytes.Equal(first, head) {
							return fmt.Errorf("snapshot moved within one txn: % x -> % x", first, head)
						}
						return nil
					})
					if err != nil {
						errc <- err
						rtx.Rollback()
						return
					}
				}
				rtx.Rollback()
			}
		}(r)
	}

	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Rolled-back transactions may leave unflushed abort records; one more
	// flush must make the whole log durable, and commits must have run
	// through group-commit rounds.
	if err := e.log.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.log.DurableLSN() != e.log.NextLSN() {
		t.Fatal("WAL end not durable after flush")
	}
	snap := reg.Snapshot()
	if snap.Counters["wal.group_commits"] == 0 {
		t.Fatal("no group-commit rounds recorded")
	}
	if snap.Counters["wal.group_commit_txns"] < snap.Counters["wal.group_commits"] {
		t.Fatal("group accounting: fewer flushers than rounds")
	}
}
