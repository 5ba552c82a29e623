package main

import (
	"fmt"
	"sync"
	"time"

	"sedna"
	"sedna/internal/bench"
)

// e17MaxReaders is the largest reader fan-out E17 measures.
const e17MaxReaders = 8

// runE17 measures two serialization points: reader goroutines running the
// same snapshot query (stripe read-locks in the buffer manager) and writer
// goroutines committing through the durable WAL (group commit). Reader
// fan-out levels run at 1, 2, 4, ... up to e17MaxReaders; speedup is
// relative to the single-reader level. Readers can scale only onto free
// cores, so on a 2-core host the speedup stays below 2x — the claim is the
// absence of lock serialization.
func runE17(s *session) error {
	dir, cleanup, err := bench.TempDir("sedna-e17-*")
	if err != nil {
		return err
	}
	defer cleanup()
	db, err := bench.OpenDB(dir)
	if err != nil {
		return err
	}
	if err := bench.LoadLibrary(db, 400*s.scale); err != nil {
		db.Close()
		return err
	}
	q := `count(doc("lib")/library/book)`
	if _, err := db.Query(q); err != nil { // warm the pool and the mapping
		db.Close()
		return err
	}

	total := 400 * s.scale // queries per fan-out level
	var rows [][]string
	var base time.Duration
	for g := 1; g <= e17MaxReaders; g *= 2 {
		elapsed, err := parallelQueries(db, q, g, total)
		if err != nil {
			db.Close()
			return err
		}
		if g == 1 {
			base = elapsed
		}
		qps := float64(total) / elapsed.Seconds()
		rows = append(rows, []string{
			fmt.Sprint(g), dur(elapsed), fmt.Sprintf("%.0f", qps), ratio(base, elapsed),
		})
	}
	db.Close()
	table([]string{"readers", "wall time", "queries/s", "speedup vs 1"}, rows)

	if err := runE17Writers(s); err != nil {
		return err
	}
	fmt.Println("expected shape: reader throughput scales with free cores; grouped commits need at most one fsync each")
	return nil
}

// parallelQueries runs total queries split across g goroutines and returns
// the wall time.
func parallelQueries(db *sedna.DB, q string, g, total int) (time.Duration, error) {
	var wg sync.WaitGroup
	errc := make(chan error, g)
	start := time.Now()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := total / g
			if i < total%g {
				n++
			}
			for j := 0; j < n; j++ {
				if _, _, err := bench.Query(db.Internal(), q, nil); err != nil {
					errc <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return 0, err
	default:
	}
	return time.Since(start), nil
}

// runE17Writers commits small updates from concurrent writers against a
// durable WAL and reports how many fsyncs the commits cost — group commit
// batches concurrent committers into shared rounds.
func runE17Writers(s *session) error {
	dir, cleanup, err := bench.TempDir("sedna-e17w-*")
	if err != nil {
		return err
	}
	defer cleanup()
	db, err := sedna.Open(dir, &sedna.Options{BufferPages: 8192})
	if err != nil {
		return err
	}
	defer db.Close()
	const writers = 4
	commits := 25 * s.scale // per writer
	for w := 0; w < writers; w++ {
		if err := db.LoadXMLString(fmt.Sprintf("w%d", w),
			"<library><book><title>seed</title></book></library>"); err != nil {
			return err
		}
	}
	snap0 := db.Metrics().Snapshot().Counters
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stmt := fmt.Sprintf(`UPDATE insert <book><title>x</title></book> into doc("w%d")/library`, w)
			for i := 0; i < commits; i++ {
				if _, err := db.Execute(stmt); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		return err
	default:
	}
	snap1 := db.Metrics().Snapshot().Counters
	totalCommits := writers * commits
	fsyncs := snap1["wal.fsyncs"] - snap0["wal.fsyncs"]
	rounds := snap1["wal.group_commits"] - snap0["wal.group_commits"]
	table(
		[]string{"writers", "commits", "wall time", "commits/s", "fsyncs", "fsyncs/commit", "commit rounds"},
		[][]string{{
			fmt.Sprint(writers), fmt.Sprint(totalCommits), dur(elapsed),
			fmt.Sprintf("%.0f", float64(totalCommits)/elapsed.Seconds()),
			fmt.Sprint(fsyncs),
			fmt.Sprintf("%.2f", float64(fsyncs)/float64(totalCommits)),
			fmt.Sprint(rounds),
		}},
	)
	return nil
}
