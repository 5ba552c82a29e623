package main

import (
	"fmt"
	"time"

	"sedna/internal/bench"
)

func init() {
	experiments = append(experiments,
		experiment{"E19", "chain-following scan readahead (§2.3, §4.1)", runE19},
	)
}

// runE19 measures cold-cache block-list chain scans under increasing
// chain-readahead depth. The corpus is built once and the database closed;
// each measured run then reopens the directory — so the buffer pool starts
// empty and every block chain must come off disk — and scans it. The
// measurement covers open + query because the open itself performs the
// biggest chain walk in the engine (the recovery-time block recount visits
// every block of every chain). A cold miss is the same load at every depth
// (one synchronous pread into a pool frame); depth > 0 only lets the
// asynchronous workers follow nextBlock chains ahead of the scan when spare
// cores exist. The table reports, per depth, the readahead counters and the
// average pages moved per batched read; results are checked identical at
// every depth.
func runE19(s *session) error {
	dir, cleanup, err := bench.TempDir("sedna-e19-*")
	if err != nil {
		return err
	}
	defer cleanup()

	// Build the corpus, pin the expected answer, and close so the
	// measurement runs start from durable pages and a cold pool.
	db, err := bench.OpenDBMetrics(dir, s.reg)
	if err != nil {
		return err
	}
	if err := bench.LoadSections(db, 8, 1000*s.scale); err != nil {
		db.Close()
		return err
	}
	q := `count(doc("cat")//item)`
	want, _, err := bench.Query(db, q, true)
	if err != nil {
		db.Close()
		return err
	}
	if err := db.Close(); err != nil {
		return err
	}

	reps := 3 * s.scale
	var rows [][]string
	var base time.Duration
	for _, depth := range []int{0, 2, 8, 32} {
		issued0 := s.reg.Counter("buffer.prefetch_issued").Value()
		hits0 := s.reg.Counter("buffer.prefetch_hits").Value()
		wasted0 := s.reg.Counter("buffer.prefetch_wasted").Value()
		breads0 := s.reg.Counter("pagefile.batch_reads").Value()
		bpages0 := s.reg.Counter("pagefile.batch_pages").Value()

		var total time.Duration
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			db, err := bench.OpenDBPrefetch(dir, s.reg, depth)
			if err != nil {
				return err
			}
			got, _, qerr := bench.Query(db, q, true)
			total += time.Since(t0)
			cerr := db.Close()
			if qerr != nil {
				return qerr
			}
			if cerr != nil {
				return cerr
			}
			if got != want {
				return fmt.Errorf("E19: depth=%d result diverges from the depth-0 answer", depth)
			}
		}
		avg := total / time.Duration(reps)
		if depth == 0 {
			base = avg
		}
		issued := s.reg.Counter("buffer.prefetch_issued").Value() - issued0
		hits := s.reg.Counter("buffer.prefetch_hits").Value() - hits0
		wasted := s.reg.Counter("buffer.prefetch_wasted").Value() - wasted0
		breads := s.reg.Counter("pagefile.batch_reads").Value() - breads0
		bpages := s.reg.Counter("pagefile.batch_pages").Value() - bpages0
		perBatch := "-"
		if breads > 0 {
			perBatch = fmt.Sprintf("%.1f", float64(bpages)/float64(breads))
		}
		rows = append(rows, []string{
			fmt.Sprint(depth), dur(avg), ratio(base, avg),
			fmt.Sprint(issued), fmt.Sprint(hits), fmt.Sprint(wasted), perBatch,
		})
	}
	s.out.table(
		[]string{"depth", "cold open+scan", "speedup", "issued", "hits", "wasted", "pages/batch"},
		rows,
	)
	fmt.Println("expected shape: depth 0 is the demand-paging baseline (no readahead activity); at depth > 0 the chain workers load ahead only as far as they get scheduled before the scan faults the page in itself, so on a host without a spare core (and with the file in the OS page cache) every depth runs at the baseline and issued stays near zero; results are identical at every depth")
	return nil
}
