package main

import (
	"fmt"
	"strings"
	"time"

	"sedna"
	"sedna/internal/bench"
	"sedna/internal/lock"
	"sedna/internal/query"
	"sedna/internal/storage"
)

func runE4(s *session) error {
	var rows [][]string
	for _, fanout := range []int{2, 8, 32} {
		indirect, direct, err := measureMove(fanout)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprint(fanout), dur(indirect), dur(direct), ratio(direct, indirect),
		})
	}
	table([]string{"children per moved node", "indirect parent (Sedna)", "direct parent (baseline)", "overhead"}, rows)
	fmt.Println("expected shape: indirect cost flat in fan-out; direct-parent cost grows with it")
	return nil
}

func measureMove(fanout int) (indirect, direct time.Duration, err error) {
	for pass := 0; pass < 2; pass++ {
		dir, cleanup, err := bench.TempDir("sedna-e4-*")
		if err != nil {
			return 0, 0, err
		}
		db, err := bench.OpenDB(dir)
		if err != nil {
			cleanup()
			return 0, 0, err
		}
		var sb strings.Builder
		sb.WriteString("<r>")
		for i := 0; i < 600; i++ {
			sb.WriteString("<e>")
			for j := 0; j < fanout; j++ {
				sb.WriteString("<c/>")
			}
			sb.WriteString("</e>")
		}
		sb.WriteString("</r>")
		if err := db.LoadXMLString("d", sb.String()); err != nil {
			db.Close()
			cleanup()
			return 0, 0, err
		}
		tx, err := db.Internal().Begin()
		if err != nil {
			db.Close()
			cleanup()
			return 0, 0, err
		}
		doc, _ := tx.Document("d")
		tx.LockDocument("d", lock.Exclusive)
		eSn := doc.Schema.Root.Children[0].Children[0]
		start := time.Now()
		const reps = 30
		for i := 0; i < reps; i++ {
			moved, err := storage.MoveFirstRun(tx.Tx, doc, eSn)
			if err != nil {
				tx.Rollback()
				db.Close()
				cleanup()
				return 0, 0, err
			}
			if pass == 1 {
				if err := storage.SimulateDirectParentFixups(tx.Tx, doc, eSn, moved); err != nil {
					tx.Rollback()
					db.Close()
					cleanup()
					return 0, 0, err
				}
			}
		}
		elapsed := time.Since(start) / reps
		tx.Rollback()
		db.Close()
		cleanup()
		if pass == 0 {
			indirect = elapsed
		} else {
			direct = elapsed
		}
	}
	return indirect, direct, nil
}

func runE10(s *session) error {
	db, cleanup, err := s.openLoaded(200)
	if err != nil {
		return err
	}
	defer cleanup()

	// Readers against an updater that commits batch after batch. That a
	// snapshot statement waits for no lock at all is a test in internal/core,
	// TestSnapshotStatementsIgnoreHeldLock.
	q := `count(doc("lib")/library/book)`
	var frag strings.Builder
	frag.WriteString("<batch>")
	for j := 0; j < 200; j++ {
		frag.WriteString("<row>payload</row>")
	}
	frag.WriteString("</batch>")
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			stmt := fmt.Sprintf(`UPDATE insert %s into doc("lib")/library`, frag.String())
			if _, err := db.Execute(stmt); err != nil {
				return
			}
		}
	}()

	snap, err := timeIt(300, func() error {
		_, err := db.Query(q)
		return err
	})
	if err != nil {
		close(stop)
		return err
	}
	s2pl, err := timeIt(300, func() error {
		tx, err := db.Internal().Begin()
		if err != nil {
			return err
		}
		defer tx.Commit()
		_, err = query.Execute(query.NewExecCtx(tx), q)
		return err
	})
	close(stop)
	<-done
	if err != nil {
		return err
	}
	table(
		[]string{"reader kind", "avg latency under concurrent updater"},
		[][]string{
			{"snapshot (non-blocking, §6.3)", dur(snap)},
			{"S2PL shared-lock reader", dur(s2pl)},
		})
	fmt.Println("expected shape: snapshot readers unaffected by the updater; S2PL readers queue behind its lock")
	return nil
}

// runE12 prints how long page versions live. That each one dies with the
// last snapshot that can read it is TestVersionsDieAtCommit in internal/core.
func runE12(s *session) error {
	var rows [][]string
	for _, pinned := range []int{0, 3} {
		db, cleanup, err := s.openLoaded(200)
		if err != nil {
			return err
		}
		var pins []*sedna.Tx
		for i := 0; i < pinned; i++ {
			tx, err := db.BeginReadOnly()
			if err != nil {
				cleanup()
				return err
			}
			pins = append(pins, tx)
		}
		i := 0
		t, err := timeIt(300, func() error {
			i++
			_, err := db.Execute(fmt.Sprintf(`UPDATE insert <x n="%d"/> into doc("lib")/library`, i))
			return err
		})
		st := db.BufferStats()
		buf := db.Internal().Buffer()
		held := buf.VersionCount()
		for _, p := range pins {
			p.Rollback()
		}
		after := buf.VersionCount()
		cleanup()
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprint(pinned), dur(t), fmt.Sprint(st.VersionsMade), fmt.Sprint(st.VersionsFreed),
			fmt.Sprint(held), fmt.Sprint(after),
		})
	}
	table([]string{"active snapshots", "update latency", "versions made", "versions purged", "alive after 300 commits", "alive after snapshots end"}, rows)
	fmt.Println("expected shape: a commit frees the versions no snapshot can read, so none outlive it without readers; open snapshots add retention, not stalls, and their versions go when they do")
	return nil
}

func runE16(s *session) error {
	var rows [][]string
	for _, population := range []int{1000, 10000} {
		dir, cleanup, err := bench.TempDir("sedna-e16-*")
		if err != nil {
			return err
		}
		db, err := bench.OpenDB(dir)
		if err != nil {
			cleanup()
			return err
		}
		var sb strings.Builder
		sb.WriteString("<r>")
		for j := 0; j < population; j++ {
			sb.WriteString("<e/>")
		}
		sb.WriteString("</r>")
		if err := db.LoadXMLString("d", sb.String()); err != nil {
			db.Close()
			cleanup()
			return err
		}
		start := time.Now()
		if _, err := db.Execute(fmt.Sprintf(
			`UPDATE insert <sub/> into doc("d")/r/e[%d]`, population/2)); err != nil {
			db.Close()
			cleanup()
			return err
		}
		widen := time.Since(start)
		db.Close()
		cleanup()
		rows = append(rows, []string{fmt.Sprint(population), dur(widen)})
	}
	table([]string{"nodes of the widened schema node", "first-child insert (widening)"}, rows)
	fmt.Println("expected shape: cost bounded by one block's descriptors, not by the schema node's population")
	return nil
}
