package main

import (
	"fmt"
	"strings"
	"time"

	"sedna/internal/bench"
	"sedna/internal/core"
	"sedna/internal/storage"
	"sedna/internal/xmlgen"
)

func init() {
	experiments = append(experiments,
		experiment{"E24", "bulk load: streaming direct block construction vs node-at-a-time ingest (§4.1)", runE24},
	)
}

// runE24 measures cold document ingest through the two LoadXML paths: the
// streaming bulk loader (append-only block construction, pre-spaced NIDs,
// whole-page WAL images) against the node-at-a-time insert path, on xmlgen
// library corpora at three sizes. Gates:
//
//  1. throughput — on the largest corpus the bulk path must load >= 3x
//     faster than the node-at-a-time path;
//  2. identity — at every size the two paths must serialize the loaded
//     document byte-identically (NID ordering included: serialization walks
//     sibling chains that only line up if the labels sort);
//  3. crash consistency — a load killed mid-flight (after K flushed pages,
//     no rollback) must recover to no document at all, with earlier
//     committed documents intact.
func runE24(s *session) error {
	sizes := []struct {
		label string
		books int
	}{
		{"small", 500 * s.scale},
		{"medium", 2500 * s.scale},
		{"large", 10000 * s.scale},
	}

	load := func(mode core.BulkLoadMode, content string) (time.Duration, string, error) {
		dir, cleanup, err := bench.TempDir("sedna-e24-*")
		if err != nil {
			return 0, "", err
		}
		defer cleanup()
		db, err := bench.OpenDBBulk(dir, s.reg, mode)
		if err != nil {
			return 0, "", err
		}
		defer db.Close()
		start := time.Now()
		if err := e24Load(db, "d", content); err != nil {
			return 0, "", err
		}
		elapsed := time.Since(start)
		out, _, err := querySnapshot(db, `doc("d")`)
		return elapsed, out, err
	}

	var rows [][]string
	var largeBulk, largeIncr time.Duration
	for _, sz := range sizes {
		content := xmlgen.LibraryString(sz.books, 42)
		bulkT, bulkOut, err := load(core.BulkLoadAuto, content)
		if err != nil {
			return fmt.Errorf("E24: bulk load %s: %w", sz.label, err)
		}
		incrT, incrOut, err := load(core.BulkLoadOff, content)
		if err != nil {
			return fmt.Errorf("E24: incremental load %s: %w", sz.label, err)
		}
		if bulkOut != incrOut {
			return fmt.Errorf("E24: %s: bulk and node-at-a-time serializations differ", sz.label)
		}
		mb := float64(len(content)) / (1 << 20)
		rows = append(rows, []string{
			sz.label, fmt.Sprintf("%.1f MiB", mb), dur(bulkT), dur(incrT),
			fmt.Sprintf("%.1f MiB/s", mb/bulkT.Seconds()), ratio(incrT, bulkT),
		})
		if sz.label == "large" {
			largeBulk, largeIncr = bulkT, incrT
		}
	}
	s.out.table([]string{"corpus", "input", "bulk", "node-at-a-time", "bulk rate", "speedup"}, rows)

	// Crash-consistency leg: kill the process (no rollback) after 8 flushed
	// pages of a bulk load and recover.
	if err := e24CrashLeg(s); err != nil {
		return err
	}

	m := s.reg.Snapshot()
	fmt.Printf("loader: bulk_loads=%d incremental_loads=%d nodes=%d blocks_built=%d pages_flushed=%d\n",
		m.Counters["load.bulk_loads"], m.Counters["load.incremental_loads"],
		m.Counters["load.nodes"], m.Counters["load.blocks_built"], m.Counters["load.pages_flushed"])

	if largeIncr < 3*largeBulk {
		return fmt.Errorf("E24: large-corpus speedup %.2fx below the 3x gate",
			float64(largeIncr)/float64(largeBulk))
	}
	return nil
}

// e24CrashLeg loads a document, then starts a second bulk load that dies
// after 8 flushed pages with the transaction still open, and verifies
// recovery yields whole-document-or-none.
func e24CrashLeg(s *session) error {
	dir, cleanup, err := bench.TempDir("sedna-e24-crash-*")
	if err != nil {
		return err
	}
	defer cleanup()
	db, err := bench.OpenDBBulk(dir, s.reg, core.BulkLoadAuto)
	if err != nil {
		return err
	}
	if err := e24Load(db, "keep", `<r><a>1</a><b>2</b></r>`); err != nil {
		return err
	}
	core.SetBulkFlushHookForTesting(func(pages uint64) error {
		if pages >= 8 {
			return fmt.Errorf("injected crash after %d pages", pages)
		}
		return nil
	})
	tx, err := db.Begin()
	if err != nil {
		core.SetBulkFlushHookForTesting(nil)
		return err
	}
	if _, err := tx.LoadXML("big", strings.NewReader(xmlgen.LibraryString(2000, 7))); err == nil {
		core.SetBulkFlushHookForTesting(nil)
		return fmt.Errorf("E24: injected flush failure did not abort the load")
	}
	core.SetBulkFlushHookForTesting(nil)
	db.CrashForTesting()

	db2, err := bench.OpenDBBulk(dir, s.reg, core.BulkLoadAuto)
	if err != nil {
		return fmt.Errorf("E24: recovery after mid-load crash: %w", err)
	}
	defer db2.Close()
	rtx, err := db2.BeginReadOnly()
	if err != nil {
		return err
	}
	defer rtx.Rollback()
	if _, err := rtx.Document("big"); err == nil {
		return fmt.Errorf("E24: half-loaded document visible after crash recovery")
	}
	doc, err := rtx.Document("keep")
	if err != nil {
		return fmt.Errorf("E24: committed document lost in crash recovery: %w", err)
	}
	if err := storage.VerifyDoc(rtx.Tx, doc); err != nil {
		return fmt.Errorf("E24: committed document corrupt after recovery: %w", err)
	}
	fmt.Println("crash leg: mid-load kill after 8 pages -> in-flight document absent, committed document verified")
	return nil
}

// e24Load loads content as document name in a transaction of its own.
func e24Load(db *core.Database, name, content string) error {
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	if _, err := tx.LoadXML(name, strings.NewReader(content)); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}
