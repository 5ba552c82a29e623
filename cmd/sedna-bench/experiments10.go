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

// e24WALBytes bounds the node-at-a-time path's WAL bytes on the large corpus
// from below, as a multiple of the bulk path's: measured 10.0x (109.2 MB
// against 10.9 MB), less a fifth.
const e24WALBytes = 8.0

// e24Pages bounds the node-at-a-time path's flushed data pages on the large
// corpus from below, as a multiple of the bulk path's: measured 2.0x (1326
// against 661), less a fifth.
const e24Pages = 1.6

// e24Cost is what one load of a corpus costs.
type e24Cost struct {
	time            time.Duration
	walBytes, pages uint64
}

// runE24 measures cold document ingest through the two LoadXML paths: the
// streaming bulk loader (append-only block construction, pre-spaced NIDs,
// whole-page WAL images) against the node-at-a-time insert path, on xmlgen
// library corpora at three sizes, each load into a fresh database followed by
// a checkpoint. Gates, on what the loads count:
//
//  1. log and pages — on the largest corpus the node-at-a-time path appends
//     at least e24WALBytes times the bulk path's WAL bytes and its checkpoint
//     flushes at least e24Pages times as many data pages;
//  2. identity — at every size the two paths must serialize the loaded
//     document byte-identically (NID ordering included: serialization walks
//     sibling chains that only line up if the labels sort);
//  3. crash consistency — a load killed mid-flight (after K flushed pages,
//     no rollback) must recover to no document at all, with earlier
//     committed documents intact.
//
// Load times and their ratio are printed, not gated.
func runE24(s *session) error {
	sizes := []struct {
		label string
		books int
	}{
		{"small", 500 * s.scale},
		{"medium", 2500 * s.scale},
		{"large", 10000 * s.scale},
	}

	// load loads content into a fresh database, checkpoints, and returns the
	// cost and the serialized document. The database's registry is its own, so
	// wal.append_bytes and pagefile.writes count this load and its checkpoint.
	load := func(mode core.BulkLoadMode, content string) (e24Cost, string, error) {
		dir, cleanup, err := bench.TempDir("sedna-e24-*")
		if err != nil {
			return e24Cost{}, "", err
		}
		defer cleanup()
		db, err := bench.OpenDBBulk(dir, mode)
		if err != nil {
			return e24Cost{}, "", err
		}
		defer db.Close()
		start := time.Now()
		if err := e24Load(db, "d", content); err != nil {
			return e24Cost{}, "", err
		}
		c := e24Cost{time: time.Since(start)}
		if err := db.Checkpoint(); err != nil {
			return e24Cost{}, "", err
		}
		m := db.Metrics()
		c.walBytes, c.pages = m.Counter("wal.append_bytes").Value(), m.Counter("pagefile.writes").Value()
		out, _, err := bench.Query(db, `doc("d")`, nil)
		return c, out, err
	}

	var rows [][]string
	var bulk, incr e24Cost
	for _, sz := range sizes {
		content := xmlgen.LibraryString(sz.books, 42)
		var bulkOut, incrOut string
		var err error
		if bulk, bulkOut, err = load(core.BulkLoadAuto, content); err != nil {
			return fmt.Errorf("E24: bulk load %s: %w", sz.label, err)
		}
		if incr, incrOut, err = load(core.BulkLoadOff, content); err != nil {
			return fmt.Errorf("E24: incremental load %s: %w", sz.label, err)
		}
		if bulkOut != incrOut {
			return fmt.Errorf("E24: %s: bulk and node-at-a-time serializations differ", sz.label)
		}
		mb := float64(len(content)) / (1 << 20)
		rows = append(rows, []string{
			sz.label, fmt.Sprintf("%.1f MiB", mb),
			fmt.Sprintf("%.1f MB", float64(bulk.walBytes)/1e6), fmt.Sprintf("%.1f MB", float64(incr.walBytes)/1e6),
			fmt.Sprint(bulk.pages), fmt.Sprint(incr.pages),
			dur(bulk.time), dur(incr.time), ratio(incr.time, bulk.time),
		})
	}
	table([]string{"corpus", "input", "WAL bulk", "WAL node-at-a-time", "pages bulk", "pages node-at-a-time", "bulk", "node-at-a-time", "speedup (not gated)"}, rows)

	// Crash-consistency leg: kill the process (no rollback) after 8 flushed
	// pages of a bulk load and recover.
	if err := e24CrashLeg(); err != nil {
		return err
	}

	// bulk and incr hold the largest corpus's loads.
	if r := float64(incr.walBytes) / float64(bulk.walBytes); r < e24WALBytes {
		return fmt.Errorf("E24: node-at-a-time appends %.1fx the bulk path's WAL bytes on the large corpus (%d vs %d), bound %.0fx", r, incr.walBytes, bulk.walBytes, e24WALBytes)
	}
	if r := float64(incr.pages) / float64(bulk.pages); r < e24Pages {
		return fmt.Errorf("E24: node-at-a-time flushes %.2fx the bulk path's pages on the large corpus (%d vs %d), bound %.1fx", r, incr.pages, bulk.pages, e24Pages)
	}
	return nil
}

// e24CrashLeg loads a document, then starts a second bulk load that dies
// after 8 flushed pages with the transaction still open, and verifies
// recovery yields whole-document-or-none.
func e24CrashLeg() error {
	dir, cleanup, err := bench.TempDir("sedna-e24-crash-*")
	if err != nil {
		return err
	}
	defer cleanup()
	db, err := bench.OpenDBBulk(dir, core.BulkLoadAuto)
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

	db2, err := bench.OpenDBBulk(dir, core.BulkLoadAuto)
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
