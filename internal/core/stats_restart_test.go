package core_test

import (
	"strings"
	"testing"

	"sedna/internal/core"
	"sedna/internal/query"
	"sedna/internal/xmlgen"
)

// statsDB opens (or reopens) a database in dir and runs statements in
// update transactions of their own.
type statsDB struct {
	t   *testing.T
	dir string
	db  *core.Database
}

func (s *statsDB) open() {
	s.t.Helper()
	db, err := core.Open(s.dir, core.Options{NoSync: true})
	if err != nil {
		s.t.Fatal(err)
	}
	s.db = db
}

func (s *statsDB) restart() {
	s.t.Helper()
	if err := s.db.Close(); err != nil {
		s.t.Fatal(err)
	}
	s.open()
}

func (s *statsDB) exec(src string) {
	s.t.Helper()
	tx, err := s.db.Begin()
	if err != nil {
		s.t.Fatal(err)
	}
	if _, err := query.Execute(query.NewExecCtx(tx), src); err != nil {
		tx.Rollback()
		s.t.Fatalf("%s: %v", src, err)
	}
	if err := tx.Commit(); err != nil {
		s.t.Fatal(err)
	}
}

// stale reports whether the document's statistics read as stale now.
func (s *statsDB) stale(doc string) bool {
	cat := s.db.Catalog()
	return cat.DocStats(doc).Stale(cat.Activity(doc).Updates.Load())
}

// newStatsDB loads a 20-book library, applies three updates, and takes
// statistics, whose update base is then non-zero.
func newStatsDB(t *testing.T) *statsDB {
	s := &statsDB{t: t, dir: t.TempDir()}
	s.open()
	t.Cleanup(func() { s.db.Close() })
	tx, _ := s.db.Begin()
	if _, err := tx.LoadXML("lib", strings.NewReader(xmlgen.LibraryString(20, 2))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.exec(restartUpdate)
	}
	s.exec(`ANALYZE doc("lib")`)
	if stats := s.db.Catalog().DocStats("lib"); stats == nil || stats.UpdateBase == 0 {
		t.Fatalf("setup: want statistics with a non-zero update base, got %+v", stats)
	}
	return s
}

const restartUpdate = `UPDATE insert <note>n</note> into doc("lib")/library`

// agingUpdates is the number of updates after which the statistics of the
// document read as stale: (AnalyzedNodes + 64) / 5, plus one.
func (s *statsDB) agingUpdates(doc string) int {
	return int((s.db.Catalog().DocStats(doc).AnalyzedNodes+64)/5) + 1
}

// TestAnalyzeSurvivesRestartFresh: statistics taken after some updates carry
// a non-zero update base. A clean restart must not make them read as stale
// (regression: the unsigned subtraction wrapped, so every ANALYZEd document
// lost its plans until re-ANALYZEd), and updates after it must still age
// them.
func TestAnalyzeSurvivesRestartFresh(t *testing.T) {
	s := newStatsDB(t)
	s.restart()
	if s.db.Catalog().DocStats("lib") == nil {
		t.Fatal("statistics lost across a clean restart")
	}
	if s.stale("lib") {
		t.Fatal("statistics read as stale right after a clean restart")
	}
	for n := s.agingUpdates("lib"); n > 0; n-- {
		s.exec(restartUpdate)
	}
	if !s.stale("lib") {
		t.Fatalf("%d updates after the restart left the statistics fresh", s.agingUpdates("lib"))
	}
}

// TestStaleStatisticsStayStaleAcrossRestart: statistics that updates made
// stale stay stale after a clean restart, because the document's update
// counter is persisted with them (before, it restarted at zero and the
// snapshot read as fresh again).
func TestStaleStatisticsStayStaleAcrossRestart(t *testing.T) {
	s := newStatsDB(t)
	for n := s.agingUpdates("lib"); n > 0; n-- {
		s.exec(restartUpdate)
	}
	if !s.stale("lib") {
		t.Fatal("setup: statistics still fresh after the aging updates")
	}
	before := s.db.Catalog().Activity("lib").Updates.Load()
	s.restart()
	if !s.stale("lib") {
		t.Fatal("stale statistics read as fresh after a clean restart")
	}
	if got := s.db.Catalog().Activity("lib").Updates.Load(); got != before {
		t.Fatalf("update counter %d after a clean restart, %d before it", got, before)
	}
}

// TestStaleStatisticsStayStaleAcrossCrash: the same after a crash. The
// commits after the last checkpoint are redone by recovery, and recovery
// counts each of them against the document it wrote, as the commit did; the
// checkpoint's counter alone would read as fresh.
func TestStaleStatisticsStayStaleAcrossCrash(t *testing.T) {
	s := newStatsDB(t)
	if err := s.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	atCheckpoint := s.db.Catalog().Activity("lib").Updates.Load()
	n := s.agingUpdates("lib")
	for i := 0; i < n; i++ {
		s.exec(restartUpdate)
	}
	if !s.stale("lib") {
		t.Fatal("setup: statistics still fresh after the aging updates")
	}
	before := s.db.Catalog().Activity("lib").Updates.Load()
	if before != atCheckpoint+uint64(n) {
		t.Fatalf("setup: counter %d after %d updates from %d", before, n, atCheckpoint)
	}
	s.db.CrashForTesting()
	s.open()
	if got := s.db.Catalog().Activity("lib").Updates.Load(); got != before {
		t.Fatalf("update counter %d after a crash, %d before it (%d at the checkpoint)", got, before, atCheckpoint)
	}
	if !s.stale("lib") {
		t.Fatal("stale statistics read as fresh after a crash")
	}
	t.Logf("%d updates after the checkpoint; counter %d at the checkpoint, %d before the crash and after recovery", n, atCheckpoint, before)
}
