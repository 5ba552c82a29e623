package core_test

import (
	"strings"
	"testing"

	"sedna/internal/core"
	"sedna/internal/query"
	"sedna/internal/xmlgen"
)

// TestAnalyzeSurvivesRestartFresh: statistics taken after some updates carry
// a non-zero UpdateBase, while the document's update counter restarts at zero
// with the process. The restart must not make the snapshot read as stale
// (regression: the unsigned subtraction wrapped, so every ANALYZEd document
// lost its plans until re-ANALYZEd), and updates after it must still age it.
func TestAnalyzeSurvivesRestartFresh(t *testing.T) {
	dir := t.TempDir()
	open := func() *core.Database {
		t.Helper()
		db, err := core.Open(dir, core.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	exec := func(db *core.Database, src string) {
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
	const update = `UPDATE insert <note>n</note> into doc("lib")/library`

	db := open()
	tx, _ := db.Begin()
	if _, err := tx.LoadXML("lib", strings.NewReader(xmlgen.LibraryString(20, 2))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		exec(db, update)
	}
	exec(db, `ANALYZE doc("lib")`)
	stats := db.Catalog().DocStats("lib")
	if stats == nil || stats.UpdateBase == 0 {
		t.Fatalf("setup: want statistics with a non-zero update base, got %+v", stats)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = open()
	defer db.Close()
	stats = db.Catalog().DocStats("lib")
	if stats == nil {
		t.Fatal("statistics lost across a clean restart")
	}
	updates := func() uint64 { return db.Catalog().Activity("lib").Updates.Load() }
	if updates() >= stats.UpdateBase {
		t.Fatalf("setup: update counter %d did not restart below the base %d", updates(), stats.UpdateBase)
	}
	if stats.Stale(updates()) {
		t.Fatal("statistics read as stale right after a clean restart")
	}
	// (AnalyzedNodes + 64) / 5 updates age a snapshot; once the restarted
	// counter has passed the old base it is measured against the base again.
	for n := uint64(0); n <= stats.UpdateBase+(stats.AnalyzedNodes+64)/5; n++ {
		exec(db, update)
	}
	if !stats.Stale(updates()) {
		t.Fatalf("%d updates after the restart left the statistics fresh", updates())
	}
}
