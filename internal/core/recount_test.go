package core_test

import (
	"fmt"
	"strings"
	"testing"

	"sedna/internal/core"
	"sedna/internal/metrics"
	"sedna/internal/query"
	"sedna/internal/schema"
	"sedna/internal/storage"
	"sedna/internal/xmlgen"
)

// recoverReads bounds the pages the reopen after the mix's crash reads from
// the data file: the pages redo writes in part, and the blocks of the
// documents redo wrote that it does not hold. It measured 55. Reading every
// page before its first redone write, whole-page images included, measured
// 85; recounting every document at every open measured 163 beside one
// untouched document and 327 beside eight.
const recoverReads = 60

// TestOpenRecountsOnlyWhatRedoWrote crashes a database after a checkpoint
// and a mix of commits — inserts that add blocks, an insert that adds none,
// deletes that free one, a bulk load, a DROP, a CREATE of an empty
// document — with one transaction
// left open, beside untouched documents loaded before the checkpoint. Every
// document must verify after the reopen, the pages the reopen reads must not
// depend on how many untouched documents there are (nor exceed
// recoverReads), and a clean reopen must read no page at all.
func TestOpenRecountsOnlyWhatRedoWrote(t *testing.T) {
	reads := map[int]uint64{}
	for _, untouched := range []int{1, 8} {
		reads[untouched] = crashAfterMix(t, untouched)
	}
	t.Logf("pagefile.reads during the reopen: %d with 1 untouched document, %d with 8 (bound %d)", reads[1], reads[8], recoverReads)
	if reads[1] != reads[8] {
		t.Errorf("the reopen read %d pages with 1 untouched document and %d with 8", reads[1], reads[8])
	}
	if reads[8] > recoverReads {
		t.Errorf("the reopen read %d pages, bound %d", reads[8], recoverReads)
	}
}

// crashAfterMix runs the mix beside untouched documents, crashes, reopens
// twice (after the crash, then cleanly) and returns the pages the first
// reopen read.
func crashAfterMix(t *testing.T, untouched int) uint64 {
	t.Helper()
	dir := t.TempDir()
	db, err := core.Open(dir, core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	exec := func(db *core.Database, commit bool, stmts ...string) {
		t.Helper()
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stmts {
			if _, err := query.Execute(query.NewExecCtx(tx), s); err != nil {
				t.Fatalf("%s: %v", s, err)
			}
		}
		if commit {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	load := func(name, content string) {
		t.Helper()
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.LoadXML(name, strings.NewReader(content)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < untouched; i++ {
		load(fmt.Sprintf("u%d", i), xmlgen.LibraryString(200, int64(i)))
	}
	items := func(tag string, n int) string {
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "<%s>%d</%s>", tag, i, tag)
		}
		b.WriteString("</r>")
		return b.String()
	}
	load("ins", items("x", 2000))
	load("del", items("y", 2000))
	load("one", "<r><z>1</z></r>")
	load("gone", xmlgen.LibraryString(50, 99))
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	blocks := func(doc, path string) uint32 {
		t.Helper()
		tx, err := db.BeginReadOnly()
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Rollback()
		d, err := tx.Document(doc)
		if err != nil {
			t.Fatal(err)
		}
		var n uint32
		d.Schema.Root.Walk(func(sn *schema.Node) {
			if sn.Path() == path {
				n = sn.BlockCount
			}
		})
		return n
	}
	insBlocks, delBlocks := blocks("ins", "/r/x"), blocks("del", "/r/y")

	for i := 0; i < 20; i++ {
		var stmts []string
		for j := 0; j < 10; j++ {
			stmts = append(stmts, fmt.Sprintf(`UPDATE insert <x>new %d</x> following doc("ins")/r/x[%d]`, i*10+j, 1+(i*97+j*13)%1500))
		}
		exec(db, true, stmts...)
	}
	exec(db, true, `UPDATE insert <z>2</z> into doc("one")/r`)
	exec(db, true, `UPDATE delete doc("del")/r/y[position() > 1000]`)
	load("bulk", xmlgen.LibraryString(100, 7))
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.DropDocument("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateDocument("empty"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := blocks("ins", "/r/x"); got <= insBlocks {
		t.Fatalf("the inserts left /r/x at %d blocks, %d before", got, insBlocks)
	}
	if got := blocks("del", "/r/y"); got >= delBlocks {
		t.Fatalf("the delete left /r/y at %d blocks, %d before", got, delBlocks)
	}
	exec(db, false, `UPDATE insert <lost/> into doc("ins")/r`)
	db.CrashForTesting()

	reg := metrics.NewRegistry()
	db, err = core.Open(dir, core.Options{NoSync: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	read := reg.Counter("pagefile.reads").Value()
	want := []string{"bulk", "del", "empty", "ins", "one"}
	for i := 0; i < untouched; i++ {
		want = append(want, fmt.Sprintf("u%d", i))
	}
	verifyAll(t, db, want)

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reg = metrics.NewRegistry()
	db, err = core.Open(dir, core.Options{NoSync: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n := reg.Counter("pagefile.reads").Value(); n != 0 {
		t.Errorf("a clean reopen read %d pages", n)
	}
	verifyAll(t, db, want)
	return read
}

// verifyAll requires db to hold exactly the documents want, each passing
// storage.VerifyDoc, whose counters check is the one the recount serves.
func verifyAll(t *testing.T, db *core.Database, want []string) {
	t.Helper()
	tx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if got := db.Catalog().DocNames(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("documents %v, want %v", got, want)
	}
	for _, name := range want {
		doc, err := tx.Document(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := storage.VerifyDoc(tx.Tx, doc); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
