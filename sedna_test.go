package sedna

import (
	"strings"
	"testing"
)

const libraryXML = `<library>
  <book><title>Foundations of Databases</title><author>Abiteboul</author><author>Hull</author><author>Vianu</author></book>
  <book><title>An Introduction to Database Systems</title><author>Date</author>
    <issue><publisher>Addison-Wesley</publisher><year>2004</year></issue></book>
  <paper><title>A Relational Model for Large Shared Data Banks</title><author>Codd</author></paper>
</library>`

func openLib(t *testing.T) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), &Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.LoadXMLString("library", libraryXML); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPublicQuery(t *testing.T) {
	db := openLib(t)
	res, err := db.Query(`count(doc("library")//author)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data != "5" || res.Count != 1 {
		t.Fatalf("res = %+v", res)
	}
	if _, err := db.Query(`UPDATE delete doc("library")//paper`); err == nil {
		t.Fatal("Query must reject update statements")
	}
}

func TestPublicExecuteAutoCommit(t *testing.T) {
	db := openLib(t)
	res, err := db.Execute(`UPDATE insert <author>New</author> into doc("library")/library/paper`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updated != 1 {
		t.Fatalf("updated = %d", res.Updated)
	}
	res, _ = db.Query(`count(doc("library")//author)`)
	if res.Data != "6" {
		t.Fatalf("after insert: %s", res.Data)
	}
}

func TestPublicTransactions(t *testing.T) {
	db := openLib(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Execute(`UPDATE delete doc("library")//paper`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Query(`count(doc("library")//paper)`)
	if res.Data != "1" {
		t.Fatal("rollback lost data")
	}
}

func TestNavigationAPI(t *testing.T) {
	db := openLib(t)
	tx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	root, err := tx.Document("library")
	if err != nil {
		t.Fatal(err)
	}
	if root.Kind() != "document" {
		t.Fatalf("kind = %s", root.Kind())
	}
	kids, err := root.Children()
	if err != nil || len(kids) != 1 {
		t.Fatalf("document children: %d %v", len(kids), err)
	}
	lib := kids[0]
	if lib.Name() != "library" || lib.Path() != "/library" {
		t.Fatalf("lib = %s %s", lib.Name(), lib.Path())
	}
	libKids, err := lib.Children()
	if err != nil || len(libKids) != 3 {
		t.Fatalf("library children = %d", len(libKids))
	}
	book1 := libKids[0]
	title, err := book1.Child("title")
	if err != nil || title == nil {
		t.Fatal("title child missing")
	}
	sv, err := title.StringValue()
	if err != nil || sv != "Foundations of Databases" {
		t.Fatalf("title = %q", sv)
	}
	// Sibling navigation.
	book2, err := book1.NextSibling()
	if err != nil || book2.Name() != "book" {
		t.Fatal("next sibling")
	}
	back, err := book2.PrevSibling()
	if err != nil || back.desc.Ptr != book1.desc.Ptr {
		t.Fatal("prev sibling")
	}
	// Label-based relations.
	if !lib.IsAncestorOf(title) || title.IsAncestorOf(lib) {
		t.Fatal("ancestry via labels")
	}
	if !book1.Before(book2) || book2.Before(book1) {
		t.Fatal("document order via labels")
	}
	// Parent via indirection.
	p, err := title.Parent()
	if err != nil || p.desc.Ptr != book1.desc.Ptr {
		t.Fatal("parent")
	}
	// Serialization.
	xml, err := book2.Child("issue")
	if err != nil || xml == nil {
		t.Fatal("issue missing")
	}
	s, err := xml.XML()
	if err != nil || !strings.Contains(s, "<publisher>Addison-Wesley</publisher>") {
		t.Fatalf("xml = %q", s)
	}
	// Schema dump has the Figure 2 shape.
	if d := lib.SchemaDump(); !strings.Contains(d, `element "library"`) {
		t.Fatalf("schema dump: %s", d)
	}
}

func TestAttrNavigation(t *testing.T) {
	db, err := Open(t.TempDir(), &Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.LoadXMLString("d", `<r><e id="42" cls="x">body</e></r>`)
	tx, _ := db.BeginReadOnly()
	defer tx.Rollback()
	root, _ := tx.Document("d")
	kids, _ := root.Children()
	e, _ := kids[0].Child("e")
	v, err := e.Attr("id")
	if err != nil || v != "42" {
		t.Fatalf("attr = %q", v)
	}
	if v, _ := e.Attr("missing"); v != "" {
		t.Fatalf("missing attr = %q", v)
	}
}

func TestPersistencePublicAPI(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	db.LoadXMLString("d", `<r><v>keep</v></r>`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, &Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Query(`doc("d")/r/v/text()`)
	if err != nil || res.Data != "keep" {
		t.Fatalf("res = %+v err = %v", res, err)
	}
	if docs := db2.Documents(); len(docs) != 1 || docs[0] != "d" {
		t.Fatalf("documents = %v", docs)
	}
}

func TestIndexSurvivesCleanRestart(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	db.LoadXMLString("library", libraryXML)
	if _, err := db.Execute(`CREATE INDEX "byauthor" ON doc("library")//book BY author AS string`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, &Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Query(`index-scan("byauthor", "Date")/title/text()`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data != "An Introduction to Database Systems" {
		t.Fatalf("index after restart: %q", res.Data)
	}
	// The index stays maintained after restart.
	if _, err := db2.Execute(`UPDATE insert <book><title>T</title><author>Zhu</author></book> into doc("library")/library`); err != nil {
		t.Fatal(err)
	}
	res, _ = db2.Query(`count(index-scan("byauthor", "Zhu"))`)
	if res.Data != "1" {
		t.Fatalf("index not maintained after restart: %s", res.Data)
	}
}

func TestBackupPublicAPI(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir+"/db", &Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	db.LoadXMLString("d", `<r/>`)
	if err := db.Backup(dir + "/bak"); err != nil {
		t.Fatal(err)
	}
	db.Execute(`UPDATE insert <x/> into doc("d")/r`)
	if err := db.BackupIncremental(dir + "/bak"); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := Restore(dir+"/bak", dir+"/restored", -1); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir+"/restored", &Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, _ := db2.Query(`count(doc("d")/r/x)`)
	if res.Data != "1" {
		t.Fatalf("restored count = %s", res.Data)
	}
}

// TestExecuteParsesOnce: DB.Execute and DB.Query parse a statement once. A
// parse error is reported as the parser gave it and counted once in
// query.errors; a statement that runs counts once in query.statements.
func TestExecuteParsesOnce(t *testing.T) {
	db := openLib(t)
	reg := db.Metrics()
	stmts, errs := reg.Counter("query.statements"), reg.Counter("query.errors")
	for _, run := range []func(string) (*Result, error){db.Execute, db.Query} {
		s0, e0 := stmts.Value(), errs.Value()
		_, err := run(`count(doc("library")//author`)
		if err == nil {
			t.Fatal("a statement that does not parse ran")
		}
		if n := strings.Count(err.Error(), "query:"); n != 1 {
			t.Errorf("parse error reported %d times: %v", n, err)
		}
		if _, err := run(`count(doc("library")//author)`); err != nil {
			t.Fatal(err)
		}
		if s, e := stmts.Value()-s0, errs.Value()-e0; s != 1 || e != 1 {
			t.Errorf("query.statements +%d, query.errors +%d; want +1 each", s, e)
		}
	}
}
