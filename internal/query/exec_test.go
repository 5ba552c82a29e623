package query

import (
	"strings"
	"sync"
	"testing"

	"sedna/internal/core"
)

const libraryXML = `<library>
  <book>
    <title>Foundations of Databases</title>
    <author>Abiteboul</author>
    <author>Hull</author>
    <author>Vianu</author>
    <year>1995</year>
  </book>
  <book>
    <title>An Introduction to Database Systems</title>
    <author>Date</author>
    <year>2004</year>
    <issue>
      <publisher>Addison-Wesley</publisher>
      <year>2004</year>
    </issue>
  </book>
  <paper>
    <title>A Relational Model for Large Shared Data Banks</title>
    <author>Codd</author>
    <year>1970</year>
  </paper>
</library>`

// testDB opens a database preloaded with the library document.
func testDB(t *testing.T) *core.Database {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true, BufferPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LoadXML("lib", strings.NewReader(libraryXML)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// q executes a query in a read-only transaction and serializes the result.
func q(t *testing.T, db *core.Database, src string) string {
	t.Helper()
	tx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	res, err := Execute(NewExecCtx(tx), src)
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	s, err := res.String()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// upd executes an update/DDL statement in a fresh update transaction.
func upd(t testing.TB, db *core.Database, src string) *Result {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(NewExecCtx(tx), src)
	if err != nil {
		tx.Rollback()
		t.Fatalf("statement %q: %v", src, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPathQueries(t *testing.T) {
	db := testDB(t)
	cases := map[string]string{
		`doc("lib")/library/book/title`:                        `<title>Foundations of Databases</title><title>An Introduction to Database Systems</title>`,
		`doc("lib")/library/paper/title/text()`:                `A Relational Model for Large Shared Data Banks`,
		`doc("lib")//author[text() = "Codd"]`:                  `<author>Codd</author>`,
		`count(doc("lib")//author)`:                            `5`,
		`count(doc("lib")/library/*)`:                          `3`,
		`doc("lib")/library/book[2]/author/text()`:             `Date`,
		`doc("lib")/library/book[author = "Hull"]/year/text()`: `1995`,
		`doc("lib")//publisher/text()`:                         `Addison-Wesley`,
		`count(doc("lib")//year)`:                              `4`,
		`doc("lib")/library/book[1]/title/text()`:              `Foundations of Databases`,
		`doc("lib")/library/book[last()]/author/text()`:        `Date`,
		`count(doc("lib")/library/book/author)`:                `4`,
	}
	for src, want := range cases {
		if got := q(t, db, src); got != want {
			t.Errorf("%s\n got: %s\nwant: %s", src, got, want)
		}
	}
}

func TestAxes(t *testing.T) {
	db := testDB(t)
	cases := map[string]string{
		`doc("lib")//publisher/parent::issue/year/text()`:                      `2004`,
		`count(doc("lib")//year/ancestor::book)`:                               `2`,
		`doc("lib")//issue/ancestor-or-self::node()[self::book]/author/text()`: `Date`,
		`doc("lib")/library/book[1]/following-sibling::paper/author/text()`:    `Codd`,
		`doc("lib")/library/paper/preceding-sibling::book[1]/author[1]/text()`: `Abiteboul`,
		`count(doc("lib")/library/book[2]/descendant::year)`:                   `2`,
		`count(doc("lib")/library/book[2]/descendant-or-self::node())`:         `12`,
		`doc("lib")//title/..[self::paper]/year/text()`:                        `1970`,
	}
	for src, want := range cases {
		if got := q(t, db, src); got != want {
			t.Errorf("%s\n got: %s\nwant: %s", src, got, want)
		}
	}
}

func TestDocumentOrderAndDedup(t *testing.T) {
	db := testDB(t)
	// Union deduplicates and orders.
	got := q(t, db, `count(doc("lib")//author | doc("lib")//author)`)
	if got != "5" {
		t.Fatalf("union dedup: %s", got)
	}
	// Parent step from many children yields each parent once.
	got = q(t, db, `count(doc("lib")/library/book/author/..)`)
	if got != "2" {
		t.Fatalf("parent dedup: %s", got)
	}
	// Results of // are in document order.
	got = q(t, db, `data(doc("lib")//year)`)
	if got != "1995 2004 2004 1970" {
		t.Fatalf("document order: %s", got)
	}
}

func TestFLWORQueries(t *testing.T) {
	db := testDB(t)
	cases := map[string]string{
		`for $a in doc("lib")//author return string($a)`: `Abiteboul Hull Vianu Date Codd`,
		`for $b in doc("lib")/library/book
		 where $b/year = 2004
		 return $b/title/text()`: `An Introduction to Database Systems`,
		`for $b in doc("lib")/library/book
		 let $n := count($b/author)
		 return $n`: `3 1`,
		`for $a in doc("lib")//author
		 order by $a return string($a)`: `Abiteboul Codd Date Hull Vianu`,
		`for $a in doc("lib")//author
		 order by $a descending
		 return string($a)`: `Vianu Hull Date Codd Abiteboul`,
		`for $i at $p in ("a","b","c") return $p`:                       `1 2 3`,
		`sum(for $y in doc("lib")/library/book/year return number($y))`: `3999`,
	}
	for src, want := range cases {
		if got := q(t, db, src); got != want {
			t.Errorf("%s\n got: %s\nwant: %s", src, got, want)
		}
	}
}

func TestConstructors(t *testing.T) {
	db := testDB(t)
	cases := map[string]string{
		`<result count="{count(doc("lib")//author)}"/>`: `<result count="5"/>`,
		`<r>{doc("lib")/library/paper/title}</r>`:       `<r><title>A Relational Model for Large Shared Data Banks</title></r>`,
		`<r>{1+1}</r>`: `<r>2</r>`,
		`element res { doc("lib")//publisher/text() }`: `<res>Addison-Wesley</res>`,
		`text { "plain" }`:    `plain`,
		`<a><b>x</b><c/></a>`: `<a><b>x</b><c/></a>`,
		`for $b in doc("lib")/library/book return <short>{$b/title/text()}</short>`: `<short>Foundations of Databases</short><short>An Introduction to Database Systems</short>`,
	}
	for src, want := range cases {
		if got := q(t, db, src); got != want {
			t.Errorf("%s\n got: %s\nwant: %s", src, got, want)
		}
	}
}

func TestNavigatingConstructedNodes(t *testing.T) {
	db := testDB(t)
	// Navigation into constructed content must behave like a copy.
	got := q(t, db, `
		let $r := <wrap>{doc("lib")/library/paper}</wrap>
		return count($r/paper/author)`)
	if got != "1" {
		t.Fatalf("navigation into constructed: %s", got)
	}
	got = q(t, db, `(<a><b>1</b><b>2</b></a>)/b[2]/text()`)
	if got != "2" {
		t.Fatalf("temp node predicate: %s", got)
	}
}

func TestFunctions(t *testing.T) {
	db := testDB(t)
	cases := map[string]string{
		`string-length("hello")`:                    `5`,
		`concat("a", "b", 1+1)`:                     `ab2`,
		`contains(doc("lib")//publisher, "Wesley")`: `true`,
		`starts-with("sedna", "sed")`:               `true`,
		`substring("database", 5)`:                  `base`,
		`substring("database", 1, 4)`:               `data`,
		`normalize-space("  a   b  ")`:              `a b`,
		`string-join(("a","b","c"), "-")`:           `a-b-c`,
		`distinct-values(doc("lib")//year/text())`:  `1995 2004 1970`,
		`min(doc("lib")//year)`:                     `1970`,
		`max(doc("lib")//year)`:                     `2004`,
		`avg((2, 4, 6))`:                            `4`,
		`not(empty(doc("lib")//paper))`:             `true`,
		`exists(doc("lib")//nonexistent)`:           `false`,
		`name(doc("lib")/library/*[3])`:             `paper`,
		`upper-case("abc")`:                         `ABC`,
		`floor(3.7)`:                                `3`,
		`ceiling(3.2)`:                              `4`,
		`round(3.5)`:                                `4`,
		`abs(-3)`:                                   `3`,
		`number("12") * 2`:                          `24`,
		`boolean("x")`:                              `true`,
		`string(doc("lib")/library/paper/year)`:     `1970`,
	}
	for src, want := range cases {
		if got := q(t, db, src); got != want {
			t.Errorf("%s\n got: %s\nwant: %s", src, got, want)
		}
	}
}

func TestUserFunctions(t *testing.T) {
	db := testDB(t)
	got := q(t, db, `
		declare function local:authors($b) { count($b/author) };
		for $b in doc("lib")/library/book return local:authors($b)`)
	if got != "3 1" {
		t.Fatalf("user function: %s", got)
	}
	got = q(t, db, `
		declare variable $lib := doc("lib");
		declare function local:titles() { $lib//title };
		count(local:titles())`)
	if got != "3" {
		t.Fatalf("prolog var + function: %s", got)
	}
}

func TestOperators(t *testing.T) {
	db := testDB(t)
	cases := map[string]string{
		`1 + 2 * 3`:                            `7`,
		`(1 + 2) * 3`:                          `9`,
		`10 div 4`:                             `2.5`,
		`10 idiv 4`:                            `2`,
		`10 mod 3`:                             `1`,
		`-(3)`:                                 `-3`,
		`2 < 3 and 3 < 2`:                      `false`,
		`2 < 3 or 3 < 2`:                       `true`,
		`"abc" eq "abc"`:                       `true`,
		`2 lt 10`:                              `true`,
		`"2" = 2`:                              `true`,
		`count((1 to 5))`:                      `5`,
		`if (1 < 2) then "y" else "n"`:         `y`,
		`some $x in (1,2,3) satisfies $x > 2`:  `true`,
		`every $x in (1,2,3) satisfies $x > 2`: `false`,
		`count(doc("lib")//book intersect doc("lib")/library/book[1])`: `1`,
		`count(doc("lib")//book except doc("lib")/library/book[1])`:    `1`,
	}
	for src, want := range cases {
		if got := q(t, db, src); got != want {
			t.Errorf("%s\n got: %s\nwant: %s", src, got, want)
		}
	}
}

func TestNodeComparisons(t *testing.T) {
	db := testDB(t)
	cases := map[string]string{
		`doc("lib")/library/book[1] is doc("lib")/library/book[1]`: `true`,
		`doc("lib")/library/book[1] is doc("lib")/library/book[2]`: `false`,
		`doc("lib")/library/book[1] << doc("lib")/library/paper`:   `true`,
		`doc("lib")/library/paper >> doc("lib")/library/book[2]`:   `true`,
	}
	for src, want := range cases {
		if got := q(t, db, src); got != want {
			t.Errorf("%s\n got: %s\nwant: %s", src, got, want)
		}
	}
}

func TestUpdateInsert(t *testing.T) {
	db := testDB(t)
	res := upd(t, db, `UPDATE insert <author>Stonebraker</author> into doc("lib")/library/book[2]`)
	if res.Updated != 1 {
		t.Fatalf("updated = %d", res.Updated)
	}
	got := q(t, db, `count(doc("lib")//author)`)
	if got != "6" {
		t.Fatalf("count after insert: %s", got)
	}
	// Inserted as last child.
	got = q(t, db, `doc("lib")/library/book[2]/author[2]/text()`)
	if got != "Stonebraker" {
		t.Fatalf("inserted author: %s", got)
	}
}

func TestUpdateInsertPrecedingFollowing(t *testing.T) {
	db := testDB(t)
	upd(t, db, `UPDATE insert <magazine><title>CACM</title></magazine> preceding doc("lib")/library/paper`)
	got := q(t, db, `name(doc("lib")/library/*[3])`)
	if got != "magazine" {
		t.Fatalf("preceding insert: %s", got)
	}
	upd(t, db, `UPDATE insert <report/> following doc("lib")/library/book[1]`)
	got = q(t, db, `name(doc("lib")/library/*[2])`)
	if got != "report" {
		t.Fatalf("following insert: %s", got)
	}
	got = q(t, db, `count(doc("lib")/library/*)`)
	if got != "5" {
		t.Fatalf("total children: %s", got)
	}
}

func TestUpdateDelete(t *testing.T) {
	db := testDB(t)
	res := upd(t, db, `UPDATE delete doc("lib")//author[text() = "Hull"]`)
	if res.Updated != 1 {
		t.Fatalf("updated = %d", res.Updated)
	}
	got := q(t, db, `for $a in doc("lib")/library/book[1]/author return string($a)`)
	if got != "Abiteboul Vianu" {
		t.Fatalf("after delete: %s", got)
	}
	// Deleting a subtree removes descendants.
	upd(t, db, `UPDATE delete doc("lib")/library/book[2]/issue`)
	if got := q(t, db, `count(doc("lib")//publisher)`); got != "0" {
		t.Fatalf("publisher still present: %s", got)
	}
}

func TestUpdateDeleteNestedTargets(t *testing.T) {
	db := testDB(t)
	// Both the book and its issue match; reverse-order deletion must not
	// fail on the already-deleted nested target.
	res := upd(t, db, `UPDATE delete (doc("lib")/library/book[2], doc("lib")/library/book[2]/issue)`)
	if res.Updated < 1 {
		t.Fatalf("updated = %d", res.Updated)
	}
	if got := q(t, db, `count(doc("lib")/library/book)`); got != "1" {
		t.Fatalf("books left: %s", got)
	}
}

func TestUpdateReplace(t *testing.T) {
	db := testDB(t)
	upd(t, db, `UPDATE replace $p in doc("lib")/library/paper
	            with <paper><title>{$p/title/text()}</title><author>E.F. Codd</author></paper>`)
	got := q(t, db, `doc("lib")/library/paper/author/text()`)
	if got != "E.F. Codd" {
		t.Fatalf("after replace: %s", got)
	}
	got = q(t, db, `count(doc("lib")/library/paper)`)
	if got != "1" {
		t.Fatalf("paper count: %s", got)
	}
}

func TestUpdateRename(t *testing.T) {
	db := testDB(t)
	upd(t, db, `UPDATE rename doc("lib")/library/paper on article`)
	if got := q(t, db, `count(doc("lib")/library/paper)`); got != "0" {
		t.Fatalf("paper still present: %s", got)
	}
	got := q(t, db, `doc("lib")/library/article/author/text()`)
	if got != "Codd" {
		t.Fatalf("renamed element content: %s", got)
	}
	// Position preserved: article is still the third child.
	if got := q(t, db, `name(doc("lib")/library/*[3])`); got != "article" {
		t.Fatalf("rename lost position: %s", got)
	}
}

func TestUpdateVisibleOnlyAfterCommit(t *testing.T) {
	db := testDB(t)
	tx, _ := db.Begin()
	if _, err := Execute(NewExecCtx(tx), `UPDATE delete doc("lib")//paper`); err != nil {
		t.Fatal(err)
	}
	// A concurrent snapshot still sees the paper.
	if got := q(t, db, `count(doc("lib")//paper)`); got != "1" {
		t.Fatalf("snapshot sees uncommitted delete: %s", got)
	}
	tx.Rollback()
	if got := q(t, db, `count(doc("lib")//paper)`); got != "1" {
		t.Fatalf("rollback lost the paper: %s", got)
	}
}

func TestDDLAndIndexScan(t *testing.T) {
	db := testDB(t)
	res := upd(t, db, `CREATE INDEX "byauthor" ON doc("lib")/library/book BY author AS string`)
	if !strings.Contains(res.Message, "created") {
		t.Fatalf("create index: %s", res.Message)
	}
	got := q(t, db, `index-scan("byauthor", "Date")/title/text()`)
	if got != "An Introduction to Database Systems" {
		t.Fatalf("index scan: %s", got)
	}
	// Index maintenance on insert.
	upd(t, db, `UPDATE insert <book><title>New</title><author>Gray</author></book> into doc("lib")/library`)
	got = q(t, db, `index-scan("byauthor", "Gray")/title/text()`)
	if got != "New" {
		t.Fatalf("index after insert: %s", got)
	}
	// Index maintenance on delete.
	upd(t, db, `UPDATE delete doc("lib")/library/book[author = "Gray"]`)
	got = q(t, db, `count(index-scan("byauthor", "Gray"))`)
	if got != "0" {
		t.Fatalf("index after delete: %s", got)
	}
	upd(t, db, `DROP INDEX "byauthor"`)
	tx, _ := db.BeginReadOnly()
	defer tx.Rollback()
	if _, err := Execute(NewExecCtx(tx), `index-scan("byauthor", "Date")`); err == nil {
		t.Fatal("dropped index still usable")
	}
}

func TestNumericIndex(t *testing.T) {
	db := testDB(t)
	upd(t, db, `CREATE INDEX "byyear" ON doc("lib")/library/book BY year AS number`)
	got := q(t, db, `index-scan("byyear", 1995)/title/text()`)
	if got != "Foundations of Databases" {
		t.Fatalf("numeric index scan: %s", got)
	}
}

func TestCreateDropDocumentDDL(t *testing.T) {
	db := testDB(t)
	upd(t, db, `CREATE DOCUMENT "scratch"`)
	if got := q(t, db, `count(doc("scratch")/node())`); got != "0" {
		t.Fatalf("fresh doc children: %s", got)
	}
	upd(t, db, `UPDATE insert <root><a/></root> into doc("scratch")`)
	if got := q(t, db, `count(doc("scratch")/root/a)`); got != "1" {
		t.Fatalf("insert into fresh doc: %s", got)
	}
	upd(t, db, `DROP DOCUMENT "scratch"`)
	tx, _ := db.BeginReadOnly()
	defer tx.Rollback()
	if _, err := Execute(NewExecCtx(tx), `doc("scratch")`); err == nil {
		t.Fatal("dropped document still resolvable")
	}
}

func TestStaticErrors(t *testing.T) {
	db := testDB(t)
	tx, _ := db.BeginReadOnly()
	defer tx.Rollback()
	for _, src := range []string{
		`$undefined`,
		`frobnicate(1)`,
		`for $x in (1,2) return $y`,
	} {
		if _, err := Execute(NewExecCtx(tx), src); err == nil {
			t.Errorf("%q: expected static error", src)
		}
	}
}

func TestReadOnlyRejectsUpdates(t *testing.T) {
	db := testDB(t)
	tx, _ := db.BeginReadOnly()
	defer tx.Rollback()
	if _, err := Execute(NewExecCtx(tx), `UPDATE delete doc("lib")//paper`); err == nil {
		t.Fatal("update in read-only transaction must fail")
	}
	if _, err := Execute(NewExecCtx(tx), `CREATE DOCUMENT "x"`); err == nil {
		t.Fatal("DDL in read-only transaction must fail")
	}
}

// TestExecStatsConcurrent hammers one context's stats block from many
// goroutines; run with -race. The counters must neither lose increments nor
// tear.
func TestExecStatsConcurrent(t *testing.T) {
	ctx := NewExecCtx(nil)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := ctx.stats()
			for i := 0; i < perWorker; i++ {
				s.AddDDOOps(1)
				s.AddSchemaScans(1)
				s.AddLazyHits(1)
			}
		}()
	}
	wg.Wait()
	want := uint64(workers * perWorker)
	s := ctx.stats()
	if s.DDOOps != want || s.SchemaScans != want || s.LazyHits != want {
		t.Fatalf("lost increments: ddo=%d schema=%d lazy=%d want %d",
			s.DDOOps, s.SchemaScans, s.LazyHits, want)
	}
}
