package query

import (
	"encoding/xml"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"sedna/internal/core"
	"sedna/internal/schema"
	"sedna/internal/storage"
	"sedna/internal/xmlgen"
)

// TestInPlaceOffCorpusIdentity runs the identity corpus with the rewriter
// off, so that no comparison is marked in place: every answer is still the
// recorded one, which the corpus tests with the rewriter on reach through the
// in-place path.
func TestInPlaceOffCorpusIdentity(t *testing.T) {
	checkCorpus(t, corpusDB(t), func(ctx *ExecCtx) { ctx.NoRewrite = true })
}

// TestExplainInPlace: EXPLAIN marks the comparisons of the in-place shape,
// among them every value predicate and where clause of the scan_analytic
// workload, and no other.
func TestExplainInPlace(t *testing.T) {
	db := testDB(t)
	for _, c := range []struct{ src, op string }{
		{`doc("lib")//book[author = "Date"]/title`, "="},
		{`count(doc("lib")//book[year > 1990])`, ">"},
		{`doc("site")//person[profile/age > 60]/name`, ">"},
		{`count(doc("site")//item[quantity > 5])`, ">"},
		{`for $b in doc("lib")/library/book where $b/issue/year > 2012 return string($b/title)`, ">"},
		{`for $a in doc("site")/site/open_auctions/open_auction where $a/current > 4800 return count($a/bidder)`, ">"},
		{`doc("lib")//book[1990 < year]`, "<"},
		{`doc("site")//person[@id != "p1"]`, "!="},
		{`UPDATE delete doc("site")//bidder[increase = 7]`, "="},
	} {
		if out := q(t, db, "EXPLAIN "+c.src); !strings.Contains(out, "binary "+c.op+" [in-place]") {
			t.Errorf("EXPLAIN %s: no in-place comparison\n%s", c.src, out)
		}
	}
	for _, src := range []string{
		`doc("lib")//book[author[1] = "Date"]`,
		`doc("lib")//book[* = "Date"]`,
		`doc("lib")//book[. = "Date"]`,
		`doc("lib")//book[.//author = "Date"]`,
		`doc("lib")//book[author = title]`,
		`doc("lib")//book[@id/x = "Date"]`,
		`doc("lib")//book[year > -5]`,
		`doc("lib")//book[year eq 1990]`,
		`for $b in doc("lib")//book where some $y in $b/year satisfies $y > 1990 return $b`,
	} {
		if out := q(t, db, "EXPLAIN "+src); strings.Contains(out, "[in-place]") {
			t.Errorf("EXPLAIN %s: marked in place\n%s", src, out)
		}
	}
}

// TestInPlaceReadsOwnWrites: an update statement's target selection compares
// in place through its transaction, so it sees what the transaction wrote
// before it.
func TestInPlaceReadsOwnWrites(t *testing.T) {
	db := allocDB(t)
	bidders := func() int {
		n, err := strconv.Atoi(q(t, db, `count(doc("small")//bidder)`))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	before := bidders()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	run := func(src string) int {
		t.Helper()
		res, err := Execute(NewExecCtx(tx), src)
		if err != nil {
			tx.Rollback()
			t.Fatalf("%s: %v", src, err)
		}
		return res.Updated
	}
	run(`UPDATE replace $i in (doc("small")//bidder)[1]/increase with <increase>424242</increase>`)
	if n := run(`UPDATE delete doc("small")//bidder[increase = 424242]`); n != 1 {
		tx.Rollback()
		t.Fatalf("deleted %d bidders, want the one this transaction rewrote", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if after := bidders(); after != before-1 {
		t.Fatalf("%d bidders after the delete, want %d", after, before-1)
	}
}

// FuzzValueCompare holds the in-place comparison to the general one: a
// predicate comparing a child path, or an attribute, with a literal selects
// what the same comparison under a quantifier selects, and that never takes
// the in-place path; so does a FLWOR's where clause of that shape, which the
// rewriter turns into a predicate. The leaf values are fuzzed, XML-escaped, as element text
// and as attribute values; the literal is a string or a number. The e
// elements lie under two parents, so //e merges two lists: counted, the
// producer drains them one after the other; kept (their @k serialized, also
// behind a positional second predicate), it merges the nodes that pass. A
// child step under one parent (/r/e) ends at the parent's last child.
func FuzzValueCompare(f *testing.F) {
	db, err := core.Open(f.TempDir(), core.Options{NoSync: true, BufferPages: 256})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { db.Close() })
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	esc := func(s string) string {
		var sb strings.Builder
		_ = xml.EscapeText(&sb, []byte(s)) // a strings.Builder does not fail
		return sb.String()
	}
	f.Fuzz(func(t *testing.T, a, b string, op byte, s string, n float64, isNum bool) {
		if !utf8.ValidString(s) {
			return
		}
		lit := `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		if isNum {
			if math.IsNaN(n) || math.IsInf(n, 0) {
				return
			}
			lit = strconv.FormatFloat(math.Abs(n), 'g', -1, 64)
		}
		a, b = esc(a), esc(b)
		doc := fmt.Sprintf(`<r><e k="1"><p a="%s"><v>%s</v><v>%s</v></p></e><e k="2"><p a="%s"><v>%s</v></p><p/></e><e k="3"/>`+
			`<s><e k="4"><p a="%s"><v>%s</v></p></e><e k="5"><p><v>%s</v><v>%s</v></p></e></s><e k="6"><p><v>%s</v></p></e></r>`,
			a, a, b, b, b, a, a, b, a, b)
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.LoadXML("f", strings.NewReader(doc)); err != nil {
			tx.Rollback()
			t.Fatalf("load %q: %v", doc, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		defer upd(t, db, `DROP DOCUMENT "f"`)
		o := ops[int(op)%len(ops)]
		pred := func(p string) string { return `count(doc("f")//e[` + p + `])` }
		where := func(w string) string { return `count(for $e in doc("f")//e where ` + w + ` return $e)` }
		vs := "p/v " + o + " " + lit
		some := "some $x in p/v satisfies $x " + o + " " + lit
		for _, c := range [][2]string{
			{pred(vs), pred(some)},
			{pred(lit + " " + o + " p/v"), pred("some $x in p/v satisfies " + lit + " " + o + " $x")},
			{pred("p/@a " + o + " " + lit), pred("some $x in p/@a satisfies $x " + o + " " + lit)},
			{where("$e/p/v " + o + " " + lit), where("some $x in $e/p/v satisfies $x " + o + " " + lit)},
			{`doc("f")//e[` + vs + `]/@k`, `doc("f")//e[` + some + `]/@k`},
			{`doc("f")//e[` + vs + `][2]/@k`, `doc("f")//e[` + some + `][2]/@k`},
			{`doc("f")/r/e[` + vs + `]/@k`, `doc("f")/r/e[` + some + `]/@k`},
		} {
			got := q(t, db, c[0])
			if want := q(t, db, c[1]); got != want {
				t.Fatalf("%s = %s, but %s = %s\n%s", c[0], got, c[1], want, doc)
			}
		}
	})
}

// TestInPlaceOverflowedLabels runs value predicates whose candidates have
// labels that overflowed the descriptor's inline area (a tree 24 levels
// deep): counted, kept through a merge, behind a positional predicate, under
// a descendant step's ancestor bound and as a where clause. At batch
// capacities 1, 3 and the default, every answer equals the one with the
// rewriter off, where no comparison is made in place.
func TestInPlaceOverflowedLabels(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true, BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LoadXML("deep", strings.NewReader(xmlgen.DeepString(24, 3))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rtx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := rtx.Document("deep")
	if err != nil {
		t.Fatal(err)
	}
	deepest := doc.Schema.Root
	for c := deepest.Child(schema.KindElement, "root"); c != nil; c = c.Child(schema.KindElement, "n0") {
		deepest = c
	}
	d, ok, err := storage.FirstOfSchema(rtx.Tx, deepest)
	rtx.Rollback()
	if err != nil || !ok || len(d.Label.Prefix) <= 16 {
		t.Fatalf("the deepest n0's label is %d bytes (%v), want one that overflowed 16", len(d.Label.Prefix), err)
	}
	queries := []string{
		`count(doc("deep")//n0[n1 >= "leaf-12"])`,
		`doc("deep")//n0[n1 < "leaf-2"]/n2`,
		`doc("deep")/descendant::n0[n2 != "leaf-7-2"][3]/n1`,
		`count(doc("deep")//n0[n0/n1 > "leaf-20"]//n0[n2 = "leaf-4-2"])`,
		`doc("deep")/root/n0//n0[n1 <= "leaf-15"]/n2`,
		`for $n in doc("deep")//n0 where $n/n1 > "leaf-3" return string($n/n2)`,
	}
	for _, capacity := range []int{1, 3, batchCap} {
		t.Run(fmt.Sprint("capacity=", capacity), func(t *testing.T) {
			forceBatchCap(t, capacity)
			for _, src := range queries {
				got := q(t, db, src)
				if want := qset(t, db, src, func(ctx *ExecCtx) { ctx.NoRewrite = true }); got != want {
					t.Errorf("%s\n in place: %.200s\nrewriter off: %.200s", src, got, want)
				}
			}
		})
	}
}
