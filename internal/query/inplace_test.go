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
// and as attribute values; the literal is a string or a number.
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
		doc := fmt.Sprintf(`<r><e><p a="%s"><v>%s</v><v>%s</v></p></e><e><p a="%s"><v>%s</v></p><p/></e><e/></r>`,
			esc(a), esc(a), esc(b), esc(b), esc(b))
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
		for _, c := range [][2]string{
			{pred("p/v " + o + " " + lit), pred("some $x in p/v satisfies $x " + o + " " + lit)},
			{pred(lit + " " + o + " p/v"), pred("some $x in p/v satisfies " + lit + " " + o + " $x")},
			{pred("p/@a " + o + " " + lit), pred("some $x in p/@a satisfies $x " + o + " " + lit)},
			{where("$e/p/v " + o + " " + lit), where("some $x in $e/p/v satisfies $x " + o + " " + lit)},
		} {
			got := q(t, db, c[0])
			if want := q(t, db, c[1]); got != want {
				t.Fatalf("%s = %s, but %s = %s\n%s", c[0], got, c[1], want, doc)
			}
		}
	})
}
