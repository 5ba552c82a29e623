package query

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"sedna/internal/core"
	"sedna/internal/xmlgen"
)

// corpusAnswers are the recorded answers to corpusQueries over corpusDB, by
// query (testdata/corpus.json). They were taken from an
// engine that served every document from two independent backends — the
// block chains and an in-memory structural array — which agreed on all of
// them, so the identity tests compare the block-chain executor with
// something other than itself; the doc("simple") entries were written by
// hand from its one line of XML and the two updates applied to it. They are
// checked, never regenerated.
var corpusAnswers = sync.OnceValues(func() (map[string]string, error) {
	b, err := os.ReadFile("testdata/corpus.json")
	if err != nil {
		return nil, err
	}
	var entries []struct{ Query, Answer string }
	if err := json.Unmarshal(b, &entries); err != nil {
		return nil, err
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		out[e.Query] = e.Answer
	}
	return out, nil
})

// checkCorpus runs the whole corpus through contexts set up by set and
// compares every answer with the recorded one.
func checkCorpus(t *testing.T, db *core.Database, set func(*ExecCtx)) {
	t.Helper()
	want, err := corpusAnswers()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(corpusQueries) {
		t.Fatalf("%d recorded answers for %d corpus queries", len(want), len(corpusQueries))
	}
	for _, src := range corpusQueries {
		w, ok := want[src]
		if !ok {
			t.Fatalf("no recorded answer for %s", src)
		}
		var ctx ExecCtx
		set(&ctx)
		if got := qset(t, db, src, set); got != w {
			t.Errorf("%s (noopt=%v norewrite=%v)\n got: %.200s\nwant: %.200s", src, ctx.NoOpt, ctx.NoRewrite, got, w)
		}
	}
}

// corpusDB opens a database preloaded with the xmlgen corpora the identity
// corpus queries: the multi-schema-node Sections catalog (a descendant step
// merges one scan per schema node), a scaled library, an auction site,
// a deep narrow tree, a mixed-content document, a small document of
// text-only, empty and mixed elements that updates reshape after load, and
// one of values in and out of xs:double's lexical space.
func corpusDB(t testing.TB) *core.Database {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true, BufferPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{
		"cat":    xmlgen.SectionsString(8, 40, 1),
		"biglib": xmlgen.LibraryString(120, 2),
		"site":   xmlgen.AuctionString(30, 20, 3, 3),
		"deep":   xmlgen.DeepString(6, 4),
		"mixed":  mixedContentDoc(60),
		"simple": simpleContentXML,
		"num":    numberXML,
	}
	for name, content := range docs {
		if _, err := tx.LoadXML(name, strings.NewReader(content)); err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Split <split>'s text in two by deleting the child between, and give the
	// text-only <v> an element child.
	upd(t, db, `UPDATE delete doc("simple")/s/split/x`)
	upd(t, db, `UPDATE insert <w>5</w> into doc("simple")/s/v[1]`)
	// Widen the last <r> alone: the others keep descriptors without a slot
	// for <u>.
	upd(t, db, `UPDATE insert <u>9</u> into doc("num")/n/r[15]`)
	return db
}

// numberXML holds values in and out of xs:double's lexical space, some in Go
// float syntax: white space and a no-break space around digits, a hexadecimal
// mantissa, "inf", an underscore, an empty element, a record with two values
// and one with none.
const numberXML = `<n><r k="1"><v>10</v></r><r k="2"><v> 20 </v></r><r k="3"><v>&#9;30&#xA;</v></r>` +
	`<r k="4"><v>0x1p4</v></r><r k="5"><v>inf</v></r><r k="6"><v>INF</v></r><r k="7"><v>1_000</v></r>` +
	"<r k=\"8\"><v>\u00a020</v></r>" + `<r k="9"><v>nan</v></r><r k="10"><v/></r>` +
	`<r k="11"><v>1e2</v><v>3</v></r><r k="12"/><r k="13"><v>-INF</v></r><r k="14"><v>.5</v></r>` +
	`<r k="15"><v>+7</v></r></n>`

// simpleContentXML holds elements whose string value is their text slot
// (<t>, <v> as loaded), elements with no content (<e>), and mixed content.
const simpleContentXML = `<s><e a="1"/><e a="2"></e><t>plain</t><t>a &lt; b &amp; c</t>` +
	`<mix>one<k>two</k>three</mix><split>ab<x/>cd</split><v>10</v><v>20</v></s>`

// mixedContentDoc generates n paragraphs whose string values are spread over
// nested and interleaved text nodes: text before, between and after child
// elements, the same element names at several depths, empty elements, and a
// comment and a processing instruction that the string value must skip. The
// string value of paragraph i is mixedContentValue(i).
func mixedContentDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("<m>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<p n="%d">a%d<b>b<i>c<b>d</b></i>e</b><!--x-->f<b/><?pi y?>g<i>h</i></p>`, i, i)
		if i%7 == 0 {
			sb.WriteString("<p/>")
		}
	}
	sb.WriteString("<q><p>only<p>nested</p></p></q></m>")
	return sb.String()
}

func mixedContentValue(i int) string { return fmt.Sprintf("a%dbcdefgh", i) }

// corpusQueries is the identity corpus: path steps with multi-schema-node
// descendant scans, predicates, FLWORs (plain, where, positional, ordered,
// nested), aggregates and quantifiers. Every query must serialize to its
// recorded answer (corpusAnswers) with the optimizer on or off, with the
// rewriter on or off, at any batch capacity.
var corpusQueries = []string{
	// Sections catalog: //item merges the scans of 8 schema nodes.
	`count(doc("cat")//item)`,
	`doc("cat")//name`,
	`data(doc("cat")//value)`,
	`doc("cat")//item[value > 9000]/name`,
	`count(doc("cat")//item[value < 5000])`,
	`doc("cat")/catalog/sec3/item[2]/name/text()`,
	`data(doc("cat")//item/@id)`,
	`max(doc("cat")//value)`,
	`min(doc("cat")//value)`,
	`sum(for $v in doc("cat")//value return number($v))`,
	`distinct-values(doc("cat")//note/text())`,
	`for $i in doc("cat")//item where $i/value > 9500 return string($i/name)`,
	`for $i at $p in doc("cat")/catalog/sec0/item where $p <= 5 return string($i/value)`,
	`for $i in doc("cat")/catalog/sec1/item order by number($i/value) return string($i/value)`,
	`for $s in doc("cat")/catalog/*, $i in $s/item where $i/value > 9000 return string($i/value)`,
	`for $i in doc("cat")/catalog/sec2/item return if ($i/value > 5000) then "hi" else "lo"`,
	`count(doc("cat")//item[some $n in note satisfies contains($n, "Codd")])`,
	// Scaled library.
	`count(doc("biglib")//author)`,
	`doc("biglib")//book[year = 1999]/title`,
	`data(doc("biglib")//publisher)`,
	`count(doc("biglib")//issue/year)`,
	`for $b in doc("biglib")/library/book where count($b/author) > 2 return $b/title/text()`,
	`for $p in doc("biglib")/library/paper order by $p/title return string($p/title)`,
	`for $a in doc("biglib")//author order by $a return string($a)`,
	// Auction site: deeper nesting, more schema variety.
	`count(doc("site")//bidder)`,
	`data(doc("site")//current)`,
	`doc("site")//person[profile/age > 60]/name`,
	`for $a in doc("site")//open_auction where number($a/current) > 4000 return string($a/initial)`,
	`sum(for $b in doc("site")//increase return number($b))`,
	`count(doc("site")//item)`,
	// Deep narrow tree: long labels, recursion through one schema chain.
	`count(doc("deep")//n0)`,
	`count(doc("deep")//n2)`,
	`data(doc("deep")/root/n0/n0/n1)`,
	// Element constructors over stored nodes: copied text nodes, copied
	// elements (virtual references, serialized from storage) and a
	// navigated constructor (deep copy).
	`for $p in doc("site")//person return <r>{$p/name/text()}</r>`,
	`for $p in doc("biglib")/library/paper return <r>{$p/title}</r>`,
	`(for $b in doc("biglib")/library/book return <r>{$b/title}</r>)/title/text()`,
	// String values of stored elements assembled from nested and interleaved
	// text nodes: atomization opens one range scan per context element.
	`data(doc("mixed")//p)`,
	`for $p in doc("mixed")/m/p return string($p)`,
	`doc("mixed")/m/p[. = "a7bcdefgh"]/@n`,
	`count(doc("mixed")//p[contains(., "efg")])`,
	`data(doc("mixed")//b)`,
	`for $p in doc("mixed")/m/p where $p/b > "b" return string($p/b/i)`,
	`string(doc("mixed")/m/q)`,
	`count(doc("mixed")//p[. = ""])`,
	// String values read from the text slot of a text-only element, and the
	// shapes that must not take that path.
	`data(doc("simple")/s/t)`,
	`doc("simple")/s/t[. = "a < b & c"]`,
	`count(doc("simple")/s/e[. = ""])`,
	`data(doc("simple")//e/@a)`,
	`string(doc("simple")/s/mix)`,
	`doc("simple")/s/split`,
	`string(doc("simple")/s/split)`,
	`for $v in doc("simple")/s/v return string($v)`,
	`sum(doc("simple")/s/v)`,
	`doc("simple")/s/v[. = "20"]`,
	// Positions, reverse and sibling axes, and paths that are only counted
	// or probed: what the batch collectors decide node by node.
	`doc("cat")/catalog/sec3/item[last()]/name/text()`,
	`doc("cat")//item[position() = 3]/name`,
	`doc("cat")//item[value > 5000][2]/name`,
	`doc("cat")/catalog/*/item[39]/following-sibling::item/name`,
	`data(doc("cat")/catalog/sec5/item[4]/preceding-sibling::item/@id)`,
	`data(doc("cat")//item[value > 9800]/parent::*/item[1]/@id)`,
	`count(doc("cat")//value/ancestor::*)`,
	`doc("mixed")/m/p[4]/preceding-sibling::node()[2]`,
	`doc("mixed")/m/p[2]/following-sibling::node()[3]`,
	`count(doc("site")//person[profile])`,
	`doc("site")//person[not(profile/age)]/name`,
	`data(doc("site")//open_auction[bidder[2]]/@id)`,
	`doc("site")//open_auction[2]/bidder[last()]/increase`,
	`exists(doc("site")//bidder), empty(doc("site")//nosuch), boolean(doc("site")//person[7])`,
	`for $a in doc("site")//open_auction where $a/bidder return count($a/bidder/increase)`,
	`doc("deep")//n1[1]/n0[1]/ancestor-or-self::*[2]`,
	// Comparisons read in place — several values per node, a missing step,
	// empty elements, attributes, a literal on the left, a start at a
	// variable, a slot beyond a narrow descriptor's width — the shapes that
	// fall back (mixed content, text split by a deleted child, an element
	// child gained after load), and untyped values cast to xs:double.
	`data(doc("num")/n/r[v > 15]/@k)`,
	`data(doc("num")/n/r[15 < v]/@k)`,
	`count(doc("num")/n/r[v > 5])`,
	`count(doc("num")/n/r[v != 5])`,
	`data(doc("num")/n/r[v = ""]/@k)`,
	`data(doc("num")/n/r[v = " 20 "]/@k)`,
	`count(doc("num")/n/r[@k > 10])`,
	`data(doc("num")/n[r/@k = "7"]/r[v = "1_000"]/@k)`,
	`data(doc("num")/n/r[u > 5]/@k)`,
	`for $r in doc("num")/n/r where $r/v > 15 return string($r/@k)`,
	`count(doc("biglib")//book[author = "Codd"])`,
	`count(doc("biglib")//book[issue/year >= 2015])`,
	`count(doc("site")//person[profile/age < 30])`,
	`count(doc("site")//person[profile/age != 30])`,
	`data(doc("site")//open_auction[bidder/increase > 45]/@id)`,
	`count(doc("cat")//item[value >= 5000])`,
	`count(doc("simple")/s[e = ""])`,
	`count(doc("simple")/s[e > 5])`,
	`count(doc("simple")/s[e != 5])`,
	`count(doc("simple")/s[t = "a < b & c"])`,
	`count(doc("simple")/s[mix = "onetwothree"])`,
	`count(doc("simple")/s[split = "abcd"])`,
	`count(doc("simple")/s[v = "105"])`,
}

// TestStringValueInterleaved pins the string value of stored elements whose
// text is nested and interleaved with child elements, comments and
// processing instructions, against the value the generator defines (one
// range scan per context element).
func TestStringValueInterleaved(t *testing.T) {
	db := corpusDB(t)
	got := strings.Split(q(t, db, `for $p in doc("mixed")/m/p[@n] return concat(string($p), "|")`), "|")
	if len(got) != 61 {
		t.Fatalf("%d paragraphs, want 60", len(got)-1)
	}
	for i := 0; i < 60; i++ {
		if strings.TrimSpace(got[i]) != mixedContentValue(i) {
			t.Fatalf("string value of paragraph %d = %q, want %q", i, got[i], mixedContentValue(i))
		}
	}
	if got := q(t, db, `string(doc("mixed")/m/q)`); got != "onlynested" {
		t.Fatalf("nested same-name elements: %q", got)
	}
	if got := q(t, db, `count(doc("mixed")/m/p[. = ""])`); got != "9" {
		t.Fatalf("empty paragraphs: %s, want 9", got)
	}
}
