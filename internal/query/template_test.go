package query

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sedna/internal/core"
)

// templateSeeds are the statements FuzzTemplateRebind makes templates of: the
// identity corpus, the benchmark's point_read and update_mix shapes over the
// corpus auction, and where clauses the rewriter turns into predicates.
var templateSeeds = append(append([]string(nil), corpusQueries...),
	`doc("site")/site/people/person[@id = "p5"]/name`,
	`doc("site")/site/open_auctions/open_auction[@id = "a3"]/current`,
	`doc("site")/site/people/person[4]/emailaddress`,
	`doc("site")/site/open_auctions/open_auction[2]/initial`,
	`for $p in doc("site")/site/people/person[@id = "p5"] return <p n="{$p/name}">{string($p/emailaddress)}</p>`,
	`for $b in doc("site")/site/open_auctions/open_auction[@id = "a3"]/bidder return <b p="{$b/personref/@person}">{string($b/increase)}</b>`,
	`UPDATE insert <bidder><personref person="p1"/><increase>7</increase></bidder> into doc("site")/site/open_auctions/open_auction[@id = "a3"]`,
	`UPDATE replace $c in doc("site")/site/open_auctions/open_auction[@id = "a3"]/current with <current>12</current>`,
	`UPDATE delete doc("site")/site/open_auctions/open_auction[@id = "a3"]/bidder[increase = 7]`,
	`count(for $i in doc("cat")//item where $i/value > 5000 return $i)`,
	`for $i in doc("cat")//item where $i/name = "name7" return string($i/value)`,
	`count(for $e in doc("num")/n/r where $e/v >= 10 return $e)`,
	`<r a='x{"y"}z'>{"q", 'a''b', 1.5, .5, 1e3}</r>`,
	`declare function f($x) { $x + 2 }; f(40)`,
)

// runFresh executes st on a fresh context — a snapshot transaction for a
// query, an update transaction rolled back after it — and returns its
// serialized answer or error, and whether a two-second deadline killed it.
func runFresh(db *core.Database, st *Statement) (answer string, killed bool) {
	var tx *core.Tx
	var err error
	if st.ReadOnly() {
		tx, err = db.BeginReadOnly()
	} else {
		tx, err = db.Begin()
	}
	if err != nil {
		return "begin: " + err.Error(), false
	}
	defer tx.Rollback()
	ctx := NewExecCtx(tx)
	deadline := time.AfterFunc(2*time.Second, ctx.Kill)
	defer deadline.Stop()
	res, err := ExecuteStatement(ctx, st)
	if err == nil {
		answer, err = res.String()
		answer = fmt.Sprintf("%s (%d updated)", answer, res.Updated)
	}
	if err != nil {
		return "error: " + err.Error(), ctx.Killed()
	}
	return answer, ctx.Killed()
}

// FuzzTemplateRebind drives a TemplateCache as a session does — parse,
// execute, keep — over a seed statement, then gives it the seed's text with
// fuzzed literals in its slots (s in every string slot, n in every numeric
// one) and, with b non-zero, one byte of the text between them set to b. A hit
// must answer, and EXPLAIN, as query.Parse of the same text does on a fresh
// context; and a hit is only allowed for a text whose own template, made from
// its own parse, has the seed template's segments: a text that differs
// outside a literal slot never hits.
func FuzzTemplateRebind(f *testing.F) {
	db := corpusDB(f)
	for i := range templateSeeds {
		f.Add(uint8(i), "", "0", uint16(0), byte(0))
	}
	for _, s := range []string{`a"b`, `''`, "{", "<", "&amp;", "é漢字", "p7"} {
		f.Add(uint8(len(corpusQueries)), s, ".5", uint16(3), byte(0))
	}
	f.Add(uint8(len(templateSeeds)-2), `x'y`, "1e3", uint16(1<<15|4), byte(0))
	f.Add(uint8(len(corpusQueries)+1), "a3", "7", uint16(9), byte(' '))
	f.Add(uint8(len(corpusQueries)+2), "", "5", uint16(30), byte('6'))
	f.Fuzz(func(t *testing.T, which uint8, s, n string, at uint16, b byte) {
		base := templateSeeds[int(which)%len(templateSeeds)]
		var c TemplateCache
		st, _, err := c.Parse(base)
		if err != nil {
			t.Fatalf("seed %s: %v", base, err)
		}
		runFresh(db, st)
		c.Keep(st)
		if c.lru.Len() != 1 {
			t.Fatalf("seed %s made no template", base)
		}
		tpl := c.lru.Front().Value.(*template)

		// The seed's text with the fuzzed literals and, maybe, one byte
		// between them changed.
		quote := `"`
		if at&(1<<15) != 0 {
			quote = "'"
		}
		segs := append([]string(nil), tpl.segs...)
		if total := len(strings.Join(segs, "")); b != 0 && total > 0 {
			i := int(at&(1<<15-1)) % total
			for j, seg := range segs {
				if i < len(seg) {
					segs[j] = seg[:i] + string([]byte{b}) + seg[i+1:]
					break
				}
				i -= len(seg)
			}
		}
		var sb strings.Builder
		for i, lit := range tpl.slots {
			sb.WriteString(segs[i])
			if lit.IsString {
				sb.WriteString(quote + strings.ReplaceAll(s, quote, quote+quote) + quote)
			} else {
				sb.WriteString(n)
			}
		}
		sb.WriteString(segs[len(tpl.slots)])
		text := sb.String()

		hitSt, hit, err := c.Parse(text)
		if !hit {
			return
		}
		if err != nil {
			t.Fatalf("a hit with an error: %v", err)
		}
		for _, lit := range tpl.slots {
			if !lit.IsString && (lit.Number > 1e4 || lit.Number < -1e4) {
				return // bounded work only
			}
		}
		// The text's own template, from its own parse.
		var own TemplateCache
		fresh, _, err := own.Parse(text)
		if err != nil {
			t.Fatalf("%s hit the template of %s but does not parse: %v", text, base, err)
		}
		want, killed := runFresh(db, fresh)
		own.Keep(fresh)
		if own.lru.Len() != 1 {
			t.Fatalf("%s hit the template of %s but makes no template itself", text, base)
		}
		ownTpl := own.lru.Front().Value.(*template)
		if strings.Join(ownTpl.segs, "\x00") != strings.Join(tpl.segs, "\x00") || len(ownTpl.slots) != len(tpl.slots) {
			t.Fatalf("%s hit the template of %s\nits segments: %q\nthe template's: %q", text, base, ownTpl.segs, tpl.segs)
		}
		for i := range tpl.slots {
			if ownTpl.slots[i].IsString != tpl.slots[i].IsString {
				t.Fatalf("%s: slot %d is another kind of literal than in %s", text, i, base)
			}
		}
		got, killed2 := runFresh(db, hitSt)
		if killed || killed2 {
			return
		}
		if got != want {
			t.Fatalf("%s\nfrom the template: %.300s\nparsed:            %.300s", text, got, want)
		}
		if g, w := ExplainText(hitSt), ExplainText(fresh); g != w {
			t.Fatalf("%s: EXPLAIN from the template\n%s\nparsed\n%s", text, g, w)
		}
	})
}

// analyzeRewrite runs the phases a template caches, as prepare does.
func analyzeRewrite(st *Statement) {
	if Analyze(st) == nil {
		st.analyzed = true
		Rewrite(st)
		st.rewritten = true
	}
}

// TestTemplateMatching: what hits a template and what does not.
func TestTemplateMatching(t *testing.T) {
	base := `doc("site")//person[@id = "p5"][2]/name`
	for _, c := range []struct {
		src string
		hit bool
	}{
		{`doc("site")//person[@id = "p77"][3]/name`, true},
		{`doc("site")//person[@id = 'p''7'][.5]/name`, true},
		{`doc("site")//person[@id = ""][1e3]/name`, true},
		{`doc("site")//person[@id = "p5"][2]/name`, true},
		{`doc("site")//person[@id =  "p5"][2]/name`, false},  // white space moves a slot
		{`doc("site")//person[@id = "p5"][2]/nam`, false},    // a segment differs
		{`doc("site")//person[@id = 5][2]/name`, false},      // another kind of literal
		{`doc("site")//person[@id = "p5"]["2"]/name`, false}, // another kind of literal
		{`doc("sitx")//person[@id = "p5"][2]/name`, false},   // doc()'s name is not a slot
		{`doc("site")//person[@id = "p5"][2]/name[1]`, false},
		{`doc("site")//person[@id = "p5" ][2]/name`, false},
		{`doc("site")//person[@id = "p5"][2 ]/name`, false},
	} {
		var tc TemplateCache
		st, _, err := tc.Parse(base)
		if err != nil {
			t.Fatal(err)
		}
		analyzeRewrite(st)
		tc.Keep(st)
		got, hit, err := tc.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if hit != c.hit {
			t.Errorf("%s: hit %v, want %v", c.src, hit, c.hit)
			continue
		}
		if !hit {
			continue
		}
		want := mustParse(t, c.src)
		analyzeRewrite(want)
		if g, w := ExplainText(got), ExplainText(want); g != w || got.Source != c.src {
			t.Errorf("%s: from the template\n%s(source %s)\nparsed\n%s", c.src, g, got.Source, w)
		}
	}
}

// TestTemplateCacheBounded: the cache keeps templateCap templates, evicting the
// least recently used; EXPLAIN, DDL and statements that fail analysis are not
// kept.
func TestTemplateCacheBounded(t *testing.T) {
	var tc TemplateCache
	keep := func(src string) bool {
		t.Helper()
		st, hit, err := tc.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !hit {
			analyzeRewrite(st)
			tc.Keep(st)
		}
		return hit
	}
	recurring := `doc("d")/r[@k = "1"]`
	keep(recurring)
	for i := 0; i < 3*templateCap; i++ {
		keep(fmt.Sprintf(`<once n="%d"/>`, i))
		if i%10 == 0 && !keep(recurring) {
			t.Fatalf("the recurring statement was evicted after %d one-off texts", i)
		}
		if tc.lru.Len() > templateCap {
			t.Fatalf("%d templates kept, cap %d", tc.lru.Len(), templateCap)
		}
	}
	if keep(`<once n="0"/>`) {
		t.Error("the oldest one-off text is still kept")
	}
	n := tc.lru.Len()
	for _, src := range []string{`EXPLAIN doc("d")/r`, `PROFILE doc("d")/r`, `CREATE DOCUMENT "x"`, `ANALYZE doc("d")`, `$undefined + 1`} {
		keep(src)
		if keep(src) || tc.lru.Len() != n {
			t.Errorf("%s was kept", src)
		}
	}
}
