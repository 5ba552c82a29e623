package query

import (
	"fmt"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Statement {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return st
}

func TestParseSimplePaths(t *testing.T) {
	for _, src := range []string{
		`doc("lib")/library/book/title`,
		`doc("lib")//author`,
		`/library/book`,
		`//book/title/text()`,
		`doc("lib")/library/book[1]`,
		`doc("lib")/library/book[author = "Date"]/title`,
		`doc("lib")/library/*`,
		`doc("lib")//book/@isbn`,
		`doc("lib")/library/book/..`,
		`doc("lib")//node()`,
		`doc("lib")/child::library/descendant::author`,
		`doc("lib")/library/book/ancestor-or-self::node()`,
		`doc("lib")/library/book/following-sibling::paper`,
	} {
		st := mustParse(t, src)
		if st.Query == nil {
			t.Fatalf("%q: not parsed as query", src)
		}
	}
}

func TestParsePathShape(t *testing.T) {
	st := mustParse(t, `doc("lib")/library/book`)
	step, ok := st.Query.(*Step)
	if !ok || step.Axis != AxisChild || step.Test.Name != "book" {
		t.Fatalf("outer step = %#v", st.Query)
	}
	inner, ok := step.Input.(*Step)
	if !ok || inner.Test.Name != "library" {
		t.Fatalf("inner step = %#v", step.Input)
	}
	if _, ok := inner.Input.(*DocCall); !ok {
		t.Fatalf("head = %#v", inner.Input)
	}
	if !step.NeedDDO {
		t.Fatal("parser must mark steps as needing DDO; the rewriter clears it")
	}
}

func TestParseDoubleSlashExpansion(t *testing.T) {
	st := mustParse(t, `doc("lib")//author`)
	// //author expands to descendant-or-self::node()/child::author.
	outer := st.Query.(*Step)
	if outer.Axis != AxisChild || outer.Test.Name != "author" {
		t.Fatalf("outer = %#v", outer)
	}
	dos := outer.Input.(*Step)
	if dos.Axis != AxisDescendantOrSelf || dos.Test.Kind != TestNode {
		t.Fatalf("dos = %#v", dos)
	}
}

func TestParseFLWOR(t *testing.T) {
	st := mustParse(t, `
		for $b in doc("lib")/library/book
		let $t := $b/title
		where $b/author = "Date"
		order by $t descending
		return <result>{$t}</result>`)
	f, ok := st.Query.(*FLWOR)
	if !ok {
		t.Fatalf("not FLWOR: %#v", st.Query)
	}
	if len(f.Clauses) != 2 || f.Clauses[0].Let || !f.Clauses[1].Let {
		t.Fatalf("clauses = %#v", f.Clauses)
	}
	if f.Where == nil || len(f.OrderBy) != 1 || !f.OrderBy[0].Descending {
		t.Fatal("where/order-by lost")
	}
	if _, ok := f.Return.(*ElementCtor); !ok {
		t.Fatalf("return = %#v", f.Return)
	}
}

func TestParseForAt(t *testing.T) {
	st := mustParse(t, `for $x at $i in (1,2,3) return $i`)
	f := st.Query.(*FLWOR)
	if f.Clauses[0].PosVar != "i" {
		t.Fatalf("posvar = %q", f.Clauses[0].PosVar)
	}
}

func TestParseQuantified(t *testing.T) {
	st := mustParse(t, `some $x in (1,2) satisfies $x = 2`)
	q := st.Query.(*Quantified)
	if q.Every || q.Var != "x" {
		t.Fatalf("q = %#v", q)
	}
	st = mustParse(t, `every $x in (1,2) satisfies $x > 0`)
	if !st.Query.(*Quantified).Every {
		t.Fatal("every lost")
	}
}

func TestParseIfAndOperators(t *testing.T) {
	st := mustParse(t, `if (1 < 2 and 3 >= 2 or not(true())) then "a" else 1 + 2 * 3`)
	ife := st.Query.(*IfExpr)
	add := ife.Else.(*Binary)
	if add.Op != OpAdd {
		t.Fatalf("else = %#v", ife.Else)
	}
	if add.Right.(*Binary).Op != OpMul {
		t.Fatal("precedence wrong: * must bind tighter than +")
	}
}

func TestParseValueAndNodeComparisons(t *testing.T) {
	for src, op := range map[string]BinOp{
		`1 eq 1`:   OpVEq,
		`1 lt 2`:   OpVLt,
		`$a is $b`: OpIs,
		`$a << $b`: OpBefore,
		`$a >> $b`: OpAfter,
	} {
		st := mustParse(t, src)
		if st.Query.(*Binary).Op != op {
			t.Fatalf("%q: op = %v", src, st.Query.(*Binary).Op)
		}
	}
}

func TestParseConstructors(t *testing.T) {
	st := mustParse(t, `<book year="2004" id="{1+2}">text {1+1} <nested/>more</book>`)
	c := st.Query.(*ElementCtor)
	if c.Name != "book" || len(c.Attrs) != 2 {
		t.Fatalf("ctor = %#v", c)
	}
	if len(c.Attrs[1].Value) != 1 {
		t.Fatalf("attr value parts = %#v", c.Attrs[1].Value)
	}
	if _, ok := c.Attrs[1].Value[0].(*Binary); !ok {
		t.Fatalf("embedded attr expr = %#v", c.Attrs[1].Value[0])
	}
	// Content: text "text ", {1+1}, <nested/>, text "more".
	if len(c.Content) != 4 {
		t.Fatalf("content = %d items: %#v", len(c.Content), c.Content)
	}
}

func TestParseComputedConstructors(t *testing.T) {
	st := mustParse(t, `element res { 1, 2 }`)
	c := st.Query.(*ElementCtor)
	if c.Name != "res" || len(c.Content) != 1 {
		t.Fatalf("ctor = %#v", c)
	}
	st = mustParse(t, `text { "hi" }`)
	if _, ok := st.Query.(*TextCtor); !ok {
		t.Fatalf("text ctor = %#v", st.Query)
	}
}

func TestParseNestedConstructorWithQuery(t *testing.T) {
	st := mustParse(t, `<r>{for $x in //a return <i>{$x/text()}</i>}</r>`)
	c := st.Query.(*ElementCtor)
	if len(c.Content) != 1 {
		t.Fatalf("content = %#v", c.Content)
	}
	if _, ok := c.Content[0].(*FLWOR); !ok {
		t.Fatalf("inner = %#v", c.Content[0])
	}
}

func TestParseEscapes(t *testing.T) {
	st := mustParse(t, `<a>x {{literal}} &amp; y</a>`)
	c := st.Query.(*ElementCtor)
	tc := c.Content[0].(*TextCtor)
	lit := tc.Content.(*Literal)
	if lit.String != "x {literal} & y" {
		t.Fatalf("text = %q", lit.String)
	}
}

func TestParseProlog(t *testing.T) {
	st := mustParse(t, `
		declare variable $base := 10;
		declare function local:double($x) { $x * 2 };
		local:double($base)`)
	if len(st.Prolog.Vars) != 1 || st.Prolog.Vars[0].Var != "base" {
		t.Fatalf("vars = %#v", st.Prolog.Vars)
	}
	f := st.Prolog.Funcs["local:double"]
	if f == nil || len(f.Params) != 1 {
		t.Fatalf("funcs = %#v", st.Prolog.Funcs)
	}
}

func TestParseUpdateStatements(t *testing.T) {
	st := mustParse(t, `UPDATE insert <author>New</author> into doc("lib")/library/book[1]`)
	if st.Update == nil || st.Update.Kind != UpdInsertInto {
		t.Fatalf("update = %#v", st.Update)
	}
	st = mustParse(t, `UPDATE delete doc("lib")//paper`)
	if st.Update.Kind != UpdDelete {
		t.Fatal("delete lost")
	}
	st = mustParse(t, `UPDATE replace $b in doc("lib")//book with <book>{$b/title}</book>`)
	if st.Update.Kind != UpdReplace || st.Update.Var != "b" {
		t.Fatalf("replace = %#v", st.Update)
	}
	st = mustParse(t, `UPDATE rename doc("lib")//paper on article`)
	if st.Update.Kind != UpdRename || st.Update.Name != "article" {
		t.Fatalf("rename = %#v", st.Update)
	}
	st = mustParse(t, `UPDATE insert <x/> preceding doc("lib")//book[1]`)
	if st.Update.Kind != UpdInsertPreceding {
		t.Fatal("preceding lost")
	}
}

func TestParseDDLStatements(t *testing.T) {
	st := mustParse(t, `CREATE DOCUMENT "books"`)
	if st.DDL == nil || st.DDL.Kind != DDLCreateDocument || st.DDL.Name != "books" {
		t.Fatalf("ddl = %#v", st.DDL)
	}
	st = mustParse(t, `DROP DOCUMENT "books"`)
	if st.DDL.Kind != DDLDropDocument {
		t.Fatal("drop lost")
	}
	st = mustParse(t, `CREATE INDEX "titles" ON doc("lib")/library/book BY title AS string`)
	d := st.DDL
	if d.Kind != DDLCreateIndex || d.DocName != "lib" || d.AsType != "string" {
		t.Fatalf("index ddl = %#v", d)
	}
	st = mustParse(t, `DROP INDEX "titles"`)
	if st.DDL.Kind != DDLDropIndex {
		t.Fatal("drop index lost")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		`for in x return 1`,
		`doc(unquoted)`,
		`<a><b></a>`,
		`1 +`,
		`"unterminated`,
		`(: unterminated comment`,
		`UPDATE frobnicate x`,
		`doc("x")/`,
		``,
	} {
		if _, err := Parse(src); err == nil {
			t.Fatalf("%q: expected parse error", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	st := mustParse(t, `(: outer (: nested :) still :) 1 + (: mid :) 2`)
	if st.Query.(*Binary).Op != OpAdd {
		t.Fatal("comments broke parsing")
	}
}

func TestParseRangeAndSequence(t *testing.T) {
	st := mustParse(t, `(1 to 5, 7)`)
	seq := st.Query.(*Sequence)
	if len(seq.Items) != 2 {
		t.Fatalf("seq = %#v", seq)
	}
	if seq.Items[0].(*Binary).Op != OpTo {
		t.Fatal("range lost")
	}
}

func TestParseUnionIntersectExcept(t *testing.T) {
	st := mustParse(t, `$a | $b intersect $c except $d`)
	b := st.Query.(*Binary)
	if b.Op != OpUnion {
		t.Fatalf("top = %v", b.Op)
	}
}

func TestParseEmptySequence(t *testing.T) {
	st := mustParse(t, `()`)
	if s, ok := st.Query.(*Sequence); !ok || len(s.Items) != 0 {
		t.Fatalf("empty seq = %#v", st.Query)
	}
}

func TestDDLIndexRequiresDoc(t *testing.T) {
	if _, err := Parse(`CREATE INDEX "i" ON /library/book BY title`); err == nil {
		t.Fatal("index on non-doc path must fail")
	}
}

// TestNumberLiteralsParseAsBefore: strconv.ParseFloat gives every number the
// scanner admits the value fmt's %g verb gave it.
func TestNumberLiteralsParseAsBefore(t *testing.T) {
	for _, src := range []string{
		"0", "007", ".5", "5.", "1e3", "1E+3", "1e-3", "1e", "1..2",
		"123456789012345678901234567890123456789", "1" + strings.Repeat("0", 400),
	} {
		l := newLexer(src)
		tok, err := l.scan()
		var want float64
		_, wantErr := fmt.Sscanf(tok.text, "%g", &want)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%q: scan error %v, %%g error %v", src, err, wantErr)
		}
		if err != nil {
			continue
		}
		if tok.kind != tokNumber || tok.num != want || tok.end != len(tok.text) {
			t.Errorf("%q: %v %q = %v up to %d, %%g gives %v", src, tok.kind, tok.text, tok.num, tok.end, want)
		}
	}
}
