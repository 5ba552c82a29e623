package query

import (
	"strings"
	"testing"
)

func rewritten(t *testing.T, src string) *Statement {
	t.Helper()
	st := mustParse(t, src)
	if err := Analyze(st); err != nil {
		t.Fatal(err)
	}
	Rewrite(st)
	return st
}

func findSteps(e Expr) []*Step {
	var out []*Step
	walkExpr(e, func(x Expr) {
		if s, ok := x.(*Step); ok {
			out = append(out, s)
		}
	})
	return out
}

func TestRewriteCombinesDescendantOrSelf(t *testing.T) {
	st := rewritten(t, `doc("lib")//para`)
	steps := findSteps(st.Query)
	// The dos::node() step must be gone, folded into descendant::para.
	for _, s := range steps {
		if s.Axis == AxisDescendantOrSelf {
			t.Fatal("descendant-or-self step not combined")
		}
	}
	top := st.Query.(*Step)
	if top.Axis != AxisDescendant || top.Test.Name != "para" {
		t.Fatalf("combined step = %+v", top)
	}
}

func TestRewriteKeepsDosForPositionalPredicate(t *testing.T) {
	// The paper's counter-example: //para[1] ≠ /descendant::para[1].
	for _, src := range []string{
		`doc("lib")//para[1]`,
		`doc("lib")//para[position() = 2]`,
		`doc("lib")//para[last()]`,
		`doc("lib")//para[count(x)]`,
	} {
		st := rewritten(t, src)
		found := false
		for _, s := range findSteps(st.Query) {
			if s.Axis == AxisDescendantOrSelf {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: dos step combined despite positional predicate", src)
		}
	}
}

func TestRewriteCombinesWithSafePredicate(t *testing.T) {
	st := rewritten(t, `doc("lib")//para[@type = "x"]`)
	for _, s := range findSteps(st.Query) {
		if s.Axis == AxisDescendantOrSelf {
			t.Fatal("dos not combined despite position-free predicate")
		}
	}
}

func TestRewriteRemovesDDOOnStructuralChains(t *testing.T) {
	st := rewritten(t, `doc("lib")/library/book/title`)
	top := st.Query.(*Step)
	if top.NeedDDO {
		t.Fatal("DDO not removed on a child chain from doc()")
	}
	if !top.Structural {
		t.Fatal("structural path not marked")
	}
}

func TestRewriteKeepsDDOAfterParentStep(t *testing.T) {
	st := rewritten(t, `doc("lib")//author/../title`)
	steps := findSteps(st.Query)
	// The step after ".." (child::title over parent results) must keep its
	// DDO: parents of many authors contain duplicates.
	var parentStep *Step
	for _, s := range steps {
		if s.Axis == AxisParent {
			parentStep = s
		}
	}
	if parentStep == nil {
		t.Fatal("parent step missing")
	}
	if !parentStep.NeedDDO {
		t.Fatal("parent step from multi-node input must keep DDO")
	}
}

func TestRewriteVariablePathsKeepDDO(t *testing.T) {
	st := rewritten(t, `for $x in doc("lib")//a return $x/b/c`)
	f := st.Query.(*FLWOR)
	ret := f.Return.(*Step)
	// $x is a single item binding: steps from it are provably ordered.
	if ret.NeedDDO {
		t.Fatal("steps from a for-variable (singleton) should not need DDO")
	}
}

func TestRewriteMarksLazyInvariantForClause(t *testing.T) {
	st := rewritten(t, `
		for $x in doc("lib")//a
		for $y in doc("lib")//b
		return ($x, $y)`)
	f := st.Query.(*FLWOR)
	if f.Clauses[0].Lazy {
		t.Fatal("outer clause must not be lazy (not nested)")
	}
	if !f.Clauses[1].Lazy {
		t.Fatal("invariant inner clause must be lazy")
	}
}

func TestRewriteDependentClauseNotLazy(t *testing.T) {
	st := rewritten(t, `
		for $x in doc("lib")//a
		for $y in $x/b
		return $y`)
	f := st.Query.(*FLWOR)
	if f.Clauses[1].Lazy {
		t.Fatal("clause depending on $x must not be lazy")
	}
}

func TestRewriteNestedFLWORLazy(t *testing.T) {
	st := rewritten(t, `
		for $x in doc("lib")//a
		return for $y in doc("lib")//b return $y`)
	outer := st.Query.(*FLWOR)
	inner := outer.Return.(*FLWOR)
	if !inner.Clauses[0].Lazy {
		t.Fatal("invariant inner FLWOR clause must be lazy")
	}
}

func TestRewriteStructuralMarking(t *testing.T) {
	cases := map[string]bool{
		`doc("lib")/library/book`:     true,
		`doc("lib")//author`:          true, // after //-combining
		`doc("lib")/library/book/@id`: true,
		`doc("lib")/library/book[1]`:  false, // predicate
		`doc("lib")//para[1]`:         false,
	}
	for src, want := range cases {
		st := rewritten(t, src)
		top, ok := st.Query.(*Step)
		if !ok {
			t.Fatalf("%s: not a step", src)
		}
		if top.Structural != want {
			t.Errorf("%s: Structural = %v, want %v", src, top.Structural, want)
		}
	}
}

func TestRewriteVirtualConstructorMarking(t *testing.T) {
	// Result-position constructor: virtual.
	st := rewritten(t, `<r>{doc("lib")//a}</r>`)
	if !st.Query.(*ElementCtor).Virtual {
		t.Fatal("result constructor should be virtual")
	}

	// Constructor that is navigated: not virtual.
	st = rewritten(t, `count((<r>{doc("lib")//a}</r>)/a)`)
	virtual := false
	walkExpr(st.Query, func(x Expr) {
		if c, ok := x.(*ElementCtor); ok && c.Virtual {
			virtual = true
		}
	})
	if virtual {
		t.Fatal("navigated constructor must not be virtual")
	}

	// Nested constructors in result position: all virtual.
	st = rewritten(t, `<a><b>{doc("lib")//x}</b></a>`)
	count := 0
	walkExpr(st.Query, func(x Expr) {
		if c, ok := x.(*ElementCtor); ok && c.Virtual {
			count++
		}
	})
	if count != 2 {
		t.Fatalf("virtual constructors = %d, want 2", count)
	}

	// FLWOR return position: virtual.
	st = rewritten(t, `for $x in doc("lib")//a return <r>{$x}</r>`)
	f := st.Query.(*FLWOR)
	if !f.Return.(*ElementCtor).Virtual {
		t.Fatal("FLWOR-return constructor should be virtual")
	}

	// Variable-bound constructor: not virtual (may be navigated later).
	st = rewritten(t, `for $r in (<x>{doc("lib")//a}</x>) return $r`)
	walkExpr(st.Query, func(x Expr) {
		if c, ok := x.(*ElementCtor); ok && c.Virtual {
			t.Fatal("variable-bound constructor must not be virtual")
		}
	})
}

func TestRewriteOffSwitch(t *testing.T) {
	// With NoRewrite the executor must still produce correct results; this
	// is the ablation baseline used by the E5–E8 experiments.
	db := testDB(t)
	tx, _ := db.BeginReadOnly()
	defer tx.Rollback()
	ctx := NewExecCtx(tx)
	ctx.NoRewrite = true
	res, err := Execute(ctx, `count(doc("lib")//author)`)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := res.String()
	if s != "5" {
		t.Fatalf("unrewritten query result: %s", s)
	}
	if ctx.Profile.DDOOps == 0 {
		t.Fatal("unrewritten plan should execute explicit DDO operations")
	}
}

// whereShapes are FLWORs around the where-to-predicate rule: the first four
// take it, the rest must not.
var whereShapes = []string{
	`for $b in doc("lib")/library/book where $b/issue/year > 2000 return string($b/title)`,
	`for $b in doc("lib")//book where "Date" = $b/author return string($b/title)`,
	`for $b in doc("lib")/library/book[year > 1990] where $b/author != "Date" return string($b/title)`,
	`for $w in (1991, 1995) return for $b in doc("lib")//book where $b/year > 1990 return string($b/title)`,
	`for $b at $i in doc("lib")/library/book where $b/year > 1990 return $i`,
	`for $b in doc("lib")/library/book where $b/year > 1990 order by $b/title return string($b/title)`,
	`for $b in doc("lib")/library/book, $a in $b/author where $b/year > 1990 return string($a)`,
	`let $b := doc("lib")/library/book where $b/year > 1990 return count($b)`,
	`for $x in doc("lib")//book return for $b in $x where $b/year > 1990 return string($b/title)`,
	`for $b in index-scan("byyear", 1995) where $b/year > 1990 return string($b/title)`,
	`for $w in (1991, 1995) return for $b in doc("lib")//book where $b/year = $w return string($b/title)`,
	`for $b in doc("lib")//book where $b/year > 1990 and $b/author = "Date" return string($b/title)`,
	`for $a in doc("lib")//book return for $b in $a/author where $a/year > 1990 return string($b)`,
}

// whereFires is how many of whereShapes take the rule.
const whereFires = 4

// TestRewriteWhereToPredicate: a single-for FLWOR over a step whose where
// clause alone is an in-place comparison starting at the for variable — both
// of scan_analytic's FLWORs among them — has the comparison appended to the
// step as a predicate, starting at the context item, and the where clause
// cleared; EXPLAIN notes the rule and shows the comparison in place under the
// step. With an at variable, an order by, a second clause, a let, a sequence
// that is not a step (a variable, an index scan), a comparison with a
// variable, a conjunction, or a chain from another variable, the FLWOR is
// left as it is.
func TestRewriteWhereToPredicate(t *testing.T) {
	db := testDB(t)
	auction := `for $a in doc("site")/site/open_auctions/open_auction where $a/current > 4800 return <hot id="{$a/@id}">{count($a/bidder)}</hot>`
	for i, src := range append(whereShapes, auction) {
		st := rewritten(t, src)
		fired, want := false, i < whereFires || src == auction
		for _, n := range st.Rewrites {
			fired = fired || strings.HasPrefix(n, "where-to-predicate: ")
		}
		if fired != want {
			t.Errorf("%s: rule fired %v, want %v (rewrites %q)", src, fired, want, st.Rewrites)
			continue
		}
		if !fired {
			continue
		}
		var fl *FLWOR
		walkExpr(st.Query, func(x Expr) {
			if f, ok := x.(*FLWOR); ok && f.Clauses[0].Var != "w" {
				fl = f
			}
		})
		step := fl.Clauses[0].Seq.(*Step)
		cmp, ok := step.Preds[len(step.Preds)-1].(*Binary)
		if fl.Where != nil || !ok {
			t.Errorf("%s: where clause %v, last predicate %T", src, fl.Where, step.Preds[len(step.Preds)-1])
			continue
		}
		if c := inPlaceShape(cmp); c == nil || c.start != "" {
			t.Errorf("%s: the moved comparison does not start at the context item", src)
		}
		out := q(t, db, "EXPLAIN "+src)
		at := strings.Index(out, " [preds=")
		in := strings.Index(out, " [in-place]")
		if ret := strings.LastIndex(out, "return:"); !strings.Contains(out, "where-to-predicate: $") || at < 0 || in < at || ret < in {
			t.Errorf("EXPLAIN %s: no note, or no in-place comparison under the step\n%s", src, out)
		}
	}
}

// TestRewriteForIdentity: the FLWOR a moved where clause leaves behind,
// `for $v in P return $v`, is the step P; a lazy P keeps its loop.
func TestRewriteForIdentity(t *testing.T) {
	st := rewritten(t, `for $b in doc("lib")//book where $b/year > 1990 return $b`)
	if s, ok := st.Query.(*Step); !ok || len(s.Preds) != 1 || !strings.Contains(strings.Join(st.Rewrites, ";"), "for-identity: $b") {
		t.Fatalf("rewritten to %T, rewrites %q", st.Query, st.Rewrites)
	}
	st = rewritten(t, `for $x in doc("lib")//a return for $y in doc("lib")//b return $y`)
	if inner, ok := st.Query.(*FLWOR).Return.(*FLWOR); !ok || !inner.Clauses[0].Lazy {
		t.Fatalf("the lazy inner FLWOR was rewritten: %q", st.Rewrites)
	}
}

func TestRewrittenAndNaiveAgree(t *testing.T) {
	db := testDB(t)
	upd(t, db, `CREATE INDEX "byyear" ON doc("lib")/library/book BY year AS number`)
	queries := append([]string{
		`count(doc("lib")//author)`,
		`data(doc("lib")//year)`,
		`doc("lib")//book/title/text()`,
		`count(doc("lib")/library/book/author/..)`,
		`for $b in doc("lib")/library/book for $a in doc("lib")//author return 1`,
		`string-join(for $t in doc("lib")//title return string($t), ";")`,
		`for $b in doc("lib")//book where $b/year > 1990 return $b`,
	}, whereShapes...)
	for _, src := range queries {
		tx, _ := db.BeginReadOnly()
		opt := NewExecCtx(tx)
		r1, err := Execute(opt, src)
		if err != nil {
			t.Fatal(err)
		}
		s1, _ := r1.String()
		naive := NewExecCtx(tx)
		naive.NoRewrite = true
		r2, err := Execute(naive, src)
		if err != nil {
			t.Fatal(err)
		}
		s2, _ := r2.String()
		tx.Rollback()
		if s1 != s2 {
			t.Errorf("%s:\nrewritten: %s\nnaive:     %s", src, s1, s2)
		}
		if !strings.Contains(src, "..") && naive.Profile.DDOOps < opt.Profile.DDOOps {
			t.Errorf("%s: naive executed fewer DDO ops (%d) than optimized (%d)",
				src, naive.Profile.DDOOps, opt.Profile.DDOOps)
		}
	}
}
