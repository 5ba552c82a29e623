package query

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestParseExplain(t *testing.T) {
	st, err := Parse(`EXPLAIN doc("lib")//author`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Explain == nil || st.Explain.Profile {
		t.Fatalf("st.Explain = %+v", st.Explain)
	}
	if !st.ReadOnly() {
		t.Fatal("EXPLAIN of a query is not read-only")
	}
	if st.Explain.Stmt.Query == nil {
		t.Fatal("inner statement lost")
	}
	if got := st.Explain.Stmt.Source; got != `doc("lib")//author` {
		t.Fatalf("inner Source = %q", got)
	}

	st, err = Parse(`PROFILE UPDATE delete doc("lib")//paper`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Explain == nil || !st.Explain.Profile {
		t.Fatalf("st.Explain = %+v", st.Explain)
	}
	// PROFILE executes the statement, so it inherits the inner read-only-ness.
	if st.ReadOnly() {
		t.Fatal("PROFILE of an update claims read-only")
	}
	// EXPLAIN of an update never executes it: read-only.
	st, err = Parse(`EXPLAIN UPDATE delete doc("lib")//paper`)
	if err != nil {
		t.Fatal(err)
	}
	if !st.ReadOnly() {
		t.Fatal("EXPLAIN of an update is not read-only")
	}
}

func TestParseExplainErrors(t *testing.T) {
	if _, err := Parse(`EXPLAIN`); err == nil {
		t.Fatal("bare EXPLAIN parsed")
	}
	if _, err := Parse(`PROFILE`); err == nil {
		t.Fatal("bare PROFILE parsed")
	}
	if _, err := Parse(`EXPLAIN PROFILE doc("lib")//author`); err == nil {
		t.Fatal("nested EXPLAIN PROFILE parsed")
	}
}

func TestExplainQueryShape(t *testing.T) {
	db := testDB(t)
	out := q(t, db, `EXPLAIN doc("lib")//book[author = "Date"]/title`)
	for _, want := range []string{
		"statement: query (read-only)",
		"rewrites:",
		"combine-descendant:",
		"plan:",
		"child::title",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainUpdateIsReadOnly(t *testing.T) {
	db := testDB(t)
	// q() runs in a read-only snapshot transaction: EXPLAIN of an update
	// must succeed there and must not change anything.
	out := q(t, db, `EXPLAIN UPDATE delete doc("lib")//paper`)
	if !strings.Contains(out, "(update)") {
		t.Fatalf("EXPLAIN output missing update kind:\n%s", out)
	}
	if got := q(t, db, `count(doc("lib")//paper)`); got != "1" {
		t.Fatalf("EXPLAIN executed the update: count = %s", got)
	}
}

func TestProfileQueryShape(t *testing.T) {
	db := testDB(t)
	out := q(t, db, `PROFILE doc("lib")//book[author = "Date"]/title`)
	for _, want := range []string{
		"trace",
		`query: doc("lib")//book[author = "Date"]/title`,
		"statement dur=",
		"analyze dur=",
		"rewrite dur=",
		"execute dur=",
		"step ",
		"nodes=",
		"result: 1 item(s), 0 updated",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("PROFILE output missing %q:\n%s", want, out)
		}
	}
	// At least one storage-scanning operator touched pages.
	pages := regexp.MustCompile(`pages=(\d+)`).FindAllStringSubmatch(out, -1)
	if len(pages) == 0 {
		t.Fatalf("PROFILE output has no pages attribute:\n%s", out)
	}
	total := 0
	for _, m := range pages {
		n, _ := strconv.Atoi(m[1])
		total += n
	}
	if total == 0 {
		t.Errorf("no operator reports touched pages:\n%s", out)
	}
}

func TestProfileUpdateExecutes(t *testing.T) {
	db := testDB(t)
	res := upd(t, db, `PROFILE UPDATE insert <note/> into doc("lib")/library`)
	out, err := res.String()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 updated") {
		t.Fatalf("PROFILE update output:\n%s", out)
	}
	if got := q(t, db, `count(doc("lib")/library/note)`); got != "1" {
		t.Fatalf("PROFILE did not execute the update: count = %s", got)
	}
}

// TestProfileParallelSpans pins that PROFILE renders no per-worker spans and
// no parallelism attribute: a multi-schema-node descendant step runs on the
// statement's goroutine.
func TestProfileParallelSpans(t *testing.T) {
	db := corpusDB(t)
	out := q(t, db, `PROFILE count(doc("cat")//item)`)
	if !strings.Contains(out, "statement dur=") {
		t.Fatalf("PROFILE rendered no span tree:\n%s", out)
	}
	if strings.Contains(out, "worker 0") || strings.Contains(out, "parallelism=") {
		t.Errorf("PROFILE shows parallel spans:\n%s", out)
	}
}

// TestProfileWorksWithoutTracerConfig: PROFILE forces a trace even when the
// database has tracing and the slow log off.
func TestProfileForcesTrace(t *testing.T) {
	db := testDB(t)
	if db.Tracer().Active() {
		t.Fatal("test premise broken: tracer active by default")
	}
	out := q(t, db, `PROFILE count(doc("lib")//author)`)
	if !strings.Contains(out, "statement dur=") {
		t.Fatalf("PROFILE without tracer config produced no trace:\n%s", out)
	}
}
