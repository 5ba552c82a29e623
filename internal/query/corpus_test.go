package query

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"

	"sedna/internal/core"
)

// corpusAnswers are the recorded answers to parallelPropertyQueries over
// parallelDB, by query (testdata/corpus.json). They were taken from an
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
	if len(want) != len(parallelPropertyQueries) {
		t.Fatalf("%d recorded answers for %d corpus queries", len(want), len(parallelPropertyQueries))
	}
	for _, src := range parallelPropertyQueries {
		w, ok := want[src]
		if !ok {
			t.Fatalf("no recorded answer for %s", src)
		}
		var ctx ExecCtx
		set(&ctx)
		if got := qset(t, db, src, set); got != w {
			t.Errorf("%s (noopt=%v norewrite=%v workers=%d)\n got: %.200s\nwant: %.200s", src, ctx.NoOpt, ctx.NoRewrite, ctx.Workers, got, w)
		}
	}
}

// TestStringValueInterleaved pins the string value of stored elements whose
// text is nested and interleaved with child elements, comments and
// processing instructions, against the value the generator defines (one
// range scan per context element).
func TestStringValueInterleaved(t *testing.T) {
	db := parallelDB(t)
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
