package query_test

import (
	"testing"

	"sedna/internal/query"
	"sedna/internal/server"
)

// TestCorpusOnOneSession: every statement of the identity corpus, run twice in
// a row on one server session, answers as recorded both times, and the second
// time from the template the first made (or found: an earlier statement of the
// same shape may have made it).
func TestCorpusOnOneSession(t *testing.T) {
	want, err := query.CorpusAnswers()
	if err != nil {
		t.Fatal(err)
	}
	g := server.NewGovernor(query.CorpusDB(t))
	s := g.NewSession()
	defer s.Close()
	hits := g.Metrics().Counter("query.template_hits")
	firstHits := 0
	for _, src := range query.CorpusQueries {
		for run := 1; run <= 2; run++ {
			before := hits.Value()
			r, err := s.Execute(src)
			if err != nil {
				t.Fatalf("%s, run %d: %v", src, run, err)
			}
			if r.Data != want[src] {
				t.Errorf("%s, run %d\n got: %.200s\nwant: %.200s", src, run, r.Data, want[src])
			}
			hit := hits.Value() > before
			if run == 1 && hit {
				firstHits++
			}
			if run == 2 && !hit {
				t.Errorf("%s: the second run parsed it again", src)
			}
		}
	}
	t.Logf("%d of %d first runs found the template of an earlier statement", firstHits, len(query.CorpusQueries))
}
