package query

import (
	"testing"

	"sedna/internal/core"
)

// The identity corpus, for this package's external tests
// (session_test.go), which run it through a server session.
var (
	CorpusQueries = corpusQueries
	CorpusAnswers = corpusAnswers
)

func CorpusDB(t testing.TB) *core.Database { return corpusDB(t) }
