package server_test

import (
	"io"
	"strings"
	"testing"

	"sedna/client"
	"sedna/internal/core"
	"sedna/internal/xmlscan"
)

// TestSystemDocuments: the '$' names are read-only documents built from
// engine state. Creating, loading, updating or indexing one is refused, an
// unknown one is an error, and each answers predicates and count() and
// serializes as well-formed XML.
func TestSystemDocuments(t *testing.T) {
	srv := startServerWith(t, core.Options{NoSync: true, SlowQueryThreshold: 1})
	c, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, q := range []string{
		`CREATE DOCUMENT "$x"`,
		`UPDATE insert <a/> into doc("$sessions")`,
		`UPDATE insert <a/> into doc("$sessions")/sessions`,
		`CREATE INDEX "m" ON doc("$metrics")/metrics/counter BY @name AS string`,
		`doc("$nope")`,
	} {
		if _, err := c.Execute(q); err == nil {
			t.Errorf("%s: succeeded, want an error", q)
		}
	}
	tx, err := srv.Governor().DB().Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LoadXML("$x", strings.NewReader("<a/>")); err == nil || !strings.Contains(err.Error(), "system document") {
		t.Errorf("LoadXML into $x: %v, want the system document refused", err)
	}
	tx.Rollback()
	if names := srv.Governor().DB().Catalog().DocNames(); len(names) != 0 {
		t.Errorf("refused statements left documents %v", names)
	}

	for _, tc := range []struct{ doc, count, want string }{
		{"$metrics", `count(doc("$metrics")/metrics/counter[@name = "query.errors"][@value >= 4])`, "1"},
		{"$slowlog", `count(doc("$slowlog")/slowlog/trace[span/@name = "statement"]) > 0`, "true"},
		// The session asking is the one with a statement in flight.
		{"$sessions", `count(doc("$sessions")/sessions/session[statement][stats/@statements > 0])`, "1"},
		{"$replication", `count(doc("$replication")/replication[@role = "primary"])`, "1"},
	} {
		if got := result(t, c, tc.count); got != tc.want {
			t.Errorf("%s = %s, want %s", tc.count, got, tc.want)
		}
		// The serialization re-parses as one well-formed element.
		sc := xmlscan.NewScanner(strings.NewReader(result(t, c, `doc("`+tc.doc+`")`)))
		elements := 0
		for {
			kind, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("doc(%q) does not re-parse: %v", tc.doc, err)
			}
			if kind == xmlscan.StartElement {
				elements++
			}
		}
		if elements == 0 || sc.Depth() != 0 {
			t.Fatalf("doc(%q) serialized %d elements, depth %d", tc.doc, elements, sc.Depth())
		}
	}
}
