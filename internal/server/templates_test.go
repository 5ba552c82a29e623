package server_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sedna/internal/core"
	"sedna/internal/query"
	"sedna/internal/sas"
	"sedna/internal/server"
	"sedna/internal/xmlgen"
)

// auctionPeople and auctionItems size the auction the session-reuse gates run
// on.
const auctionPeople, auctionItems = 500, 200

// auctionGovernor opens a database holding a 500-person auction, indexed on
// the people's and the auctions' ids and ANALYZEd, as the point_read
// workload's is, checkpoints it and returns a governor over it.
func auctionGovernor(t testing.TB) (*server.Governor, *core.Database) {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LoadXML("auction", strings.NewReader(xmlgen.AuctionString(auctionPeople, auctionItems, 3, 1))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s := server.NewGovernor(db).NewSession()
	defer s.Close()
	for _, src := range []string{
		`CREATE INDEX "person_id" ON doc("auction")/site/people/person BY @id AS string`,
		`CREATE INDEX "auction_id" ON doc("auction")/site/open_auctions/open_auction BY @id AS string`,
		`ANALYZE doc("auction")`,
	} {
		mustExec(t, s, src)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return server.NewGovernor(db), db
}

func mustExec(t testing.TB, s *server.Session, src string) string {
	t.Helper()
	r, err := s.Execute(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return r.Data
}

// pointReadShapes are the point_read workload's eight statement shapes, with
// key k.
var pointReadShapes = []func(k int) string{
	func(k int) string { return fmt.Sprintf(`doc("auction")/site/people/person[@id = "p%d"]/name`, k) },
	func(k int) string {
		return fmt.Sprintf(`doc("auction")/site/open_auctions/open_auction[@id = "a%d"]/current`, k)
	},
	func(k int) string { return fmt.Sprintf(`index-scan("person_id", "p%d")/name`, k) },
	func(k int) string { return fmt.Sprintf(`index-scan("auction_id", "a%d")/current`, k) },
	func(k int) string { return fmt.Sprintf(`doc("auction")/site/people/person[%d]/emailaddress`, k+1) },
	func(k int) string {
		return fmt.Sprintf(`doc("auction")/site/open_auctions/open_auction[%d]/initial`, k+1)
	},
	func(k int) string {
		return fmt.Sprintf(`for $p in doc("auction")/site/people/person[@id = "p%d"] return <p n="{$p/name}">{string($p/emailaddress)}</p>`, k)
	},
	func(k int) string {
		return fmt.Sprintf(`for $b in doc("auction")/site/open_auctions/open_auction[@id = "a%d"]/bidder return <b p="{$b/personref/@person}">{string($b/increase)}</b>`, k)
	},
}

func counter(g *server.Governor, name string) uint64 { return g.Metrics().Counter(name).Value() }

// TestPointReadTemplates: 1000 point_read statements on one session parse
// once per shape — 8 misses, 992 hits — and every answer equals the one a
// fresh session, which parses the text, gives.
func TestPointReadTemplates(t *testing.T) {
	g, _ := auctionGovernor(t)
	s := g.NewSession()
	defer s.Close()
	misses, hits := counter(g, "query.template_misses"), counter(g, "query.template_hits")
	for i := 0; i < 1000; i++ {
		src := pointReadShapes[i%len(pointReadShapes)]((i * 7919) % auctionItems)
		got := mustExec(t, s, src)
		if i%25 == 0 {
			fresh := g.NewSession()
			if want := mustExec(t, fresh, src); got != want {
				t.Fatalf("%s: session with templates %q, fresh session %q", src, got, want)
			}
			fresh.Close()
		}
	}
	// The fresh sessions missed once each.
	freshMisses := uint64(1000 / 25)
	if n := counter(g, "query.template_misses") - misses - freshMisses; n != uint64(len(pointReadShapes)) {
		t.Errorf("%d template misses for 1000 statements of %d shapes, want %d", n, len(pointReadShapes), len(pointReadShapes))
	}
	if n := counter(g, "query.template_hits") - hits; n != 1000-uint64(len(pointReadShapes)) {
		t.Errorf("%d template hits, want %d", n, 1000-len(pointReadShapes))
	}
}

// TestTemplatesLRU: one-off texts, first alone and then interleaved with four
// recurring shapes, do not push the recurring shapes out: after their first
// round every recurring statement hits.
func TestTemplatesLRU(t *testing.T) {
	g, _ := auctionGovernor(t)
	s := g.NewSession()
	defer s.Close()
	// Constructor content is not a parameter: each of these is a text of its
	// own.
	oneOff := func(i int) string {
		return fmt.Sprintf(`<once n="%d">{count(doc("auction")/site/people/person[@id = "p1"])}</once>`, i)
	}
	for i := 0; i < 100; i++ {
		mustExec(t, s, oneOff(i))
	}
	recurring := pointReadShapes[:4]
	for i := 0; i < 1000; i++ {
		mustExec(t, s, oneOff(100+i))
		src := recurring[i%len(recurring)](i % auctionItems)
		hits := counter(g, "query.template_hits")
		mustExec(t, s, src)
		if counter(g, "query.template_hits") == hits && i >= len(recurring) {
			t.Fatalf("statement %d, %s, missed after its first round", i, src)
		}
	}
}

// TestTemplatePlansFollowIndexes: a template keeps no plan. Prepared before
// CREATE INDEX it probes the index after it, and prepared before DROP INDEX
// it scans after it, on the same session.
func TestTemplatePlansFollowIndexes(t *testing.T) {
	g, _ := auctionGovernor(t)
	s := g.NewSession()
	defer s.Close()
	lookup := pointReadShapes[0]
	// run executes the lookup, which must hit its template, and reports
	// whether it probed the index.
	run := func(k int) bool {
		t.Helper()
		hits, probes := counter(g, "query.template_hits"), counter(g, "opt.index_probes")
		mustExec(t, s, lookup(k))
		if counter(g, "query.template_hits") == hits {
			t.Fatalf("%s did not hit its template", lookup(k))
		}
		return counter(g, "opt.index_probes") > probes
	}
	explainsProbe := func() bool {
		return strings.Contains(mustExec(t, s, "EXPLAIN "+lookup(1)), "plan=index-probe")
	}
	mustExec(t, s, `DROP INDEX "person_id"`)
	mustExec(t, s, lookup(1)) // the template, prepared with no index
	if run(2) || explainsProbe() {
		t.Fatal("a probe with no index")
	}
	mustExec(t, s, `CREATE INDEX "person_id" ON doc("auction")/site/people/person BY @id AS string`)
	if !run(3) || !explainsProbe() {
		t.Fatal("no probe after CREATE INDEX")
	}
	mustExec(t, s, `DROP INDEX "person_id"`)
	if run(4) || explainsProbe() {
		t.Fatal("a probe after DROP INDEX")
	}
}

// TestSessionContextReset: after a killed and after a failing statement, the
// session's next statement starts with no page view held and a context no
// KILL has marked. Held views are found as in query's TestHeldViewsReleased:
// every page of the checkpointed database is handed back to the pool, and a
// frame that stays is pinned.
func TestSessionContextReset(t *testing.T) {
	g, db := auctionGovernor(t)
	s := g.NewSession()
	defer s.Close()
	st, err := os.Stat(filepath.Join(db.Dir(), "data.sdb"))
	if err != nil {
		t.Fatal(err)
	}
	pinned := func() int {
		for p := uint64(0); p < uint64(st.Size()/sas.PageSize); p++ {
			db.Buffer().Discard(sas.PageIDFromGlobal(p))
		}
		return db.Buffer().FrameCount()
	}
	want := mustExec(t, s, pointReadShapes[0](3))
	slow := `count(for $a in doc("auction")//person, $b in doc("auction")//person return $a/name = $b/name)`
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"killed", func() error {
			done := make(chan error)
			go func() {
				_, err := s.Execute(slow)
				done <- err
			}()
			for {
				select {
				case err := <-done:
					return err
				default:
				}
				for _, in := range g.SessionInfos() {
					if in.Statement != nil && in.Statement.Query == slow {
						g.Kill(in.ID, in.Statement.Ordinal)
					}
				}
				time.Sleep(time.Millisecond)
			}
		}},
		{"failing", func() error {
			_, err := s.Execute(`doc("auction")//person/name + 1`)
			return err
		}},
	} {
		err := c.run()
		if c.name == "killed" && !errors.Is(err, query.ErrKilled) || err == nil {
			t.Fatalf("%s statement: %v", c.name, err)
		}
		if n := pinned(); n != 0 {
			t.Fatalf("after the %s statement %d frames stay pinned", c.name, n)
		}
		if got := mustExec(t, s, pointReadShapes[0](3)); got != want {
			t.Fatalf("after the %s statement: %q, want %q", c.name, got, want)
		}
	}
}

// TestLateKillSparesNextStatement: a KILL of a statement, racing its end,
// may cancel it but never the session's next statement.
func TestLateKillSparesNextStatement(t *testing.T) {
	g, _ := auctionGovernor(t)
	s := g.NewSession()
	defer s.Close()
	id := g.SessionInfos()[0].ID
	ord := uint64(0)
	for i := 0; i < 300; i++ {
		ord++
		target := ord
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < i%64*100; j++ {
				runtime.Gosched()
			}
			g.Kill(id, target)
		}()
		if _, err := s.Execute(pointReadShapes[i%8](i % auctionItems)); err != nil && !errors.Is(err, query.ErrKilled) {
			t.Fatal(err)
		}
		ord++
		if _, err := s.Execute(pointReadShapes[(i+1)%8](i % auctionItems)); err != nil {
			t.Fatalf("the statement after a killed one: %v", err)
		}
		wg.Wait()
	}
}

// Allocation bounds per statement through Session.Execute on a session that
// holds the statement's template: the measured 47, 27 and 69 plus a quarter.
// A session that parsed every statement, with a context per statement, made
// 125, 98 and 185.
const (
	keyedLookupAllocs = 58
	navigateAllocs    = 33
	flworCtorAllocs   = 86
)

// TestSessionStatementAllocations: allocations per statement of a keyed
// lookup, a positional navigation and a FLWOR with a constructor, each on a
// session that has run it before.
func TestSessionStatementAllocations(t *testing.T) {
	g, _ := auctionGovernor(t)
	s := g.NewSession()
	defer s.Close()
	for _, c := range []struct {
		name  string
		shape func(int) string
		bound float64
	}{
		{"keyed lookup", pointReadShapes[0], keyedLookupAllocs},
		{"positional navigate", pointReadShapes[4], navigateAllocs},
		{"FLWOR with a constructor", pointReadShapes[6], flworCtorAllocs},
	} {
		srcs := []string{c.shape(7), c.shape(8)}
		mustExec(t, s, srcs[0])
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			i++
			if _, err := s.Execute(srcs[i%2]); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocations per statement (bound %.0f)", c.name, allocs, c.bound)
		if allocs > c.bound {
			t.Errorf("%s: %.1f allocations per statement, bound %.0f", c.name, allocs, c.bound)
		}
	}
}

// TestSessionParseErrorCounted: a statement that does not parse counts once in
// query.errors, as a failed execution does, and is never kept.
func TestSessionParseErrorCounted(t *testing.T) {
	g, _ := auctionGovernor(t)
	s := g.NewSession()
	defer s.Close()
	bad := `doc("auction")/site/people/person[@id = "p1"`
	for i := 1; i <= 2; i++ {
		errs, misses := counter(g, "query.errors"), counter(g, "query.template_misses")
		if _, err := s.Execute(bad); err == nil {
			t.Fatal("a statement that does not parse ran")
		}
		if n := counter(g, "query.errors") - errs; n != 1 {
			t.Errorf("query.errors +%d for a parse error, want +1", n)
		}
		if counter(g, "query.template_misses") == misses {
			t.Errorf("run %d of a statement that does not parse was not a miss", i)
		}
	}
}
