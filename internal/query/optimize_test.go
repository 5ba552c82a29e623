package query

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sedna/internal/core"
)

// qctl executes a query with explicit optimizer and worker settings.
func qctl(t *testing.T, db *core.Database, src string, noopt bool, workers int) string {
	t.Helper()
	tx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	ctx := NewExecCtx(tx)
	ctx.NoOpt = noopt
	ctx.Workers = workers
	res, err := Execute(ctx, src)
	if err != nil {
		t.Fatalf("query %q (noopt=%v workers=%d): %v", src, noopt, workers, err)
	}
	s, err := res.String()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// invXML builds the probe-adversarial inventory document: heavy value
// duplication (v = i mod 10), a second <v> on every third item (multi-value
// index entries), and long <name> strings that all collide within the
// fixed-size B+tree key prefix so only the recheck can tell them apart.
func invXML(items int) string {
	prefix := strings.Repeat("x", 30)
	var sb strings.Builder
	sb.WriteString("<inv>")
	for i := 0; i < items; i++ {
		fmt.Fprintf(&sb, "<item><v>%d</v>", i%10)
		if i%3 == 0 {
			fmt.Fprintf(&sb, "<v>%d</v>", (i+5)%10)
		}
		fmt.Fprintf(&sb, "<name>%s%c</name></item>", prefix, 'A'+rune(i%3))
	}
	sb.WriteString("</inv>")
	return sb.String()
}

// invDB opens a database with the inventory document and value indexes over
// both the numeric and the colliding string column.
func invDB(t *testing.T, items int) *core.Database {
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
	if _, err := tx.LoadXML("inv", strings.NewReader(invXML(items))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	upd(t, db, `CREATE INDEX "byv" ON doc("inv")//item BY v AS number`)
	upd(t, db, `CREATE INDEX "byname" ON doc("inv")//item BY name AS string`)
	return db
}

func TestAnalyzeStatement(t *testing.T) {
	db := testDB(t)
	res := upd(t, db, `ANALYZE doc("lib")`)
	s, err := res.String()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "analyzed") {
		t.Fatalf("unexpected ANALYZE result: %s", s)
	}
	stats := db.Catalog().DocStats("lib")
	if stats == nil {
		t.Fatal("no DocStats recorded after ANALYZE")
	}
	if stats.AnalyzedNodes == 0 {
		t.Fatal("AnalyzedNodes is zero")
	}
	if len(stats.Cols) == 0 {
		t.Fatal("no value columns collected")
	}
	// The catalog round-trips statistics through a checkpoint.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzeSampled checks the sampled ANALYZE path: a document above the
// node-count threshold builds its histograms from per-column reservoirs, the
// snapshot and the EXPLAIN output say so, column Rows reflect the true (not
// sampled) counts with a sane distinct extrapolation — and query results
// never depend on how the statistics were gathered.
func TestAnalyzeSampled(t *testing.T) {
	// ~40k nodes: well above the sampling threshold. No indexes — the
	// costed plan (and its annotation) comes from statistics alone.
	sampledDB := func(items int) *core.Database {
		db, err := core.Open(t.TempDir(), core.Options{NoSync: true, BufferPages: 1024})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.LoadXML("inv", strings.NewReader(invXML(items))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := sampledDB(6000)

	res := upd(t, db, `ANALYZE doc("inv")`)
	s, err := res.String()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "(sampled)") {
		t.Fatalf("large-document ANALYZE not marked sampled: %s", s)
	}
	stats := db.Catalog().DocStats("inv")
	if stats == nil || !stats.Sampled {
		t.Fatalf("DocStats.Sampled not set: %+v", stats)
	}
	// The v column holds 6000 + 2000 values; sampling must still report the
	// true row count and an extrapolated distinct near the real 10.
	found := false
	for _, c := range stats.Cols {
		if c.Rows == 8000 {
			found = true
			if c.Distinct < 5 || c.Distinct > 200 {
				t.Fatalf("sampled distinct estimate off: %d (true 10)", c.Distinct)
			}
		}
	}
	if !found {
		t.Fatalf("no column reports the true row count; cols: %+v", stats.Cols)
	}

	// Results must match the unoptimized plans exactly.
	for _, src := range []string{
		`count(doc("inv")//item[v = 3])`,
		`count(doc("inv")//item[v > 7])`,
	} {
		want := qctl(t, db, src, true, 0)
		if got := qctl(t, db, src, false, 0); got != want {
			t.Errorf("sampled stats diverge for %s: got %s want %s", src, got, want)
		}
	}

	// EXPLAIN advertises that its estimates rest on a sample.
	out := q(t, db, `EXPLAIN doc("inv")//item[v = 3]`)
	if !strings.Contains(out, "sampled=true") {
		t.Fatalf("EXPLAIN missing sampled annotation:\n%s", out)
	}

	// A small document keeps the exact path and the unmarked message.
	small := sampledDB(50)
	res = upd(t, small, `ANALYZE doc("inv")`)
	if s, _ := res.String(); strings.Contains(s, "(sampled)") {
		t.Fatalf("small-document ANALYZE claims sampling: %s", s)
	}
	if st := small.Catalog().DocStats("inv"); st == nil || st.Sampled {
		t.Fatalf("small-document DocStats.Sampled set: %+v", st)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	db := testDB(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if _, err := Execute(NewExecCtx(tx), `ANALYZE doc("nosuch")`); err == nil {
		t.Fatal("ANALYZE of a missing document should fail")
	}
}

func TestAnalyzeEmptyAndSingleValue(t *testing.T) {
	db := testDB(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LoadXML("empty", strings.NewReader(`<root/>`)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LoadXML("mono", strings.NewReader(
		`<m><r><k>7</k></r><r><k>7</k></r><r><k>7</k></r></m>`)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	upd(t, db, `ANALYZE doc("empty")`)
	upd(t, db, `ANALYZE doc("mono")`)
	es := db.Catalog().DocStats("empty")
	if es == nil || es.AnalyzedNodes == 0 {
		t.Fatalf("empty doc stats: %+v", es)
	}
	if len(es.Cols) != 0 {
		t.Fatalf("empty doc should have no value columns, got %d", len(es.Cols))
	}
	ms := db.Catalog().DocStats("mono")
	if ms == nil || len(ms.Cols) == 0 {
		t.Fatal("mono doc collected no columns")
	}
	for _, c := range ms.Cols {
		if c.Distinct != 1 {
			t.Fatalf("single-value column distinct=%d", c.Distinct)
		}
	}
	// Queries over both stay correct with fresh statistics attached.
	if got := q(t, db, `count(doc("mono")//k[. = 7])`); got != "3" {
		t.Fatalf("mono query under stats: %s", got)
	}
	if got := q(t, db, `count(doc("empty")//missing)`); got != "0" {
		t.Fatalf("empty query under stats: %s", got)
	}
}

// TestProbeByteIdentity is the auto-rewrite regression gate: every eligible
// comparison over the indexed paths must serialize byte-identically whether
// it runs as a structural scan (optimizer off), an optimized serial plan, or
// an optimized plan at four workers — across duplicates, multi-value nodes,
// colliding key prefixes and empty results.
func TestProbeByteIdentity(t *testing.T) {
	db := invDB(t, 600)
	prefix := strings.Repeat("x", 30)
	queries := []string{
		`count(doc("inv")//item[v = 3])`,
		`doc("inv")//item[v = 3]/name/text()`,
		`count(doc("inv")//item[3 = v])`,
		`count(doc("inv")//item[v > 7])`,
		`count(doc("inv")//item[v >= 9])`,
		`count(doc("inv")//item[v < 1])`,
		`count(doc("inv")//item[v <= 2])`,
		`count(doc("inv")//item[v = 11])`,
		`count(doc("inv")//item[name = "` + prefix + `A"])`,
		`doc("inv")//item[name = "` + prefix + `B"][v = 4]/v/text()`,
		`count(doc("inv")//item[v = 5][name = "` + prefix + `C"])`,
	}
	before := db.Metrics().Snapshot().Counters["opt.index_probes"]
	for _, src := range queries {
		want := qctl(t, db, src, true, 0) // optimizer off: plain evaluation
		if got := qctl(t, db, src, false, 0); got != want {
			t.Errorf("optimized serial diverges for %s\n got: %.200s\nwant: %.200s", src, got, want)
		}
		if got := qctl(t, db, src, false, 4); got != want {
			t.Errorf("optimized parallel diverges for %s\n got: %.200s\nwant: %.200s", src, got, want)
		}
	}
	after := db.Metrics().Snapshot().Counters["opt.index_probes"]
	if after == before {
		t.Fatal("no query actually executed an index probe")
	}
}

// TestProbeAfterAnalyze re-runs the identity suite with histograms present:
// selectivity estimates change which alternative wins, results must not.
func TestProbeAfterAnalyze(t *testing.T) {
	db := invDB(t, 600)
	upd(t, db, `ANALYZE doc("inv")`)
	queries := []string{
		`count(doc("inv")//item[v = 3])`,
		`count(doc("inv")//item[v > 7])`,
		`count(doc("inv")//item[v = 11])`,
		`doc("inv")//item[v = 9]/name/text()`,
	}
	for _, src := range queries {
		want := qctl(t, db, src, true, 0)
		if got := qctl(t, db, src, false, 0); got != want {
			t.Errorf("analyzed plan diverges for %s\n got: %.200s\nwant: %.200s", src, got, want)
		}
	}
}

func TestExplainShowsCosts(t *testing.T) {
	db := invDB(t, 600)
	upd(t, db, `ANALYZE doc("inv")`)
	out := q(t, db, `EXPLAIN doc("inv")//item[v = 3]`)
	for _, want := range []string{"costs:", "index-probe", "structural-scan", "✓", "est rows", "plan="} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, out)
		}
	}
	// Optimizer off: the same EXPLAIN must not carry a costs table.
	tx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	ctx := NewExecCtx(tx)
	ctx.NoOpt = true
	res, err := Execute(ctx, `EXPLAIN doc("inv")//item[v = 3]`)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := res.String()
	if strings.Contains(s, "costs:") {
		t.Fatalf("NoOpt EXPLAIN still shows costs:\n%s", s)
	}
}

func TestProfileShowsEstimatedRows(t *testing.T) {
	db := invDB(t, 600)
	upd(t, db, `ANALYZE doc("inv")`)
	out := q(t, db, `PROFILE count(doc("inv")//item[v = 3])`)
	if !strings.Contains(out, "est_rows=") {
		t.Fatalf("PROFILE missing est_rows:\n%s", out)
	}
	m := db.Metrics().Snapshot()
	if m.Counters["opt.plans_costed"] == 0 {
		t.Fatal("opt.plans_costed never incremented")
	}
	if _, ok := m.Histograms["opt.est_error_pct"]; !ok {
		t.Fatal("opt.est_error_pct histogram missing")
	}
}

// TestSkewAwarePlanChoice pins the histogram actually steering the choice: on
// a skewed column the frequent value scans, the rare value probes.
func TestSkewAwarePlanChoice(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true, BufferPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	var sb strings.Builder
	sb.WriteString("<inv>")
	for i := 0; i < 600; i++ {
		v := 1
		if i%20 == 0 {
			v = 100 + i // rare long tail
		}
		fmt.Fprintf(&sb, "<item><v>%d</v></item>", v)
	}
	sb.WriteString("</inv>")
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LoadXML("inv", strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	upd(t, db, `CREATE INDEX "byv" ON doc("inv")//item BY v AS number`)
	upd(t, db, `ANALYZE doc("inv")`)
	frequent := q(t, db, `EXPLAIN doc("inv")//item[v = 1]`)
	if !strings.Contains(frequent, "plan=structural-scan") {
		t.Errorf("frequent value should scan:\n%s", frequent)
	}
	rare := q(t, db, `EXPLAIN doc("inv")//item[v = 100]`)
	if !strings.Contains(rare, "plan=index-probe") {
		t.Errorf("rare value should probe:\n%s", rare)
	}
	// And both answers stay correct either way.
	if got := q(t, db, `count(doc("inv")//item[v = 1])`); got != "570" {
		t.Fatalf("frequent count: %s", got)
	}
	if got := q(t, db, `count(doc("inv")//item[v = 100])`); got != "1" {
		t.Fatalf("rare count: %s", got)
	}
}

// TestStalenessDisablesPlanning: heavy updates after ANALYZE push the
// staleness clock past the threshold; the optimizer then refuses to plan
// from the dead histograms.
func TestStalenessDisablesPlanning(t *testing.T) {
	db := testDB(t)
	upd(t, db, `ANALYZE doc("lib")`)
	if out := q(t, db, `EXPLAIN doc("lib")//author`); !strings.Contains(out, "costs:") {
		t.Fatalf("fresh stats should produce a costed plan:\n%s", out)
	}
	for i := 0; i < 30; i++ {
		upd(t, db, `UPDATE insert <author>Churn</author> into doc("lib")/library/paper`)
	}
	if out := q(t, db, `EXPLAIN doc("lib")//author`); strings.Contains(out, "costs:") {
		t.Fatalf("stale stats should disable planning:\n%s", out)
	}
	// Re-analyzing restores planning.
	upd(t, db, `ANALYZE doc("lib")`)
	if out := q(t, db, `EXPLAIN doc("lib")//author`); !strings.Contains(out, "costs:") {
		t.Fatalf("re-ANALYZE should restore the costed plan:\n%s", out)
	}
}

// TestAnalyzeConcurrentCommits races ANALYZE against committing writers; the
// lock manager serializes them, and neither side may corrupt the other
// (run under -race).
func TestAnalyzeConcurrentCommits(t *testing.T) {
	db := testDB(t)
	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan error, 64)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			tx, err := db.Begin()
			if err != nil {
				errs <- err
				return
			}
			if _, err := Execute(NewExecCtx(tx), `UPDATE insert <author>W</author> into doc("lib")/library/paper`); err != nil {
				tx.Rollback()
				errs <- err
				return
			}
			if err := tx.Commit(); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			tx, err := db.Begin()
			if err != nil {
				errs <- err
				return
			}
			if _, err := Execute(NewExecCtx(tx), `ANALYZE doc("lib")`); err != nil {
				tx.Rollback()
				errs <- err
				return
			}
			if err := tx.Commit(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if db.Catalog().DocStats("lib") == nil {
		t.Fatal("stats lost after concurrent ANALYZE")
	}
}

// TestAnalyzeRollback: a rolled-back ANALYZE restores the previous snapshot.
func TestAnalyzeRollback(t *testing.T) {
	db := testDB(t)
	upd(t, db, `ANALYZE doc("lib")`)
	first := db.Catalog().DocStats("lib")
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(NewExecCtx(tx), `ANALYZE doc("lib")`); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if got := db.Catalog().DocStats("lib"); got != first {
		t.Fatalf("rollback did not restore the previous stats snapshot: %p vs %p", got, first)
	}
}

// TestOptimizedCorpusIdentity runs the full parallel property corpus with
// fresh statistics on every document: plans (serial-forced, fanned out,
// probed) must never change any serialization, which stays the recorded
// answer with the optimizer on and off, serial and on four workers.
func TestOptimizedCorpusIdentity(t *testing.T) {
	lowerScanGate(t)
	db := parallelDB(t)
	for _, name := range []string{"cat", "biglib", "site", "deep"} {
		upd(t, db, fmt.Sprintf(`ANALYZE doc(%q)`, name))
	}
	for _, noopt := range []bool{true, false} {
		for _, workers := range []int{1, 4} {
			checkCorpus(t, db, noopt, workers)
		}
	}
	m := db.Metrics().Snapshot()
	if m.Counters["opt.plans_costed"] == 0 {
		t.Fatal("corpus run costed no plans despite fresh stats")
	}
}

// TestMultiValueIndexEntries pins the index build/maintenance fix: a node
// with several BY-path values is reachable through each of them.
func TestMultiValueIndexEntries(t *testing.T) {
	db := testDB(t)
	upd(t, db, `CREATE INDEX "byauthor" ON doc("lib")/library/book BY author AS string`)
	// Book 1 has three authors; the pre-fix build indexed only the first.
	for _, a := range []string{"Abiteboul", "Hull", "Vianu"} {
		got := q(t, db, fmt.Sprintf(`index-scan("byauthor", %q)/title/text()`, a))
		if got != "Foundations of Databases" {
			t.Errorf("index-scan(%q): %s", a, got)
		}
	}
	// Maintenance: adding a later author updates the index too.
	upd(t, db, `UPDATE insert <author>Gray</author> into doc("lib")/library/book[2]`)
	if got := q(t, db, `index-scan("byauthor", "Gray")/title/text()`); got != "An Introduction to Database Systems" {
		t.Errorf("post-insert index-scan: %s", got)
	}
}
