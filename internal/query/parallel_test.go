package query

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sedna/internal/core"
	"sedna/internal/xmlgen"
)

// parallelDB opens a database preloaded with the xmlgen corpora the
// parallel-vs-serial property tests query against: the multi-schema-node
// Sections catalog (the fan-out shape), a scaled library, an auction site,
// a deep narrow tree and a mixed-content document.
func parallelDB(t *testing.T) *core.Database {
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
	docs := map[string]string{
		"cat":    xmlgen.SectionsString(8, 40, 1),
		"biglib": xmlgen.LibraryString(120, 2),
		"site":   xmlgen.AuctionString(30, 20, 3, 3),
		"deep":   xmlgen.DeepString(6, 4),
		"mixed":  mixedContentDoc(60),
	}
	for name, content := range docs {
		if _, err := tx.LoadXML(name, strings.NewReader(content)); err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// mixedContentDoc generates n paragraphs whose string values are spread over
// nested and interleaved text nodes: text before, between and after child
// elements, the same element names at several depths, empty elements, and a
// comment and a processing instruction that the string value must skip. The
// string value of paragraph i is mixedContentValue(i).
func mixedContentDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("<m>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<p n="%d">a%d<b>b<i>c<b>d</b></i>e</b><!--x-->f<b/><?pi y?>g<i>h</i></p>`, i, i)
		if i%7 == 0 {
			sb.WriteString("<p/>")
		}
	}
	sb.WriteString("<q><p>only<p>nested</p></p></q></m>")
	return sb.String()
}

func mixedContentValue(i int) string { return fmt.Sprintf("a%dbcdefgh", i) }

// qw executes a query with an explicit intra-query worker budget and
// serializes the result.
func qw(t *testing.T, db *core.Database, src string, workers int) string {
	t.Helper()
	tx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	ctx := NewExecCtx(tx)
	ctx.Workers = workers
	res, err := Execute(ctx, src)
	if err != nil {
		t.Fatalf("query %q (workers=%d): %v", src, workers, err)
	}
	s, err := res.String()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// parallelPropertyQueries is the property-test corpus: path steps with
// multi-schema-node descendant fan-out, predicates, FLWORs (plain, where,
// positional, ordered, nested), aggregates and quantifiers. Every query must
// serialize byte-identically at any worker count.
var parallelPropertyQueries = []string{
	// Sections catalog: //item fans out over 8 schema nodes.
	`count(doc("cat")//item)`,
	`doc("cat")//name`,
	`data(doc("cat")//value)`,
	`doc("cat")//item[value > 9000]/name`,
	`count(doc("cat")//item[value < 5000])`,
	`doc("cat")/catalog/sec3/item[2]/name/text()`,
	`data(doc("cat")//item/@id)`,
	`max(doc("cat")//value)`,
	`min(doc("cat")//value)`,
	`sum(for $v in doc("cat")//value return number($v))`,
	`distinct-values(doc("cat")//note/text())`,
	`for $i in doc("cat")//item where $i/value > 9500 return string($i/name)`,
	`for $i at $p in doc("cat")/catalog/sec0/item where $p <= 5 return string($i/value)`,
	`for $i in doc("cat")/catalog/sec1/item order by number($i/value) return string($i/value)`,
	`for $s in doc("cat")/catalog/*, $i in $s/item where $i/value > 9000 return string($i/value)`,
	`for $i in doc("cat")/catalog/sec2/item return if ($i/value > 5000) then "hi" else "lo"`,
	`count(doc("cat")//item[some $n in note satisfies contains($n, "Codd")])`,
	// Scaled library.
	`count(doc("biglib")//author)`,
	`doc("biglib")//book[year = 1999]/title`,
	`data(doc("biglib")//publisher)`,
	`count(doc("biglib")//issue/year)`,
	`for $b in doc("biglib")/library/book where count($b/author) > 2 return $b/title/text()`,
	`for $p in doc("biglib")/library/paper order by $p/title return string($p/title)`,
	`for $a in doc("biglib")//author order by $a return string($a)`,
	// Auction site: deeper nesting, more schema variety.
	`count(doc("site")//bidder)`,
	`data(doc("site")//current)`,
	`doc("site")//person[profile/age > 60]/name`,
	`for $a in doc("site")//open_auction where number($a/current) > 4000 return string($a/initial)`,
	`sum(for $b in doc("site")//increase return number($b))`,
	`count(doc("site")//item)`,
	// Deep narrow tree: long labels, recursion through one schema chain.
	`count(doc("deep")//n0)`,
	`count(doc("deep")//n2)`,
	`data(doc("deep")/root/n0/n0/n1)`,
	// Element constructors over stored nodes: copied text nodes, copied
	// elements (virtual references, serialized from storage) and a
	// navigated constructor (deep copy).
	`for $p in doc("site")//person return <r>{$p/name/text()}</r>`,
	`for $p in doc("biglib")/library/paper return <r>{$p/title}</r>`,
	`(for $b in doc("biglib")/library/book return <r>{$b/title}</r>)/title/text()`,
	// String values of stored elements assembled from nested and interleaved
	// text nodes: atomization opens one range scan per context element.
	`data(doc("mixed")//p)`,
	`for $p in doc("mixed")/m/p return string($p)`,
	`doc("mixed")/m/p[. = "a7bcdefgh"]/@n`,
	`count(doc("mixed")//p[contains(., "efg")])`,
	`data(doc("mixed")//b)`,
	`for $p in doc("mixed")/m/p where $p/b > "b" return string($p/b/i)`,
	`string(doc("mixed")/m/q)`,
	`count(doc("mixed")//p[. = ""])`,
	// Positions, reverse and sibling axes, and paths that are only counted
	// or probed: what the batch collectors decide node by node.
	`doc("cat")/catalog/sec3/item[last()]/name/text()`,
	`doc("cat")//item[position() = 3]/name`,
	`doc("cat")//item[value > 5000][2]/name`,
	`doc("cat")/catalog/*/item[39]/following-sibling::item/name`,
	`data(doc("cat")/catalog/sec5/item[4]/preceding-sibling::item/@id)`,
	`data(doc("cat")//item[value > 9800]/parent::*/item[1]/@id)`,
	`count(doc("cat")//value/ancestor::*)`,
	`doc("mixed")/m/p[4]/preceding-sibling::node()[2]`,
	`doc("mixed")/m/p[2]/following-sibling::node()[3]`,
	`count(doc("site")//person[profile])`,
	`doc("site")//person[not(profile/age)]/name`,
	`data(doc("site")//open_auction[bidder[2]]/@id)`,
	`doc("site")//open_auction[2]/bidder[last()]/increase`,
	`exists(doc("site")//bidder), empty(doc("site")//nosuch), boolean(doc("site")//person[7])`,
	`for $a in doc("site")//open_auction where $a/bidder return count($a/bidder/increase)`,
	`doc("deep")//n1[1]/n0[1]/ancestor-or-self::*[2]`,
}

// lowerScanGate drops the scan fan-out threshold so the small test corpora
// exercise the parallel path, restoring it on cleanup.
func lowerScanGate(t *testing.T) {
	t.Helper()
	old := parallelScanMinNodes
	parallelScanMinNodes = 4
	t.Cleanup(func() { parallelScanMinNodes = old })
}

// TestParallelMatchesSerial is the determinism property: for the whole query
// corpus, execution with any worker budget serializes byte-identically to
// -query-workers=1. Run with -race to also check the concurrent read path.
func TestParallelMatchesSerial(t *testing.T) {
	lowerScanGate(t)
	db := parallelDB(t)
	for _, src := range parallelPropertyQueries {
		serial := qw(t, db, src, 1)
		for _, workers := range []int{2, 4, 8} {
			if got := qw(t, db, src, workers); got != serial {
				t.Errorf("%s\nworkers=%d diverges from serial\n got: %.200s\nwant: %.200s",
					src, workers, got, serial)
			}
		}
	}
}

// TestParallelStepsCounted pins that a fanned-out descendant step records
// query.parallel_steps and worker busy time, and that forcing workers=1
// leaves the counter untouched.
func TestParallelStepsCounted(t *testing.T) {
	lowerScanGate(t)
	db := parallelDB(t)
	reg := db.Metrics()
	before := reg.Counter("query.parallel_steps").Value()
	qw(t, db, `count(doc("cat")//item)`, 4)
	if got := reg.Counter("query.parallel_steps").Value(); got <= before {
		t.Fatalf("parallel_steps not incremented: before=%d after=%d", before, got)
	}
	if reg.Counter("query.worker_busy_ns").Value() == 0 {
		t.Fatal("worker_busy_ns stayed zero after a parallel step")
	}
	before = reg.Counter("query.parallel_steps").Value()
	qw(t, db, `count(doc("cat")//item)`, 1)
	if got := reg.Counter("query.parallel_steps").Value(); got != before {
		t.Fatalf("workers=1 still fanned out: before=%d after=%d", before, got)
	}
}

// TestParallelFallbackSerial pins that unsafe sections are counted instead of
// parallelized: a FLWOR whose return constructs nodes must fall back.
func TestParallelFallbackSerial(t *testing.T) {
	lowerScanGate(t)
	db := parallelDB(t)
	reg := db.Metrics()
	before := reg.Counter("query.fallback_serial").Value()
	got := qw(t, db, `for $p in doc("biglib")/library/paper return <t>{$p/title/text()}</t>`, 4)
	if !strings.HasPrefix(got, "<t>") {
		t.Fatalf("constructor FLWOR result: %.80s", got)
	}
	if after := reg.Counter("query.fallback_serial").Value(); after <= before {
		t.Fatalf("fallback_serial not incremented: before=%d after=%d", before, after)
	}
}

// TestWorkerPool unit-tests the token pool: budget accounting, non-blocking
// acquisition and degradation to serial when drained.
func TestWorkerPool(t *testing.T) {
	p := newWorkerPool(4)
	if got := p.tryAcquire(10); got != 3 {
		t.Fatalf("tryAcquire(10) on size-4 pool: got %d extra tokens, want 3", got)
	}
	if got := p.tryAcquire(1); got != 0 {
		t.Fatalf("drained pool handed out %d tokens", got)
	}
	p.release(3)
	if got := p.tryAcquire(2); got != 2 {
		t.Fatalf("after release: got %d tokens, want 2", got)
	}
	p.release(2)
	serial := newWorkerPool(1)
	if got := serial.tryAcquire(5); got != 0 {
		t.Fatalf("size-1 pool handed out %d tokens", got)
	}
}

// TestFanOutOrderAndErrors pins fanOut semantics: every index runs exactly
// once, results land at their own index (order restored by position, not
// completion), and a worker error propagates.
func TestFanOutOrderAndErrors(t *testing.T) {
	ctx := &ExecCtx{Workers: 4}
	const n = 64
	out := make([]int, n)
	workers, err := ctx.fanOut(n, func(i int, wctx *ExecCtx) error {
		out[i] = i + 1
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if workers < 1 || workers > 4 {
		t.Fatalf("fanOut used %d workers", workers)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("index %d ran %d times", i, v)
		}
	}
	boom := fmt.Errorf("boom")
	if _, err := ctx.fanOut(n, func(i int, wctx *ExecCtx) error {
		if i == 7 {
			return boom
		}
		return nil
	}); err != boom {
		t.Fatalf("fanOut error: got %v, want boom", err)
	}
}

// TestMergeReplayStreams checks the k-way merge degenerate cases the scan
// fan-out relies on: no streams, and streams whose workers found nothing.
func TestMergeReplayStreams(t *testing.T) {
	e := &env{ctx: NewExecCtx(nil)}
	for _, streams := range [][]nodeStream{nil, make([]nodeStream, 2)} {
		k := collector{e: e}
		if err := mergeStreams(e, streams, &k); err != nil || k.n != 0 {
			t.Fatalf("merge of %d empty streams: %d nodes, %v", len(streams), k.n, err)
		}
	}
}

// TestExecStatsConcurrent hammers the shared stats block, the lazy cache and
// the temp ordinal from many goroutines; run with -race. The counters must
// neither lose increments nor tear.
func TestExecStatsConcurrent(t *testing.T) {
	ctx := NewExecCtx(nil)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fctx := ctx.fork(nil)
			s := fctx.stats()
			for i := 0; i < perWorker; i++ {
				s.AddDDOOps(1)
				s.AddSchemaScans(1)
				s.AddLazyHits(1)
				fctx.shared().tempOrd.Add(1)
				id := (w*perWorker + i) % 16
				if _, ok := fctx.lazyLookup(id); !ok {
					fctx.lazyStore(id, nil)
				}
			}
		}(w)
	}
	wg.Wait()
	want := uint64(workers * perWorker)
	s := ctx.stats()
	if s.DDOOps != want || s.SchemaScans != want || s.LazyHits != want {
		t.Fatalf("lost increments: ddo=%d schema=%d lazy=%d want %d",
			s.DDOOps, s.SchemaScans, s.LazyHits, want)
	}
	if got := ctx.shared().tempOrd.Load(); got != want {
		t.Fatalf("tempOrd=%d want %d", got, want)
	}
}
