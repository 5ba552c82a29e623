package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sedna"
	"sedna/internal/metrics"
)

// ingestCorpus is what one ingest_recover cycle loads, with the oracle's
// element counts.
type ingestCorpus struct {
	docs     []docSpec
	xml      []string
	counts   []int // per document: occurrences of its checkElement
	xmlBytes int   // phase A total
	bulk     docSpec
	bulkXML  string
	bulkN    int
	target   int // index in docs of the Auction document phase C updates
}

func newIngestCorpus(sc scale, seed int64) (*ingestCorpus, error) {
	c := &ingestCorpus{docs: sc.ingest, bulk: sc.ingestBulk, target: -1}
	count := func(d docSpec, src string) (int, error) {
		m, err := countElements(src)
		return m[checkElement[d.kind]], err
	}
	for i, d := range c.docs {
		src := d.generate(seed*1000 + int64(i))
		n, err := count(d, src)
		if err != nil {
			return nil, err
		}
		c.xml, c.counts, c.xmlBytes = append(c.xml, src), append(c.counts, n), c.xmlBytes+len(src)
		if d.kind == "auction" && c.target < 0 {
			c.target = i
		}
	}
	c.bulkXML = c.bulk.generate(seed*1000 + 999)
	var err error
	c.bulkN, err = count(c.bulk, c.bulkXML)
	return c, err
}

func countStmt(d docSpec, want int) stmt {
	return stmt{class: "verify", src: fmt.Sprintf(`count(doc("%s")//%s)`, d.name, checkElement[d.kind]), want: strconv.Itoa(want)}
}

// ghostMarker is the <increase> of the bidder inserted by the transaction
// that is still open at the crash; no recovered state may contain it.
const ghostMarker = 999_999_999

// cycleStats is what one cycle measured.
type cycleStats struct {
	ops        []sample
	loadTime   time.Duration // phase A, inside LoadXML
	checkpoint time.Duration
	diskRatio  float64 // after the phase B checkpoint
	walRatio   float64
	recover    time.Duration
	closeTime  time.Duration
}

// ingestCycle runs one cycle in a fresh database under dir:
//
//	A  LoadXML every corpus document, one transaction each;
//	B  Checkpoint, then measure the bytes on disk;
//	C  ingestUpdates acknowledged auto-commit updates and one more bulk
//	   load, then — with an update and a bulk load still uncommitted —
//	   CrashForTesting, sedna.Open and a first query.
//
// After the reopen every acknowledged commit must be readable and nothing
// unacknowledged may be. seed picks the auctions phase C updates — callers
// vary it per cycle, because where an auction sits in the document decides
// what finding it costs. span, when set, is told about each timed call.
func ingestCycle(dir string, reg *metrics.Registry, c *ingestCorpus, updates int, seed int64, t *tally,
	span func(name string, start, end time.Time)) (cycleStats, error) {
	var st cycleStats
	timed := func(class string, write bool, fn func() error) (time.Duration, error) {
		start := time.Now()
		err := fn()
		end := time.Now()
		ok := t.note(err)
		st.ops = append(st.ops, sample{class: class, write: write, start: start, lat: end.Sub(start), ok: ok})
		if span != nil {
			span(class, start, end)
		}
		return end.Sub(start), err
	}
	db, err := openDB(dir, reg)
	if err != nil {
		return st, err
	}
	for i, d := range c.docs {
		lat, err := timed("load", true, func() error { return db.LoadXMLString(d.name, c.xml[i]) })
		if err != nil {
			return st, fmt.Errorf("load %s: %w", d.name, err)
		}
		st.loadTime += lat
	}
	if st.checkpoint, err = timed("checkpoint", true, db.Checkpoint); err != nil {
		return st, err
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return st, err
	}
	st.diskRatio = float64(disk) / float64(c.xmlBytes)
	st.walRatio = float64(fileSize(filepath.Join(dir, "data.wal"))) / float64(c.xmlBytes)

	target, bidders := c.docs[c.target], c.counts[c.target]
	rng := rand.New(rand.NewSource(seed))
	insert := func(marker int) string {
		return fmt.Sprintf(`UPDATE insert <bidder><personref person="p%d"/><increase>%d</increase></bidder> into doc("%s")/site/open_auctions/open_auction[@id = "a%d"]`,
			rng.Intn(target.a), marker, target.name, rng.Intn(target.b))
	}
	for i := 0; i < updates; i++ {
		src := insert(1_000_000 + i)
		if _, err := timed("update", true, func() error {
			res, err := db.Execute(src)
			return verify(stmt{src: src, write: true, wantUpd: 1}, "", updatedOf(res), err)
		}); err == nil {
			bidders++
		}
	}
	if _, err := timed("load", true, func() error { return db.LoadXMLString(c.bulk.name, c.bulkXML) }); err != nil {
		return st, fmt.Errorf("load %s: %w", c.bulk.name, err)
	}
	// Work the crash must lose: an update and a bulk load without commit.
	ghostTx, err := db.Begin()
	if err != nil {
		return st, err
	}
	if _, err := ghostTx.Execute(insert(ghostMarker)); err != nil {
		return st, fmt.Errorf("uncommitted update: %w", err)
	}
	ghostLoad, err := db.Begin()
	if err != nil {
		return st, err
	}
	if err := ghostLoad.LoadXML("ghost", strings.NewReader(c.xml[0])); err != nil {
		return st, fmt.Errorf("uncommitted load: %w", err)
	}

	first := countStmt(target, bidders)
	db.Internal().CrashForTesting()
	settle() // the abandoned buffer pool would not outlive a real crash
	if st.recover, err = timed("recover", false, func() error {
		if db, err = openDB(dir, reg); err != nil {
			return err
		}
		return expect(db, first)
	}); err != nil {
		return st, fmt.Errorf("recover: %w", err)
	}
	for i, d := range c.docs {
		if i != c.target {
			t.note(expect(db, countStmt(d, c.counts[i])))
		}
	}
	t.note(expect(db, countStmt(c.bulk, c.bulkN)))
	t.note(expect(db, stmt{src: fmt.Sprintf(`count(doc("%s")//bidder[increase = %d])`, target.name, ghostMarker), want: "0"}))
	var ghost error
	if got := len(db.Documents()); got != len(c.docs)+1 {
		ghost = fmt.Errorf("recovered %d documents, %d were committed", got, len(c.docs)+1)
	}
	t.note(ghost)

	start := time.Now()
	err = db.Close()
	st.closeTime = time.Since(start)
	if span != nil {
		span("close", start, start.Add(st.closeTime))
	}
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return st, err
}

func updatedOf(res *sedna.Result) int {
	if res == nil {
		return 0
	}
	return res.Updated
}

// runIngest is the untraced ingest_recover run: one warm-up cycle, then
// whole cycles until the timed window is used up.
func runIngest(opt options) (*report, error) {
	mem := startMemSampler()
	defer mem.close()
	rep := newReport(opt)
	var setups, setupPeaks, cyclePeaks []float64
	var corpus *ingestCorpus
	for i := 0; i < opt.sc.setups; i++ {
		start := time.Now()
		var err error
		if corpus, err = newIngestCorpus(opt.sc, opt.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		setupPeaks = append(setupPeaks, mem.mark())
	}
	t := new(tally)
	reg := metrics.NewRegistry()
	cycle := func(n int) (cycleStats, error) {
		return ingestCycle(filepath.Join(opt.workdir, "cycle"+strconv.Itoa(n)), reg, corpus, opt.sc.ingestUpdates, opt.seed*1000+int64(n), t, nil)
	}
	if _, err := cycle(0); err != nil {
		return nil, fmt.Errorf("warm-up cycle: %w", err)
	}
	mem.mark() // the warm-up cycle is no phase of the measurement
	var ops []sample
	var ingest, recovery, disk []float64
	start := time.Now()
	deadline := start.Add(time.Duration(opt.seconds) * time.Second)
	for n := 1; time.Now().Before(deadline); n++ {
		st, err := cycle(n)
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", n, err)
		}
		ops = append(ops, st.ops...)
		ingest = append(ingest, float64(corpus.xmlBytes)/1e6/st.loadTime.Seconds())
		recovery = append(recovery, st.recover.Seconds())
		disk = append(disk, st.diskRatio)
		cyclePeaks = append(cyclePeaks, mem.mark())
	}
	elapsed := time.Since(start).Seconds()

	all := latencies(ops, nil)
	rep.setEndToEnd(setups, ingest, recovery, disk, len(all), elapsed, median(all), percentile(all, 0.95), peakOf(setupPeaks, cyclePeaks))
	rep.setClasses(ops)
	rep.check("every acknowledged commit readable after reopen, nothing unacknowledged", t.failed == 0,
		"%d cycles, %d checks failed", len(recovery), t.failed)
	rep.finish(endToEnd, t)
	return rep, nil
}
