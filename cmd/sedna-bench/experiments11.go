package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"sedna"
	"sedna/internal/bench"
	"sedna/internal/query"
	"sedna/internal/storage"
)

// e25Config switches the two mechanisms E25 measures. They have no user
// option; "off" is forced: the optimizer off for update statements only
// (target selection by a scan of the auction list), and findListPosition
// walking the list descriptor by descriptor instead of searching it (through
// the parent, then by skipping blocks).
type e25Config struct {
	name          string
	probe, search bool
}

type e25Result struct {
	stmts, reads, writes int
	readP50, readP95     time.Duration
	// Page views of the writer's statements: inserts, and replaces and
	// deletes.
	insertPages, otherPages uint64
	inserts, others         int
}

func (r e25Result) pagesPerInsert() float64 {
	return float64(r.insertPages) / float64(max(r.inserts, 1))
}

func (r e25Result) pagesPerOther() float64 {
	return float64(r.otherPages) / float64(max(r.others, 1))
}

// e25OtherPages bounds the page views of a replace or delete with both
// mechanisms on: the index probe for the target, the removed subtree, and for
// a replace the new <current> and the list position of its text node —
// measured 147 at scale 1, plus a quarter.
const e25OtherPages = 184

// e25InsertPages bounds the page views of an insert with both mechanisms on:
// the target as above plus the list positions of the new bidder's nodes,
// each found through its parent in a few descriptor peeks — measured 198 at
// scale 1, plus a quarter.
const e25InsertPages = 247

// runE25 runs one closed-loop writer (keyed auto-commit updates) and one
// closed-loop reader (keyed lookups) against one indexed, ANALYZEd Auction
// document for a fixed window per configuration: both mechanisms off, each
// one on alone, both on. The gates are on what the writer's statements count,
// their page views: with both on, a replace or delete views at most
// e25OtherPages pages and an insert at most e25InsertPages;
// the probe alone must cut a replace or delete (measured 5264 → 847 pages),
// and the search alone an insert (31041 → 4582), to a fifth of the all-off
// row. Statements per second and the reader's latency are printed, not gated.
// After every window the document is verified and its bidder count checked
// against the writer's acknowledged inserts.
func runE25(s *session) error {
	dir, cleanup, err := bench.TempDir("sedna-e25-*")
	if err != nil {
		return err
	}
	defer cleanup()
	defer storage.SetListBlockSkipForTesting(true)
	auctions := 2000 * s.scale
	db, err := bench.OpenDB(dir)
	if err != nil {
		return err
	}
	err = bench.LoadAuction(db, auctions, auctions, 5)
	if err == nil {
		_, err = db.Execute(`CREATE INDEX "auction_id" ON doc("auction")/site/open_auctions/open_auction BY @id AS string`)
	}
	var bidders int
	if err == nil {
		bidders, err = e25Count(db)
	}
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	configs := []e25Config{
		{name: "both off"},
		{name: "probe only", probe: true},
		{name: "search only", search: true},
		{name: "both on", probe: true, search: true},
	}
	results := make([]e25Result, len(configs))
	const window = 1500 * time.Millisecond
	for i, cfg := range configs {
		res, err := e25Window(dir, cfg, auctions, window, int64(i), &bidders)
		if err != nil {
			return fmt.Errorf("E25 %s: %w", cfg.name, err)
		}
		results[i] = res
	}

	var rows [][]string
	perSec := func(n int) float64 { return float64(n) / window.Seconds() }
	for i, cfg := range configs {
		r := results[i]
		rows = append(rows, []string{
			cfg.name, fmt.Sprintf("%.1f", r.pagesPerOther()), fmt.Sprintf("%.1f", r.pagesPerInsert()),
			fmt.Sprintf("%.0f", perSec(r.stmts)), fmt.Sprintf("%.0f", perSec(r.reads)), fmt.Sprintf("%.0f", perSec(r.writes)),
			dur(r.readP50), dur(r.readP95),
		})
	}
	table([]string{"mechanisms", "pages / replace or delete", "pages / insert", "stmts/s", "reads/s", "writes/s", "reader p50", "reader p95"}, rows)
	fmt.Println("expected shape: with both off every update finds its target by scanning the auction list and every insert walks the bidder list descriptor by descriptor; the probe cuts the target to a few pages, the search the list position to a few descriptor peeks, and only together does a statement on the hot document stop costing O(document) (time columns printed, not gated)")

	off, probe, search, on := results[0], results[1], results[2], results[3]
	if p := on.pagesPerOther(); p > e25OtherPages {
		return fmt.Errorf("E25: %.1f page views per replace or delete with both on, bound %d", p, e25OtherPages)
	}
	if p := on.pagesPerInsert(); p > e25InsertPages {
		return fmt.Errorf("E25: %.1f page views per insert with both on, bound %d", p, e25InsertPages)
	}
	if probe.pagesPerOther()*5 > off.pagesPerOther() {
		return fmt.Errorf("E25: the probe cut page views per replace or delete %.1f → %.1f, less than 5x", off.pagesPerOther(), probe.pagesPerOther())
	}
	if search.pagesPerInsert()*5 > off.pagesPerInsert() {
		return fmt.Errorf("E25: the search cut page views per insert %.1f → %.1f, less than 5x", off.pagesPerInsert(), search.pagesPerInsert())
	}
	return nil
}

func e25Count(db *sedna.DB) (int, error) {
	res, err := db.Query(`count(doc("auction")//bidder)`)
	if err != nil {
		return 0, err
	}
	var n int
	_, err = fmt.Sscanf(res.Data, "%d", &n)
	return n, err
}

func e25Verify(db *sedna.DB) error {
	tx, err := db.Internal().BeginReadOnly()
	if err != nil {
		return err
	}
	defer tx.Rollback()
	doc, err := tx.Document("auction")
	if err != nil {
		return err
	}
	return storage.VerifyDoc(tx.Tx, doc)
}

// e25Window reopens the database (fresh buffer pool), analyzes the document,
// then runs the writer and the reader for the window under cfg. Afterwards it verifies the document and checks the
// bidder count against *bidders plus the writer's acknowledged net inserts,
// which it adds to *bidders.
func e25Window(dir string, cfg e25Config, auctions int, window time.Duration, seed int64, bidders *int) (e25Result, error) {
	db, err := bench.OpenDB(dir)
	if err != nil {
		return e25Result{}, err
	}
	defer db.Close()
	core := db.Internal()
	storage.SetListBlockSkipForTesting(cfg.search)
	// The update clock behind staleness restarts with the process, so the
	// statistics are taken anew in every window.
	if _, err := db.Execute(`ANALYZE doc("auction")`); err != nil {
		return e25Result{}, err
	}

	path := func(k int) string {
		return fmt.Sprintf(`doc("auction")/site/open_auctions/open_auction[@id = "a%d"]`, k)
	}
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	var writes, inserted int
	var res e25Result
	var writeErr, readErr error
	var lat []time.Duration
	wg.Add(2)
	go func() { // writer: inserts a bidder, replaces <current>, deletes its last insert
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		lastKey, lastMarker := -1, 0
		for marker := 1; time.Now().Before(deadline); marker++ {
			k := rng.Intn(auctions)
			increase := 1_000_000*(int(seed)+1) + marker // unique across windows
			var src string
			delta := 0
			switch mix := rng.Intn(10); {
			case mix < 5:
				src = fmt.Sprintf(`UPDATE insert <bidder><personref person="p%d"/><increase>%d</increase></bidder> into %s`, rng.Intn(auctions), increase, path(k))
				delta = 1
			case mix < 8 || lastKey < 0:
				src = fmt.Sprintf(`UPDATE replace $c in %s/current with <current>%d</current>`, path(k), marker)
			default:
				src = fmt.Sprintf(`UPDATE delete %s/bidder[increase = %d]`, path(lastKey), lastMarker)
				delta = -1
			}
			tx, err := core.Begin()
			if err != nil {
				writeErr = err
				return
			}
			ctx := query.NewExecCtx(tx)
			ctx.NoOpt = !cfg.probe
			out, err := query.Execute(ctx, src)
			if err == nil && out.Updated != 1 {
				err = fmt.Errorf("%s: %d updated, want 1", src, out.Updated)
			}
			if err != nil {
				tx.Rollback()
				writeErr = err
				return
			}
			if err := tx.Commit(); err != nil {
				writeErr = err
				return
			}
			writes++
			inserted += delta
			if delta == 1 {
				res.inserts++
				res.insertPages += ctx.Profile.PagesTouched
			} else {
				res.others++
				res.otherPages += ctx.Profile.PagesTouched
			}
			switch delta {
			case 1:
				lastKey, lastMarker = k, increase
			case -1:
				lastKey = -1
			}
		}
	}()
	go func() { // reader: keyed lookups through the planned index probe
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed + 1000))
		for time.Now().Before(deadline) {
			start := time.Now()
			res, err := db.Query(path(rng.Intn(auctions)) + `/initial`)
			if err == nil && res.Data == "" {
				err = fmt.Errorf("keyed lookup returned nothing")
			}
			if err != nil {
				readErr = err
				return
			}
			lat = append(lat, time.Since(start))
		}
	}()
	wg.Wait()
	if writeErr != nil {
		return e25Result{}, writeErr
	}
	if readErr != nil {
		return e25Result{}, readErr
	}
	if len(lat) == 0 {
		return e25Result{}, fmt.Errorf("reader completed no statement in the window")
	}
	*bidders += inserted
	if got, err := e25Count(db); err != nil || got != *bidders {
		return e25Result{}, fmt.Errorf("%d bidders stored, %d acknowledged (%v)", got, *bidders, err)
	}
	if err := e25Verify(db); err != nil {
		return e25Result{}, err
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.stmts, res.reads, res.writes = writes+len(lat), len(lat), writes
	res.readP50, res.readP95 = lat[len(lat)/2], lat[len(lat)*95/100]
	return res, nil
}
