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

func init() {
	experiments = append(experiments,
		experiment{"E25", "hot document under mixed read/write: build admission gate, update-target probes, block-skipping list inserts (§4.1, §5.2, §6.3)", runE25},
	)
}

// e25Config switches the three mechanisms E25 measures. They have no user
// option; "off" is forced through test hooks: a stopped cache clock (builds
// then take no time, so the gate never closes and each read after a commit
// rebuilds in-line), the optimizer off for update statements only (target
// selection by sibling scan), and findListPosition walking every descriptor
// of the blocks it would skip.
type e25Config struct {
	name              string
	gate, probe, skip bool
}

type e25Result struct {
	stmts, reads, writes int
	readP50, readP95     time.Duration
	builds, deferred     uint64
}

// runE25 runs one closed-loop writer (keyed auto-commit updates) and one
// closed-loop reader (keyed lookups) against one indexed, ANALYZEd,
// resident Auction document for a fixed window per configuration: all three
// mechanisms off, each one on alone, all on. Gates, on the all-on row: reader
// p50 below 5 ms while the writer runs, at most 2 resident builds during the
// window, and at least 5x the statements/s of the all-off row. After every
// window the document is verified and its bidder count checked against the
// writer's acknowledged inserts.
func runE25(s *session) error {
	dir, cleanup, err := bench.TempDir("sedna-e25-*")
	if err != nil {
		return err
	}
	defer cleanup()
	defer storage.SetListBlockSkipForTesting(true)
	auctions := 2000 * s.scale
	db, err := bench.OpenDBMetrics(dir, s.reg)
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
		{name: "all off"},
		{name: "gate only", gate: true},
		{name: "probe only", probe: true},
		{name: "skip only", skip: true},
		{name: "all on", gate: true, probe: true, skip: true},
	}
	results := make([]e25Result, len(configs))
	const window = 1500 * time.Millisecond
	for i, cfg := range configs {
		res, err := e25Window(s, dir, cfg, auctions, window, int64(i), &bidders)
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
			cfg.name, fmt.Sprintf("%.0f", perSec(r.stmts)), fmt.Sprintf("%.0f", perSec(r.reads)), fmt.Sprintf("%.0f", perSec(r.writes)),
			dur(r.readP50), dur(r.readP95), fmt.Sprint(r.builds), fmt.Sprint(r.deferred),
		})
	}
	s.out.table([]string{"mechanisms", "stmts/s", "reads/s", "writes/s", "reader p50", "reader p95", "resident builds", "reads deferred"}, rows)
	fmt.Println("expected shape: with everything off each read after a commit rebuilds the resident copy in-line and each update scans the sibling list and walks whole schema lists; the gate alone frees the reader, the probe and the skip free the writer, and only together does a statement on the hot document stop costing O(document)")

	off, on := results[0], results[len(results)-1]
	if on.readP50 >= 5*time.Millisecond {
		return fmt.Errorf("E25: reader p50 %s with the writer running, bound 5ms", on.readP50)
	}
	if on.builds > 2 {
		return fmt.Errorf("E25: %d resident builds during the churn window, bound 2", on.builds)
	}
	if off.stmts == 0 || float64(on.stmts)/float64(off.stmts) < 5 {
		return fmt.Errorf("E25: %d statements all on vs %d all off, below the 5x bound", on.stmts, off.stmts)
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

// e25Window reopens the database (fresh cache and buffer pool), primes the
// document into the resident cache, then runs the writer and the reader for
// the window under cfg. Afterwards it verifies the document and checks the
// bidder count against *bidders plus the writer's acknowledged net inserts,
// which it adds to *bidders.
func e25Window(s *session, dir string, cfg e25Config, auctions int, window time.Duration, seed int64, bidders *int) (e25Result, error) {
	db, err := bench.OpenDBMetrics(dir, s.reg)
	if err != nil {
		return e25Result{}, err
	}
	defer db.Close()
	core := db.Internal()
	cache := core.ResidentCache()
	storage.SetListBlockSkipForTesting(cfg.skip)
	if !cfg.gate {
		epoch := time.Now()
		cache.SetClockForTesting(func() time.Time { return epoch })
	}
	// The residency advisor promotes a freshly ANALYZEd document after 32
	// accesses (the update clock behind staleness restarts with the process,
	// so the statistics are taken anew in every window).
	if _, err := db.Execute(`ANALYZE doc("auction")`); err != nil {
		return e25Result{}, err
	}
	for i := 0; i < 40; i++ {
		if _, err := db.Query(`count(doc("auction")/*)`); err != nil {
			return e25Result{}, err
		}
	}
	if !cache.Contains("auction") {
		return e25Result{}, fmt.Errorf("document not resident after priming")
	}
	buildsBefore := s.reg.Counter("resident.builds").Value()
	deferredBefore := s.reg.Counter("resident.deferred").Value()

	path := func(k int) string {
		return fmt.Sprintf(`doc("auction")/site/open_auctions/open_auction[@id = "a%d"]`, k)
	}
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	var writes, inserted int
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
			res, err := query.Execute(ctx, src)
			if err == nil && res.Updated != 1 {
				err = fmt.Errorf("%s: %d updated, want 1", src, res.Updated)
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
	return e25Result{
		stmts: writes + len(lat), reads: len(lat), writes: writes,
		readP50:  lat[len(lat)/2],
		readP95:  lat[len(lat)*95/100],
		builds:   s.reg.Counter("resident.builds").Value() - buildsBefore,
		deferred: s.reg.Counter("resident.deferred").Value() - deferredBefore,
	}, nil
}
