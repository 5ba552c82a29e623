package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sedna"
	"sedna/internal/bench"
)

func init() {
	experiments = append(experiments,
		experiment{"E22", "resident mode: compressed in-memory documents vs paged block chains (§4)", runE22},
	)
}

// e22Suite is the descendant-heavy query set E22 times on both backends:
// pure structural scans, text materialization, a value predicate and a
// child-clustered path — the step shapes the resident arrays serve instead
// of the block chains.
var e22Suite = []string{
	`count(doc("cat")//item)`,
	`count(doc("cat")//note)`,
	`data(doc("cat")//value)`,
	`doc("cat")//item[value > 9900]/name`,
	`doc("cat")/catalog/sec0/item/name/text()`,
}

// runE22 measures the compressed in-memory resident mode against paged
// block-chain execution: per-query cold (empty buffer pool; for resident,
// the timing includes the one-off array build) and warm (steady-state, the
// better of two 15-rep averages) latencies on a descendant-heavy suite, then
// the repository benchmark's point_read statement mix on an indexed,
// ANALYZEd Auction document. Both backends start every step at the context
// node and paged snapshot reads view buffer-pool frames in place, so what
// the resident arrays save is the page lookup and descriptor decode per
// node. The two paged/resident ratios (suite total, point-read p50) are the
// inputs of ROADMAP item 1's decision rule and are printed, not gated: this
// VM's clock is not a gate. What is gated is what the run counts — every
// answer byte-identical on both backends, including after an update
// invalidates the resident copy and forces a rebuild; one resident build per
// document per open; no fallback to paged while the budget allows residency.
// The paged cost itself is E26's to guard.
func runE22(s *session) error {
	dir, cleanup, err := bench.TempDir("sedna-e22-*")
	if err != nil {
		return err
	}
	defer cleanup()
	build, err := bench.OpenDBMetrics(dir, s.reg)
	if err != nil {
		return err
	}
	if err := bench.LoadSections(build, 8, 400*s.scale); err != nil {
		build.Close()
		return err
	}
	if err := build.Close(); err != nil {
		return err
	}

	const reps = 15
	builds, fallbacks := s.reg.Counter("resident.builds"), s.reg.Counter("resident.fallbacks")
	fallbacks0 := fallbacks.Value()
	// measure reopens the directory and times every suite query cold (first
	// run after open) and warm (averaged steady state), returning the warm
	// result strings for byte-identity checks.
	measure := func(resident bool) (cold, warm []time.Duration, results []string, err error) {
		builds0 := builds.Value()
		defer func() {
			if n := builds.Value() - builds0; err == nil && resident && n != 1 {
				err = fmt.Errorf("E22: %d resident builds for one document in one open, want 1", n)
			}
		}()
		var db *sedna.DB
		if resident {
			db, err = bench.OpenDBResident(dir, s.reg, 0)
		} else {
			db, err = bench.OpenDBMetrics(dir, s.reg)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		defer db.Close()
		for _, src := range e22Suite {
			c, err := timeIt(1, func() error { _, err := db.Query(src); return err })
			if err != nil {
				return nil, nil, nil, err
			}
			var last string
			w, err := timeIt(reps, func() error {
				res, err := db.Query(src)
				if err != nil {
					return err
				}
				last = res.Data
				return nil
			})
			if err != nil {
				return nil, nil, nil, err
			}
			cold, warm, results = append(cold, c), append(warm, w), append(results, last)
		}
		return cold, warm, results, nil
	}

	pagedCold, pagedWarm, pagedRes, err := measure(false)
	if err != nil {
		return err
	}
	resCold, resWarm, resRes, err := measure(true)
	if err != nil {
		return err
	}
	// A second round of warm times, the better of the two kept per query: a
	// burst of machine noise then has to hit the same backend twice to move
	// the ratio the gate reads.
	for _, resident := range []bool{false, true} {
		_, again, _, err := measure(resident)
		if err != nil {
			return err
		}
		warm := pagedWarm
		if resident {
			warm = resWarm
		}
		for i, d := range again {
			if d < warm[i] {
				warm[i] = d
			}
		}
	}
	for i := range e22Suite {
		if pagedRes[i] != resRes[i] {
			return fmt.Errorf("E22: resident result diverges for %s", e22Suite[i])
		}
	}

	var rows [][]string
	var pagedTotal, resTotal time.Duration
	for i, src := range e22Suite {
		pagedTotal += pagedWarm[i]
		resTotal += resWarm[i]
		rows = append(rows, []string{
			src, dur(pagedCold[i]), dur(pagedWarm[i]), dur(resCold[i]), dur(resWarm[i]),
			ratio(pagedWarm[i], resWarm[i]),
		})
	}
	rows = append(rows, []string{"total", dur(sum(pagedCold)), dur(pagedTotal), dur(sum(resCold)), dur(resTotal), ratio(pagedTotal, resTotal)})
	s.out.table([]string{"query", "paged cold", "paged warm", "resident cold", "resident warm", "warm speedup"}, rows)

	// Update-invalidate-rebuild: mutate the document under resident mode,
	// then check the rebuilt representation still serializes byte-identically
	// to paged access of the same post-update state.
	db, err := bench.OpenDBResident(dir, s.reg, 0)
	if err != nil {
		return err
	}
	defer db.Close()
	// A stopped clock makes builds take no time, so the cache's admission
	// gate admits the rebuild right after the update's commit — otherwise
	// the reads below would be served paged and compare paged with paged.
	epoch := time.Now()
	db.Internal().ResidentCache().SetClockForTesting(func() time.Time { return epoch })
	if _, err := db.Query(e22Suite[0]); err != nil { // warm the cache
		return err
	}
	if _, err := db.Execute(`UPDATE insert <item id="e22"><name>resident probe</name><value>9999</value><note>E22</note></item> into doc("cat")/catalog/sec0`); err != nil {
		return err
	}
	for _, src := range e22Suite {
		builds0 := builds.Value()
		res, err := db.Query(src)
		if err != nil {
			return err
		}
		if builds.Value() != builds0+1 {
			return fmt.Errorf("E22: post-update %s was not served from a rebuilt resident copy", src)
		}
		db.Internal().SetResident(false)
		want, err := db.Query(src)
		db.Internal().SetResident(true)
		if err != nil {
			return err
		}
		if res.Data != want.Data {
			return fmt.Errorf("E22: post-update resident result diverges for %s", src)
		}
	}

	if _, err := db.Query(e22Suite[0]); err != nil { // repopulate so the gauge reads live
		return err
	}
	snap := s.reg.Snapshot()
	fmt.Printf("resident builds=%d hits=%d fallbacks=%d invalidations=%d bytes=%d\n",
		snap.Counters["resident.builds"], snap.Counters["resident.hits"],
		snap.Counters["resident.fallbacks"], snap.Counters["resident.invalidations"],
		snap.Gauges["resident.bytes"])
	if snap.Counters["resident.hits"] == 0 {
		return fmt.Errorf("E22: resident cache never hit")
	}
	if n := fallbacks.Value() - fallbacks0; n != 0 {
		return fmt.Errorf("E22: %d resident fallbacks with the default budget", n)
	}

	mixPaged, mixRes, err := e22PointReads(s)
	if err != nil {
		return err
	}
	fmt.Printf("decision inputs (ROADMAP item 1; rule: both ≤ 1.3x → resident mode goes): suite total paged/resident = %s, point-read p50 paged/resident = %s\n",
		ratio(pagedTotal, resTotal), ratio(mixPaged, mixRes))
	fmt.Println("expected shape: warm steps over the resident arrays beat warm paged steps by a small constant (an array index versus a pinned page view and a descriptor decode per node; both start at the context node); the resident cold run pays the one-off build; every run, including after update-invalidate-rebuild, serializes byte-identically")
	return nil
}

// e22PointReads times the repository benchmark's point_read statement mix —
// 60 % optimizer-planned indexed lookups, 10 % explicit index-scan(), 20 %
// positional navigations, 10 % small FLWORs with a constructor, keys Zipf(1.1)
// — on one indexed, ANALYZEd Auction document served resident and served
// paged, and returns the two median statement latencies. Paged means the
// resident budget is one byte: the advisor would promote this document with
// the global switch off, so the budget is the lever that exists. Answers
// must be byte-identical statement by statement.
func e22PointReads(s *session) (pagedP50, residentP50 time.Duration, err error) {
	dir, cleanup, err := bench.TempDir("sedna-e22p-*")
	if err != nil {
		return 0, 0, err
	}
	defer cleanup()
	n := 2000 * s.scale
	db, err := bench.OpenDBMetrics(dir, s.reg)
	if err != nil {
		return 0, 0, err
	}
	if err := bench.LoadAuction(db, n, n, 5); err != nil {
		db.Close()
		return 0, 0, err
	}
	for _, stmt := range []string{
		`CREATE INDEX "person_id" ON doc("auction")/site/people/person BY @id AS string`,
		`CREATE INDEX "auction_id" ON doc("auction")/site/open_auctions/open_auction BY @id AS string`,
		`ANALYZE doc("auction")`,
	} {
		if _, err := db.Execute(stmt); err != nil {
			db.Close()
			return 0, 0, fmt.Errorf("E22: %s: %w", stmt, err)
		}
	}
	if err := db.Close(); err != nil {
		return 0, 0, err
	}

	rng := rand.New(rand.NewSource(22))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	mix := make([]string, 2000)
	for i := range mix {
		k, class, onPerson := int(zipf.Uint64()), rng.Intn(100), rng.Intn(2) == 0
		person := fmt.Sprintf(`doc("auction")/site/people/person[@id = "p%d"]`, k)
		auction := fmt.Sprintf(`doc("auction")/site/open_auctions/open_auction[@id = "a%d"]`, k)
		switch {
		case class < 60 && onPerson:
			mix[i] = person + "/name"
		case class < 60:
			mix[i] = auction + "/current"
		case class < 70 && onPerson:
			mix[i] = fmt.Sprintf(`index-scan("person_id", "p%d")/name`, k)
		case class < 70:
			mix[i] = fmt.Sprintf(`index-scan("auction_id", "a%d")/current`, k)
		case class < 90 && onPerson:
			mix[i] = fmt.Sprintf(`doc("auction")/site/people/person[%d]/emailaddress`, k+1)
		case class < 90:
			mix[i] = fmt.Sprintf(`doc("auction")/site/open_auctions/open_auction[%d]/initial`, k+1)
		case onPerson:
			mix[i] = "for $p in " + person + ` return <p n="{$p/name}">{string($p/emailaddress)}</p>`
		default:
			mix[i] = "for $b in " + auction + `/bidder return <b p="{$b/personref/@person}">{string($b/increase)}</b>`
		}
	}

	// run opens the directory with the given resident budget, warms up on the
	// head of the mix and keeps, per statement, the better of two passes.
	run := func(budget int64) (time.Duration, []string, error) {
		db, err := bench.OpenDBResident(dir, s.reg, budget)
		if err != nil {
			return 0, nil, err
		}
		defer db.Close()
		for _, src := range mix[:200] {
			if _, err := db.Query(src); err != nil {
				return 0, nil, fmt.Errorf("E22: %s: %w", src, err)
			}
		}
		lat, out := make([]time.Duration, len(mix)), make([]string, len(mix))
		for pass := 0; pass < 2; pass++ {
			for i, src := range mix {
				t0 := time.Now()
				res, err := db.Query(src)
				if err != nil {
					return 0, nil, fmt.Errorf("E22: %s: %w", src, err)
				}
				if d := time.Since(t0); pass == 0 || d < lat[i] {
					lat[i] = d
				}
				out[i] = res.Data
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)/2], out, nil
	}
	hits0 := s.reg.Counter("resident.hits").Value()
	residentP50, resOut, err := run(0)
	if err != nil {
		return 0, 0, err
	}
	if s.reg.Counter("resident.hits").Value() == hits0 {
		return 0, 0, fmt.Errorf("E22: the point-read mix never hit the resident cache")
	}
	hits0 = s.reg.Counter("resident.hits").Value()
	pagedP50, pagedOut, err := run(1)
	if err != nil {
		return 0, 0, err
	}
	if n := s.reg.Counter("resident.hits").Value() - hits0; n != 0 {
		return 0, 0, fmt.Errorf("E22: %d resident hits on the leg meant to be paged", n)
	}
	for i := range mix {
		if pagedOut[i] != resOut[i] {
			return 0, 0, fmt.Errorf("E22: resident result diverges for %s", mix[i])
		}
	}
	s.out.table([]string{"point-read mix (2000 statements)", "p50"}, [][]string{
		{"paged (resident budget 1 B)", dur(pagedP50)},
		{"resident", dur(residentP50)},
	})
	return pagedP50, residentP50, nil
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
