package main

import (
	"fmt"
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
// better of two 15-rep averages) latencies, with byte-identity checked on every run — including after an
// update invalidates the resident copy and forces a rebuild. Both backends
// start every step at the context node, so what the resident arrays save is
// the page lookup, descriptor decode and allocation per node: a small
// constant. The gate is that constant on the suite total, warm resident at
// least 1.5x faster than warm paged; the per-query ratios are sub-millisecond
// quotients and are printed, not gated. The paged cost itself is E26's to
// guard.
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
	// measure reopens the directory and times every suite query cold (first
	// run after open) and warm (averaged steady state), returning the warm
	// result strings for byte-identity checks.
	measure := func(resident bool) (cold, warm []time.Duration, results []string, err error) {
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
		builds := s.reg.Counter("resident.builds").Value()
		res, err := db.Query(src)
		if err != nil {
			return err
		}
		if s.reg.Counter("resident.builds").Value() != builds+1 {
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
	fmt.Println("expected shape: warm steps over the resident arrays beat warm paged steps by a small constant, about 2x (an array index versus a page lookup and a descriptor decode per node; both start at the context node); the resident cold run pays the one-off build; every run, including after update-invalidate-rebuild, serializes byte-identically")
	if snap.Counters["resident.hits"] == 0 {
		return fmt.Errorf("E22: resident cache never hit")
	}
	if sp := float64(pagedTotal) / float64(resTotal); sp < 1.5 {
		return fmt.Errorf("E22: warm resident speedup %.2fx below the 1.5x bound", sp)
	}
	return nil
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
