package main

import (
	"fmt"
	"time"

	"sedna/internal/bench"
	"sedna/internal/query"
	"sedna/internal/xmlgen"
)

// e23Corpus is the first part of the identity test corpus (33 queries over
// four documents — multi-schema-node scans, predicates, FLWORs, aggregates,
// deep recursion), duplicated here so the benchmark and the in-tree tests
// gate the same shapes.
var e23Corpus = []string{
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
	`count(doc("biglib")//author)`,
	`doc("biglib")//book[year = 1999]/title`,
	`data(doc("biglib")//publisher)`,
	`count(doc("biglib")//issue/year)`,
	`for $b in doc("biglib")/library/book where count($b/author) > 2 return $b/title/text()`,
	`for $p in doc("biglib")/library/paper order by $p/title return string($p/title)`,
	`for $a in doc("biglib")//author order by $a return string($a)`,
	`count(doc("site")//bidder)`,
	`data(doc("site")//current)`,
	`doc("site")//person[profile/age > 60]/name`,
	`for $a in doc("site")//open_auction where number($a/current) > 4000 return string($a/initial)`,
	`sum(for $b in doc("site")//increase return number($b))`,
	`count(doc("site")//item)`,
	`count(doc("deep")//n0)`,
	`count(doc("deep")//n2)`,
	`data(doc("deep")/root/n0/n0/n1)`,
}

// e23Selective is the selective-predicate suite: equality predicates over
// the indexed columns, where the optimizer's index probe should beat a full
// structural scan by a wide margin.
var e23Selective = []string{
	`count(doc("cat")//item[value = 4201])`,
	`doc("cat")//item[value = 777]/name`,
	`count(doc("cat")//item[value = 9999])`,
	`doc("cat")//item[value = 123]/note/text()`,
	`count(doc("biglib")/library/book[year = 1999])`,
}

// e23CorpusPages bounds the optimized plans' page views over the corpus as a
// multiple of the forced plans'. Measured 0.99–1.50 over ten runs: the plan of
// doc("cat")//item[value > 9000] flips between the scan and a range probe,
// whose estimated costs lie close together, and the probe
// views 575 pages against the scan's 99, one per candidate, in less time.
// 1.50 plus a quarter.
const e23CorpusPages = 1.9

// e23SelectivePages bounds the forced scans' page views over e23Selective as
// a multiple of the optimized plans': measured 11.0 (341 against 31), less a
// quarter, rounded down.
const e23SelectivePages = 8.0

// runE23 measures the cost-based optimizer end to end. Corpus: four of the
// identity-test documents, value indexes on doc("cat")//item BY value and
// doc("biglib")/library/book BY year, statistics via ANALYZE. Every query runs
// optimized and forced (optimizer off); the gates are on what the two modes
// count, not on what they time:
//
//  1. regression — over the 33-query corpus the optimized plans view at most
//     e23CorpusPages times the forced plans' pages;
//  2. selective predicates — over e23Selective the forced scans view at least
//     e23SelectivePages times the optimized plans' pages, and every optimized
//     statement runs at least one index probe (opt.index_probes);
//  3. identity — every query serializes byte-identically in both modes.
//
// Times (average of reps after one warm-up pass) are printed, not gated.
func runE23(s *session) error {
	dir, cleanup, err := bench.TempDir("sedna-e23-*")
	if err != nil {
		return err
	}
	defer cleanup()
	db, err := bench.OpenDB(dir)
	if err != nil {
		return err
	}
	defer db.Close()
	docs := []struct{ name, content string }{
		{"cat", xmlgen.SectionsString(8, 400*s.scale, 1)},
		{"biglib", xmlgen.LibraryString(120*s.scale, 2)},
		{"site", xmlgen.AuctionString(30, 20, 3, 3)},
		{"deep", xmlgen.DeepString(6, 4)},
	}
	for _, d := range docs {
		if err := db.LoadXMLString(d.name, d.content); err != nil {
			return fmt.Errorf("E23: load %s: %w", d.name, err)
		}
	}
	setup := []string{
		`CREATE INDEX "e23_value" ON doc("cat")//item BY value AS number`,
		`CREATE INDEX "e23_year" ON doc("biglib")/library/book BY year AS number`,
		`ANALYZE doc("cat")`,
		`ANALYZE doc("biglib")`,
		`ANALYZE doc("site")`,
		`ANALYZE doc("deep")`,
	}
	for _, stmt := range setup {
		if _, err := db.Execute(stmt); err != nil {
			return fmt.Errorf("E23: %s: %w", stmt, err)
		}
	}

	probes := db.Metrics().Counter("opt.index_probes")
	type cost struct {
		time          time.Duration
		pages, probes uint64
	}
	// run measures one query in one mode: one counted pass, whose page views
	// and index probes are the statement's, then the average time of reps.
	const reps = 5
	run := func(src string, baseline func(*query.ExecCtx)) (cost, string, error) {
		p0 := probes.Value()
		out, prof, err := bench.Query(db.Internal(), src, baseline)
		if err != nil {
			return cost{}, "", err
		}
		c := cost{pages: prof.PagesTouched, probes: probes.Value() - p0}
		c.time, err = timeIt(reps, func() error {
			_, _, err := bench.Query(db.Internal(), src, baseline)
			return err
		})
		return c, out, err
	}
	// measure runs a suite in both modes, prints one row per query and the
	// totals, and returns the totals and the fewest index probes an
	// optimized statement ran.
	measure := func(suite []string, title string) (opt, forced cost, minProbes uint64, err error) {
		var rows [][]string
		for i, src := range suite {
			o, ro, err := run(src, nil)
			if err != nil {
				return cost{}, cost{}, 0, err
			}
			f, rf, err := run(src, noOpt)
			if err != nil {
				return cost{}, cost{}, 0, err
			}
			if ro != rf {
				return cost{}, cost{}, 0, fmt.Errorf("E23: results diverge for %s", src)
			}
			if i == 0 || o.probes < minProbes {
				minProbes = o.probes
			}
			if len(src) > 60 {
				src = src[:57] + "..."
			}
			rows = append(rows, []string{src, fmt.Sprint(o.pages), fmt.Sprint(f.pages), fmt.Sprint(o.probes), dur(o.time), dur(f.time)})
			opt.time, opt.pages, opt.probes = opt.time+o.time, opt.pages+o.pages, opt.probes+o.probes
			forced.time, forced.pages, forced.probes = forced.time+f.time, forced.pages+f.pages, forced.probes+f.probes
		}
		rows = append(rows, []string{"total", fmt.Sprint(opt.pages), fmt.Sprint(forced.pages), fmt.Sprint(opt.probes), dur(opt.time), dur(forced.time)})
		table([]string{title, "pages optimized", "pages forced", "index probes", "time optimized", "time forced"}, rows)
		return opt, forced, minProbes, nil
	}

	opt, forced, _, err := measure(e23Corpus, "query")
	if err != nil {
		return err
	}
	selOpt, selForced, selProbes, err := measure(e23Selective, "selective query")
	if err != nil {
		return err
	}
	corpusRatio := float64(opt.pages) / float64(forced.pages)
	selRatio := float64(selForced.pages) / float64(selOpt.pages)
	fmt.Printf("page views: corpus optimized/forced %.2f, selective forced/optimized %.1f; index probes per selective statement %.1f optimized, %.1f forced; time ratios %.2f and %.1f (printed, not gated)\n",
		corpusRatio, selRatio,
		float64(selOpt.probes)/float64(len(e23Selective)), float64(selForced.probes)/float64(len(e23Selective)),
		float64(opt.time)/float64(forced.time), float64(selForced.time)/float64(selOpt.time))

	if corpusRatio > e23CorpusPages {
		return fmt.Errorf("E23: optimized plans view %d pages over the corpus, %.2fx the forced plans' %d, bound %.1fx", opt.pages, corpusRatio, forced.pages, e23CorpusPages)
	}
	if selRatio < e23SelectivePages {
		return fmt.Errorf("E23: forced scans view %.1fx the optimized plans' pages on the selective suite (%d vs %d), bound %.0fx", selRatio, selForced.pages, selOpt.pages, e23SelectivePages)
	}
	if selProbes == 0 {
		return fmt.Errorf("E23: an optimized selective statement ran no index probe")
	}
	return nil
}
