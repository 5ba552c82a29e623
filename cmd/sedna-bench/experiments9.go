package main

import (
	"fmt"
	"time"

	"sedna/internal/bench"
	"sedna/internal/xmlgen"
)

func init() {
	experiments = append(experiments,
		experiment{"E23", "cost-based optimizer: statistics-driven plans vs hand-forced execution (§5.1)", runE23},
	)
}

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

// runE23 measures the cost-based optimizer end to end. Corpus: four of the
// identity-test documents, value indexes on doc("cat")//item BY value and
// doc("biglib")/library/book BY year, statistics via ANALYZE. Gates:
//
//  1. regression — across the 33-query corpus the optimizer's total must be
//     within 1.1x of the hand-forced execution (optimizer off), plus a small
//     absolute slack for timer noise;
//  2. selective predicates — across e23Selective the optimizer (index
//     probes) must beat the forced scan by >= 2x in total;
//  3. identity — every query serializes byte-identically optimized and
//     unoptimized.
func runE23(s *session) error {
	dir, cleanup, err := bench.TempDir("sedna-e23-*")
	if err != nil {
		return err
	}
	defer cleanup()
	db, err := bench.OpenDBMetrics(dir, s.reg)
	if err != nil {
		return err
	}
	defer db.Close()
	docs := map[string]string{
		"cat":    xmlgen.SectionsString(8, 400*s.scale, 1),
		"biglib": xmlgen.LibraryString(120*s.scale, 2),
		"site":   xmlgen.AuctionString(30, 20, 3, 3),
		"deep":   xmlgen.DeepString(6, 4),
	}
	for name, content := range docs {
		if err := db.LoadXMLString(name, content); err != nil {
			return fmt.Errorf("E23: load %s: %w", name, err)
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

	const reps = 5
	// run times one query in one mode (average of reps after one warm-up
	// pass) and returns the serialized result.
	run := func(src string, optimize bool) (time.Duration, string, error) {
		out, _, err := bench.QueryOpt(db, src, optimize)
		if err != nil {
			return 0, "", err
		}
		d, err := timeIt(reps, func() error {
			r, _, err := bench.QueryOpt(db, src, optimize)
			if err == nil {
				out = r
			}
			return err
		})
		return d, out, err
	}

	measure := func(suite []string) (opt, forced []time.Duration, err error) {
		for _, src := range suite {
			so, ro, err := run(src, true)
			if err != nil {
				return nil, nil, err
			}
			sf, rf, err := run(src, false)
			if err != nil {
				return nil, nil, err
			}
			if ro != rf {
				return nil, nil, fmt.Errorf("E23: results diverge for %s", src)
			}
			opt, forced = append(opt, so), append(forced, sf)
		}
		return opt, forced, nil
	}

	opt, forced, err := measure(e23Corpus)
	if err != nil {
		return err
	}
	var rows [][]string
	for i, src := range e23Corpus {
		label := src
		if len(label) > 60 {
			label = label[:57] + "..."
		}
		rows = append(rows, []string{label, dur(opt[i]), dur(forced[i]), ratio(forced[i], opt[i])})
	}
	optTotal, forcedTotal := sum(opt), sum(forced)
	rows = append(rows, []string{"total", dur(optTotal), dur(forcedTotal), ratio(forcedTotal, optTotal)})
	s.out.table([]string{"query", "optimized", "forced", "forced/opt"}, rows)

	selOpt, selForced, err := measure(e23Selective)
	if err != nil {
		return err
	}
	var selRows [][]string
	for i, src := range e23Selective {
		selRows = append(selRows, []string{src, dur(selOpt[i]), dur(selForced[i]), ratio(selForced[i], selOpt[i])})
	}
	selOptTotal, selForcedTotal := sum(selOpt), sum(selForced)
	selRows = append(selRows, []string{"total", dur(selOptTotal), dur(selForcedTotal), ratio(selForcedTotal, selOptTotal)})
	s.out.table([]string{"selective query", "optimized", "forced scan", "speedup"}, selRows)

	m := s.reg.Snapshot()
	fmt.Printf("optimizer: plans_costed=%d index_chosen=%d index_probes=%d\n",
		m.Counters["opt.plans_costed"], m.Counters["opt.index_chosen"], m.Counters["opt.index_probes"])

	const slack = 5 * time.Millisecond
	if optTotal > forcedTotal+forcedTotal/10+slack {
		return fmt.Errorf("E23: optimizer total %v exceeds 1.1x hand-forced total %v", optTotal, forcedTotal)
	}
	if selOptTotal*2 > selForcedTotal {
		return fmt.Errorf("E23: selective-predicate speedup %.2fx below the 2x gate",
			float64(selForcedTotal)/float64(selOptTotal))
	}
	if m.Counters["opt.index_probes"] == 0 {
		return fmt.Errorf("E23: no index probe executed — the optimizer never chose an index")
	}
	return nil
}
