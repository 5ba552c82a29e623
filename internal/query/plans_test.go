package query

import (
	"strings"
	"testing"

	"sedna/internal/core"
	"sedna/internal/schema"
	"sedna/internal/xmlgen"
)

// planCorpus is the part of the identity corpus over the four documents of
// plansDB: multi-schema-node scans, predicates, FLWORs, aggregates and deep
// recursion.
var planCorpus = corpusQueries[:33:33]

// planSelective is the selective-predicate suite: equality predicates over
// the indexed columns, where the index probe should beat a full structural
// scan by a wide margin.
var planSelective = []string{
	`count(doc("cat")//item[value = 4201])`,
	`doc("cat")//item[value = 777]/name`,
	`count(doc("cat")//item[value = 9999])`,
	`doc("cat")//item[value = 123]/note/text()`,
	`count(doc("biglib")/library/book[year = 1999])`,
}

// plansCorpusPages bounds the optimized plans' page views over planCorpus as
// a multiple of the forced plans'. Measured 1.00 (974 against 974) once a
// probe candidate was priced at the page view it costs, plus a quarter.
// Before, the range probe of doc("cat")//item[value > 9000] was costed under
// the scan and chosen, and viewed 575 pages against the scan's 99: the ratio
// read 1.49.
const plansCorpusPages = 1.25

// plansRangeScan is a range predicate matching about a tenth of the items:
// one page view per probe candidate costs more than the scan of the whole
// list, so the optimizer must keep the scan.
const plansRangeScan = `doc("cat")//item[value > 9000]`

// plansSelectivePages bounds the forced scans' page views over planSelective
// as a multiple of the optimized plans': measured 11.0 (341 against 31),
// less a quarter, rounded down.
const plansSelectivePages = 8.0

// plansDB opens a database holding the four documents the plan gates read:
// an 8-section catalog of 400 items each (//item merges 8 schema nodes), a
// scaled library, an auction site and a deep narrow tree, with value indexes
// on doc("cat")//item BY value and doc("biglib")/library/book BY year, and
// statistics on all four.
func plansDB(t *testing.T) *core.Database {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true, BufferPages: 8192})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	docs := []struct{ name, content string }{
		{"cat", xmlgen.SectionsString(8, 400, 1)},
		{"biglib", xmlgen.LibraryString(120, 2)},
		{"site", xmlgen.AuctionString(30, 20, 3, 3)},
		{"deep", xmlgen.DeepString(6, 4)},
	}
	for _, d := range docs {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.LoadXML(d.name, strings.NewReader(d.content)); err != nil {
			t.Fatalf("load %s: %v", d.name, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	upd(t, db, `CREATE INDEX "plans_value" ON doc("cat")//item BY value AS number`)
	upd(t, db, `CREATE INDEX "plans_year" ON doc("biglib")/library/book BY year AS number`)
	for _, d := range docs {
		upd(t, db, `ANALYZE doc("`+d.name+`")`)
	}
	return db
}

// planCost is what one statement counted in one mode.
type planCost struct{ pages, probes uint64 }

// runPlan runs one statement in a read-only transaction, optimized or with
// the optimizer off, and returns its answer, its page views and the index
// probes it ran.
func runPlan(t *testing.T, db *core.Database, src string, noopt bool) (string, planCost) {
	t.Helper()
	probes := db.Metrics().Counter("opt.index_probes")
	p0 := probes.Value()
	tx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	ctx := NewExecCtx(tx)
	ctx.NoOpt = noopt
	res, err := Execute(ctx, src)
	if err != nil {
		t.Fatalf("%s (noopt=%v): %v", src, noopt, err)
	}
	out, err := res.String()
	if err != nil {
		t.Fatal(err)
	}
	return out, planCost{pages: ctx.Profile.PagesTouched, probes: probes.Value() - p0}
}

// TestOptimizerAgainstForcedPlans runs every statement of planCorpus and
// planSelective optimized and forced (optimizer off) and gates on what the
// two modes count:
//
//  1. regression: over planCorpus the optimized plans view at most
//     plansCorpusPages times the forced plans' pages;
//  2. selective predicates: over planSelective the forced scans view at
//     least plansSelectivePages times the optimized plans' pages, and every
//     optimized statement runs at least one index probe;
//  3. identity: every statement serializes byte-identically in both modes;
//  4. EXPLAIN of plansRangeScan chooses the structural scan.
func TestOptimizerAgainstForcedPlans(t *testing.T) {
	db := plansDB(t)
	if out := q(t, db, "EXPLAIN "+plansRangeScan); !strings.Contains(out, "plan="+planScan) || strings.Contains(out, "plan="+planProbe) {
		t.Errorf("EXPLAIN %s does not choose the structural scan:\n%s", plansRangeScan, out)
	}
	measure := func(suite []string, selective bool) (opt, forced planCost) {
		for _, src := range suite {
			ro, o := runPlan(t, db, src, false)
			rf, f := runPlan(t, db, src, true)
			if ro != rf {
				t.Errorf("answers diverge for %s\noptimized: %.200s\n   forced: %.200s", src, ro, rf)
			}
			if selective && o.probes == 0 {
				t.Errorf("optimized %s ran no index probe", src)
			}
			opt.pages, opt.probes = opt.pages+o.pages, opt.probes+o.probes
			forced.pages, forced.probes = forced.pages+f.pages, forced.probes+f.probes
		}
		return opt, forced
	}
	opt, forced := measure(planCorpus, false)
	ratio := float64(opt.pages) / float64(forced.pages)
	t.Logf("corpus: %d pages optimized, %d forced (%.2fx)", opt.pages, forced.pages, ratio)
	if ratio > plansCorpusPages {
		t.Errorf("optimized plans view %d pages over the corpus, %.2fx the forced plans' %d, bound %.2fx",
			opt.pages, ratio, forced.pages, plansCorpusPages)
	}
	selOpt, selForced := measure(planSelective, true)
	selRatio := float64(selForced.pages) / float64(selOpt.pages)
	t.Logf("selective: %d pages optimized, %d forced (%.1fx), %d index probes", selOpt.pages, selForced.pages, selRatio, selOpt.probes)
	if selRatio < plansSelectivePages {
		t.Errorf("forced scans view %.1fx the optimized plans' pages on the selective suite (%d vs %d), bound %.0fx",
			selRatio, selForced.pages, selOpt.pages, plansSelectivePages)
	}
}

// TestResolveStructuralAllocatesOnlyItsResult: resolving a three-step child
// chain from one start node allocates once, for the slice plans keep; the
// step buffers do not escape (before, the start nodes were copied to the
// heap and the step buffer grew from empty: 2 allocations).
func TestResolveStructuralAllocatesOnlyItsResult(t *testing.T) {
	sc := schema.New()
	lib, _ := sc.EnsureChild(sc.Root, schema.KindElement, "library")
	book, _ := sc.EnsureChild(lib, schema.KindElement, "book")
	sc.EnsureChild(book, schema.KindElement, "author")
	title, _ := sc.EnsureChild(book, schema.KindElement, "title")
	var steps []*Step
	for _, name := range []string{"library", "book", "title"} {
		steps = append(steps, &Step{Axis: AxisChild, Test: NodeTest{Kind: TestElement, Name: name}})
	}
	var got []*schema.Node
	allocs := testing.AllocsPerRun(100, func() { got = resolveStructural(steps, sc.Root) })
	if len(got) != 1 || got[0] != title {
		t.Fatalf("resolved %v, want the title schema node", got)
	}
	if allocs != 1 {
		t.Fatalf("%.1f allocations per resolution, want 1", allocs)
	}
}

// TestPlansAreDeterministic: a statement parsed and planned afresh gets the
// same plan every time, so EXPLAIN prints one text for it. (The optimizer
// once read the targets of a multi-schema-node step in map order and costed
// a predicate from whichever target came first.)
func TestPlansAreDeterministic(t *testing.T) {
	db := plansDB(t)
	for _, src := range append(planCorpus, planSelective...) {
		first := q(t, db, "EXPLAIN "+src)
		for i := 1; i < 20; i++ {
			if got := q(t, db, "EXPLAIN "+src); got != first {
				t.Errorf("EXPLAIN %s differs between two parses:\n%s\n---\n%s", src, first, got)
				break
			}
		}
	}
}
