package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"sedna"
	"sedna/internal/bench"
	"sedna/internal/query"
)

func init() {
	experiments = append(experiments,
		experiment{"E26", "paged value predicates: cost per context node as the document grows (§4.1)", runE26},
	)
}

// e26Suite compares a stored element's value under every context node of a
// step: each comparison atomizes the element, which opens a range scan for
// its text below that node. Every statement has one context node per person
// (the generator makes as many items and auctions as people).
var e26Suite = []string{
	`count(doc("auction")//item[quantity > 5])`,
	`doc("auction")//person[profile/age > 40]/name`,
	`for $a in doc("auction")/site/open_auctions/open_auction where $a/current > 4900 return string($a/@id)`,
}

// e26PagesPerNode bounds the page views per context node. A node costs about
// three: its share of the outer scan's run (a run of descriptors on one page
// is one view), the compared child's run (which also sees where the child's
// list leaves the node), the child's text node, and the text record —
// measured 3.16 on the smallest document, plus a quarter.
const e26PagesPerNode = 4

// e26AllocsPerNode bounds the heap allocations per context node: the compared
// string (not every node has one), a FLWOR's variable binding, and for the
// nodes that pass their share of the result — measured 2.21 on the smallest
// document, plus a quarter. The nodes themselves are slab entries and
// allocate nothing.
const e26AllocsPerNode = 2.8

// runE26 guards the paged backend's cost per context node. It runs the suite
// over Auction documents of 500, 2000 and 8000 people, serially, so that
// neither the time nor the counts of a statement are spread over worker
// contexts, and reports time, page views and heap allocations per context
// node. Opening a range scan under a node must not depend on how long the
// target's block list is, so the cost per node has to stay flat. The gates are
// on what the experiment counts: page views (exact) and allocations grow less
// than 1.5x from the smallest document to the largest and are bounded
// outright, at e26PagesPerNode and e26AllocsPerNode, because a start that
// searched only the last block of a list would grow slowly and still cost a
// hundred descriptor reads per node. The growth of the time per node (best of
// 7 runs) is printed, not gated: wall-clock ratios on a shared VM fail for
// reasons that are not the engine's. Every answer must equal the resident
// backend's.
func runE26(s *session) error {
	sizes := []int{500, 2000, 8000}
	type row struct {
		people int
		times  []time.Duration
		pages  uint64
		allocs uint64
	}
	rows := make([]row, len(sizes))
	dirs := make([]string, len(sizes))
	dbs := make([]*sedna.DB, len(sizes))
	answers := make([][]string, len(sizes))
	closeAll := func() {
		for _, db := range dbs {
			if db != nil {
				db.Close()
			}
		}
	}
	for i, people := range sizes {
		dir, cleanup, err := bench.TempDir("sedna-e26-*")
		if err != nil {
			closeAll()
			return err
		}
		defer cleanup()
		if dbs[i], err = bench.OpenDBMetrics(dir, s.reg); err == nil {
			err = bench.LoadAuction(dbs[i], people, people, 2)
		}
		if err != nil {
			closeAll()
			return err
		}
		dirs[i] = dir
		rows[i] = row{people: people, times: make([]time.Duration, len(e26Suite))}
		answers[i] = make([]string, len(e26Suite))
	}
	// The sizes take turns inside every repetition, so a burst of machine
	// noise slows all of them and not the ratio between them.
	for rep := 0; rep < 7; rep++ {
		for i := range sizes {
			for q, src := range e26Suite {
				var before, after runtime.MemStats
				if rep == 1 { // warm, and before the timing repetitions that matter
					runtime.ReadMemStats(&before)
				}
				start := time.Now()
				data, pages, err := e26Serial(dbs[i], src)
				if err != nil {
					closeAll()
					return err
				}
				if d := time.Since(start); rep == 0 || d < rows[i].times[q] {
					rows[i].times[q] = d
				}
				switch rep {
				case 0:
					answers[i][q] = data
					rows[i].pages += pages
				case 1:
					runtime.ReadMemStats(&after)
					rows[i].allocs += after.Mallocs - before.Mallocs
				}
			}
		}
	}
	for i, db := range dbs {
		dbs[i] = nil
		if err := db.Close(); err != nil {
			closeAll()
			return err
		}
	}
	for i, people := range sizes {
		res, err := bench.OpenDBResident(dirs[i], s.reg, 0)
		if err != nil {
			return err
		}
		for q, src := range e26Suite {
			got, err := res.Query(src)
			if err != nil {
				res.Close()
				return err
			}
			if got.Data != answers[i][q] {
				res.Close()
				return fmt.Errorf("E26: paged answer differs from resident at %d people for %s", people, src)
			}
		}
		if !res.Internal().ResidentCache().Contains("auction") {
			res.Close()
			return fmt.Errorf("E26: the %d-person document did not go resident; answers were compared paged to paged", people)
		}
		if err := res.Close(); err != nil {
			return err
		}
	}

	perNode := func(r row) (t time.Duration, pages, allocs float64) {
		nodes := len(e26Suite) * r.people
		return sum(r.times) / time.Duration(nodes), float64(r.pages) / float64(nodes), float64(r.allocs) / float64(nodes)
	}
	var table [][]string
	for _, r := range rows {
		t, p, a := perNode(r)
		cells := []string{fmt.Sprint(r.people)}
		for _, d := range r.times {
			cells = append(cells, dur(d))
		}
		table = append(table, append(cells, fmt.Sprintf("%.2fµs", float64(t.Nanoseconds())/1000), fmt.Sprintf("%.2f", p), fmt.Sprintf("%.2f", a)))
	}
	s.out.table([]string{"people", "item[quantity > N]", "person[profile/age > N]", "where $a/current > N", "time / context node", "pages / context node", "allocations / context node"}, table)
	t0, p0, a0 := perNode(rows[0])
	t1, p1, a1 := perNode(rows[len(rows)-1])
	fmt.Printf("time per context node grew %.2fx from %d to %d people (printed, not gated)\n", float64(t1)/float64(t0), sizes[0], sizes[len(sizes)-1])
	fmt.Println("expected shape: the three statements cost the same per context node at every document size — a range scan under a node starts from the node's own child pointers, so a list 16 times as long makes it no dearer; a node is a slab entry, so what a statement allocates per node is the string it compares; the answers equal the resident backend's")

	for _, r := range rows {
		_, p, a := perNode(r)
		if p > e26PagesPerNode {
			return fmt.Errorf("E26: %.2f page views per context node at %d people, bound %d", p, r.people, e26PagesPerNode)
		}
		if a > e26AllocsPerNode {
			return fmt.Errorf("E26: %.2f allocations per context node at %d people, bound %.1f", a, r.people, e26AllocsPerNode)
		}
	}
	if g := p1 / p0; g >= 1.5 {
		return fmt.Errorf("E26: pages per context node grew %.2fx from %d to %d people (%.2f → %.2f), bound 1.5x", g, sizes[0], sizes[len(sizes)-1], p0, p1)
	}
	if g := a1 / a0; g >= 1.5 {
		return fmt.Errorf("E26: allocations per context node grew %.2fx from %d to %d people (%.2f → %.2f), bound 1.5x", g, sizes[0], sizes[len(sizes)-1], a0, a1)
	}
	return nil
}

// e26Serial runs one statement on a single worker and returns its serialized
// answer and the page accesses it made.
func e26Serial(db *sedna.DB, src string) (string, uint64, error) {
	tx, err := db.Internal().BeginReadOnly()
	if err != nil {
		return "", 0, err
	}
	defer tx.Rollback()
	ctx := query.NewExecCtx(tx)
	ctx.Workers = 1
	res, err := query.Execute(ctx, src)
	if err != nil {
		return "", 0, err
	}
	var sb strings.Builder
	if err := res.Serialize(&sb); err != nil {
		return "", 0, err
	}
	return sb.String(), ctx.Profile.PagesTouched, nil
}
