package main

import (
	"fmt"
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

// e26PagesPerNode bounds the page accesses per context node. A node costs
// about six: its own descriptor from the outer scan, the compared child and a
// peek at that child's list neighbour, the child's text node, the text record,
// and the step that finds the range's end.
const e26PagesPerNode = 10

// runE26 guards the paged backend's cost per context node. It runs the suite
// over Auction documents of 500, 2000 and 8000 people, serially, so that
// neither the time nor the page count of a statement is spread over worker
// contexts, and reports both per context node. Opening a range scan under a
// node must not depend on how long the target's block list is, so the cost
// per node has to stay flat: the gate is less than 1.5x growth from the
// smallest document to the largest, on time (best of 7 runs) and on page
// accesses (exact). The page accesses are also bounded outright, at
// e26PagesPerNode, because a start that searched only the last block of a
// list would grow slowly and still cost a hundred descriptor reads per node.
// Every answer must equal the resident backend's.
func runE26(s *session) error {
	sizes := []int{500, 2000, 8000}
	type row struct {
		people int
		times  []time.Duration
		pages  uint64
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
				start := time.Now()
				data, pages, err := e26Serial(dbs[i], src)
				if err != nil {
					closeAll()
					return err
				}
				if d := time.Since(start); rep == 0 || d < rows[i].times[q] {
					rows[i].times[q] = d
				}
				if rep == 0 {
					answers[i][q] = data
					rows[i].pages += pages
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

	perNode := func(r row) (time.Duration, float64) {
		nodes := len(e26Suite) * r.people
		return sum(r.times) / time.Duration(nodes), float64(r.pages) / float64(nodes)
	}
	var table [][]string
	for _, r := range rows {
		t, p := perNode(r)
		cells := []string{fmt.Sprint(r.people)}
		for _, d := range r.times {
			cells = append(cells, dur(d))
		}
		table = append(table, append(cells, fmt.Sprintf("%.2fµs", float64(t.Nanoseconds())/1000), fmt.Sprintf("%.2f", p)))
	}
	s.out.table([]string{"people", "item[quantity > N]", "person[profile/age > N]", "where $a/current > N", "time / context node", "pages / context node"}, table)
	fmt.Println("expected shape: the three statements cost the same per context node at every document size — a range scan under a node starts from the node's own child pointers, so a list 16 times as long makes it no dearer; the answers equal the resident backend's")

	for _, r := range rows {
		if _, p := perNode(r); p > e26PagesPerNode {
			return fmt.Errorf("E26: %.2f page accesses per context node at %d people, bound %d", p, r.people, e26PagesPerNode)
		}
	}
	t0, p0 := perNode(rows[0])
	t1, p1 := perNode(rows[len(rows)-1])
	if g := p1 / p0; g >= 1.5 {
		return fmt.Errorf("E26: pages per context node grew %.2fx from %d to %d people (%.2f → %.2f), bound 1.5x", g, sizes[0], sizes[len(sizes)-1], p0, p1)
	}
	if g := float64(t1) / float64(t0); g >= 1.5 {
		return fmt.Errorf("E26: time per context node grew %.2fx from %d to %d people (%v → %v), bound 1.5x", g, sizes[0], sizes[len(sizes)-1], t0, t1)
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
