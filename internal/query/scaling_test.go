package query

import (
	"encoding/xml"
	"io"
	"strconv"
	"strings"
	"testing"

	"sedna/internal/core"
	"sedna/internal/xmlgen"
)

// predicateSuite compares a stored element's value under every context node
// of a step: each comparison atomizes the element, which opens a range scan
// for its text below that node. Every statement has one context node per
// person (the generator makes as many items and auctions as people).
var predicateSuite = []string{
	`count(doc("auction")//item[quantity > 5])`,
	`doc("auction")//person[profile/age > 40]/name`,
	`for $a in doc("auction")/site/open_auctions/open_auction where $a/current > 4900 return string($a/@id)`,
}

// predicateDescent compares a value below a descendant step under every
// person. Such a comparison is not read in place, so each context node opens
// a range scan that storage.FirstInRange starts by descending from the node's
// own child pointers; the suite's child paths never reach it. It is held to
// the suite's bounds on page views per context node.
const predicateDescent = `count(doc("auction")//person[.//age > 40])`

// predicatePagesPerNode bounds the page views per context node. A node reads
// about four pages — its share of the outer scan's run (a run of descriptors
// on one page is one view), the compared child's run, the child's text node,
// and the text record — but the statement holds its last views, and those
// pages change slowly from one node to the next. Measured 0.72 on the
// smallest document when the bound was set, plus a quarter (0.41 now).
const predicatePagesPerNode = 0.9

// predicateAllocsPerNode bounds the heap allocations per context node: the
// compared string (not every node has one), a FLWOR's variable binding, and
// for the nodes that pass their share of the result — measured 2.21 on the
// smallest document when the bound was set, plus a quarter (1.60 now). The
// nodes themselves are slab entries and allocate nothing.
const predicateAllocsPerNode = 2.8

// predicateGrowth bounds how much the page views and the allocations per
// context node may grow from the smallest document to the largest, 16 times
// its size.
const predicateGrowth = 1.5

// predicateCost is what predicateSuite counted over one document.
type predicateCost struct {
	people        int
	pages         []uint64 // per statement, first run
	allocs        float64  // whole suite, one warm run
	descentPages  uint64   // predicateDescent
	answers, want []string // predicateSuite, then predicateDescent
}

func (c predicateCost) perNode() (pages, allocs float64) {
	var p uint64
	for _, n := range c.pages {
		p += n
	}
	nodes := float64(len(predicateSuite) * c.people)
	return float64(p) / nodes, c.allocs / nodes
}

// measurePredicates loads an Auction document of the given number of people
// (and as many items and auctions) and runs predicateSuite over it once for
// the answers and the page views, then again for the allocations of a warm
// run; predicateDescent once, for its answer and page views.
func measurePredicates(t *testing.T, people int) predicateCost {
	t.Helper()
	content := xmlgen.AuctionString(people, people, 2, 42)
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true, BufferPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LoadXML("auction", strings.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c := predicateCost{people: people}
	if c.want, err = predicateOracle(content); err != nil {
		t.Fatal(err)
	}
	run := func(src string) (string, uint64) {
		rtx, err := db.BeginReadOnly()
		if err != nil {
			t.Fatal(err)
		}
		defer rtx.Rollback()
		ctx := NewExecCtx(rtx)
		res, err := Execute(ctx, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		var sb strings.Builder
		if err := res.Serialize(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String(), ctx.Profile.PagesTouched
	}
	for _, src := range predicateSuite {
		out, pages := run(src)
		c.answers, c.pages = append(c.answers, out), append(c.pages, pages)
		c.allocs += testing.AllocsPerRun(1, func() { run(src) })
	}
	out, pages := run(predicateDescent)
	c.answers, c.descentPages = append(c.answers, out), pages
	return c
}

// TestValuePredicateScalesLinearly guards the per-context-node cost of a
// paged step: comparing a stored element atomizes it, which opens a range
// scan under every context node, and opening one must not depend on how
// long the target's block list is. It runs predicateSuite over documents of
// 500, 2000 and 8000 people. At every size a context node costs at most
// predicatePagesPerNode page views and predicateAllocsPerNode allocations,
// and both grow less than predicateGrowth times from the smallest document
// to the largest: a start that searched only the last block of a list would
// grow slowly and still cost a hundred descriptor reads per node. Four times
// the items may make the //item statement view four times the pages (plus
// slack for the longer lists' block headers), not sixteen. predicateDescent
// is held to the same page views per context node and the same growth.
// Every answer equals predicateOracle's, computed from the generated XML by
// encoding/xml.
func TestValuePredicateScalesLinearly(t *testing.T) {
	var costs []predicateCost
	for _, people := range []int{500, 2000, 8000} {
		c := measurePredicates(t, people)
		for i, src := range append(predicateSuite, predicateDescent) {
			if c.answers[i] != c.want[i] {
				t.Fatalf("%s at %d people answers %.80q, the XML says %.80q", src, people, c.answers[i], c.want[i])
			}
		}
		pages, allocs := c.perNode()
		descent := float64(c.descentPages) / float64(people)
		t.Logf("%d people: %.2f page views, %.2f allocations per context node; %.2f page views per person below a descendant step", people, pages, allocs, descent)
		if pages > predicatePagesPerNode {
			t.Errorf("%.2f page views per context node at %d people, bound %.2f", pages, people, predicatePagesPerNode)
		}
		if descent > predicatePagesPerNode {
			t.Errorf("%s: %.2f page views per context node at %d people, bound %.2f", predicateDescent, descent, people, predicatePagesPerNode)
		}
		if allocs > predicateAllocsPerNode {
			t.Errorf("%.2f allocations per context node at %d people, bound %.1f", allocs, people, predicateAllocsPerNode)
		}
		costs = append(costs, c)
	}
	first, last := costs[0], costs[len(costs)-1]
	p0, a0 := first.perNode()
	p1, a1 := last.perNode()
	if g := p1 / p0; g >= predicateGrowth {
		t.Errorf("page views per context node grew %.2fx from %d to %d people (%.2f → %.2f), bound %.1fx", g, first.people, last.people, p0, p1, predicateGrowth)
	}
	if g := a1 / a0; g >= predicateGrowth {
		t.Errorf("allocations per context node grew %.2fx from %d to %d people (%.2f → %.2f), bound %.1fx", g, first.people, last.people, a0, a1, predicateGrowth)
	}
	d0 := float64(first.descentPages) / float64(first.people)
	d1 := float64(last.descentPages) / float64(last.people)
	if g := d1 / d0; g >= predicateGrowth {
		t.Errorf("%s: page views per context node grew %.2fx from %d to %d people (%.2f → %.2f), bound %.1fx", predicateDescent, g, first.people, last.people, d0, d1, predicateGrowth)
	}
	small, large := costs[0].pages[0], costs[1].pages[0]
	if float64(large) > 4.5*float64(small) {
		t.Errorf("4x the items made %s view %.2fx the pages (%d → %d), want ≤ 4.5x", predicateSuite[0], float64(large)/float64(small), small, large)
	}
}

// oracleElem is an element of the generated document as encoding/xml reads
// it.
type oracleElem struct {
	name  string
	attrs []xml.Attr
	kids  []*oracleElem
	text  string // the element's own character data
}

func (e *oracleElem) child(name string) []*oracleElem {
	var out []*oracleElem
	for _, k := range e.kids {
		if k.name == name {
			out = append(out, k)
		}
	}
	return out
}

// greater is the general comparison path > n: some element on the path holds
// a number above n.
func (e *oracleElem) greater(n float64, path ...string) bool {
	if len(path) == 0 {
		f, err := strconv.ParseFloat(strings.TrimSpace(e.text), 64)
		return err == nil && f > n
	}
	for _, k := range e.child(path[0]) {
		if k.greater(n, path[1:]...) {
			return true
		}
	}
	return false
}

// predicateOracle answers predicateSuite, then predicateDescent, from the
// generated XML without the engine.
func predicateOracle(doc string) ([]string, error) {
	root := &oracleElem{}
	stack := []*oracleElem{root}
	dec := xml.NewDecoder(strings.NewReader(doc))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		top := stack[len(stack)-1]
		switch t := tok.(type) {
		case xml.StartElement:
			el := &oracleElem{name: t.Name.Local, attrs: t.Attr}
			top.kids = append(top.kids, el)
			stack = append(stack, el)
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		case xml.CharData:
			top.text += string(t)
		}
	}
	var items, people []*oracleElem
	var walk func(e *oracleElem)
	walk = func(e *oracleElem) {
		switch e.name {
		case "item":
			items = append(items, e)
		case "person":
			people = append(people, e)
		}
		for _, k := range e.kids {
			walk(k)
		}
	}
	walk(root)

	count := 0
	for _, it := range items {
		if it.greater(5, "quantity") {
			count++
		}
	}
	var names strings.Builder
	older := 0 // every age is a profile's child
	for _, p := range people {
		if p.greater(40, "profile", "age") {
			older++
			for _, n := range p.child("name") {
				names.WriteString("<name>")
				xml.EscapeText(&names, []byte(n.text))
				names.WriteString("</name>")
			}
		}
	}
	var ids []string
	for _, site := range root.child("site") {
		for _, oa := range site.child("open_auctions") {
			for _, a := range oa.child("open_auction") {
				if !a.greater(4900, "current") {
					continue
				}
				for _, at := range a.attrs {
					if at.Name.Local == "id" {
						ids = append(ids, at.Value)
					}
				}
			}
		}
	}
	return []string{strconv.Itoa(count), names.String(), strings.Join(ids, " "), strconv.Itoa(older)}, nil
}
