// Package xmlgen generates synthetic XML corpora for the examples, tests
// and the benchmark harness. Three families are provided:
//
//   - Library: the paper's running example (Figure 2) scaled up — books
//     with titles/authors/issues plus papers;
//   - Auction: an XMark-inspired auction site with people, items and bids,
//     giving deeper nesting and more schema variety;
//   - Deep: a narrow, deep chain-and-fanout tree stressing the numbering
//     scheme and label growth.
//
// Generators are deterministic for a given seed.
package xmlgen

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
)

// Library writes a library document with n books (every fifth entry is a
// paper) to w. Authors per book vary 1..4; text values are realistic short
// strings.
func Library(w io.Writer, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	bw := &errWriter{w: w}
	bw.puts("<library>\n")
	for i := 0; i < n; i++ {
		if i%5 == 4 {
			bw.puts("<paper>")
			fmt.Fprintf(bw, "<title>Paper %d on %s</title>", i, topics[rng.Intn(len(topics))])
			fmt.Fprintf(bw, "<author>%s</author>", names[rng.Intn(len(names))])
			fmt.Fprintf(bw, "<year>%d</year>", 1970+rng.Intn(50))
			bw.puts("</paper>\n")
			continue
		}
		bw.puts("<book>")
		fmt.Fprintf(bw, "<title>Book %d: %s</title>", i, topics[rng.Intn(len(topics))])
		na := 1 + rng.Intn(4)
		for a := 0; a < na; a++ {
			fmt.Fprintf(bw, "<author>%s</author>", names[rng.Intn(len(names))])
		}
		fmt.Fprintf(bw, "<year>%d</year>", 1970+rng.Intn(50))
		if rng.Intn(2) == 0 {
			fmt.Fprintf(bw, "<issue><publisher>%s</publisher><year>%d</year></issue>",
				publishers[rng.Intn(len(publishers))], 1990+rng.Intn(30))
		}
		bw.puts("</book>\n")
	}
	bw.puts("</library>\n")
	return bw.err
}

// Auction writes an XMark-flavoured auction document: people with profiles,
// open auctions with bid histories, and categorized items.
func Auction(w io.Writer, people, items, bidsPerItem int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	bw := &errWriter{w: w}
	bw.puts("<site>\n<people>\n")
	for i := 0; i < people; i++ {
		fmt.Fprintf(bw, `<person id="p%d"><name>%s</name><emailaddress>%s%d@example.org</emailaddress>`,
			i, names[rng.Intn(len(names))], strings.ToLower(names[rng.Intn(len(names))]), i)
		if rng.Intn(3) != 0 {
			fmt.Fprintf(bw, "<profile><interest>%s</interest><age>%d</age></profile>",
				topics[rng.Intn(len(topics))], 18+rng.Intn(60))
		}
		bw.puts("</person>\n")
	}
	bw.puts("</people>\n<open_auctions>\n")
	for i := 0; i < items; i++ {
		fmt.Fprintf(bw, `<open_auction id="a%d"><initial>%d</initial>`, i, 1+rng.Intn(200))
		for b := 0; b < bidsPerItem; b++ {
			fmt.Fprintf(bw, `<bidder><personref person="p%d"/><increase>%d</increase></bidder>`,
				rng.Intn(people), 1+rng.Intn(50))
		}
		fmt.Fprintf(bw, "<current>%d</current>", 10+rng.Intn(5000))
		fmt.Fprintf(bw, "<itemref item="+`"i%d"`+"/>", i)
		bw.puts("</open_auction>\n")
	}
	bw.puts("</open_auctions>\n<regions>\n")
	for i := 0; i < items; i++ {
		region := regions[rng.Intn(len(regions))]
		fmt.Fprintf(bw, `<%s><item id="i%d"><name>%s %s</name><quantity>%d</quantity><description>%s</description></item></%s>`,
			region, i, adjectives[rng.Intn(len(adjectives))], topics[rng.Intn(len(topics))],
			1+rng.Intn(10), sentence(rng), region)
		bw.puts("\n")
	}
	bw.puts("</regions>\n</site>\n")
	return bw.err
}

// Sections writes a wide document whose root holds `sections` distinctly
// named section elements (<sec0>..<secN>), each with `perSection` <item>
// children carrying a name, a value and a note. Because every section has
// its own element name, each lands on its own descriptive-schema node, so
// //item resolves to `sections` independent block-list range scans that the
// executor merges in document order.
func Sections(w io.Writer, sections, perSection int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	bw := &errWriter{w: w}
	bw.puts("<catalog>\n")
	for s := 0; s < sections; s++ {
		fmt.Fprintf(bw, "<sec%d>\n", s)
		for i := 0; i < perSection; i++ {
			fmt.Fprintf(bw, `<item id="s%d-i%d"><name>%s %s</name><value>%d</value><note>%s</note></item>`,
				s, i, adjectives[rng.Intn(len(adjectives))], topics[rng.Intn(len(topics))],
				rng.Intn(10000), names[rng.Intn(len(names))])
			bw.puts("\n")
		}
		fmt.Fprintf(bw, "</sec%d>\n", s)
	}
	bw.puts("</catalog>\n")
	return bw.err
}

// SectionsString is a convenience wrapper returning the document as a
// string.
func SectionsString(sections, perSection int, seed int64) string {
	var sb strings.Builder
	_ = Sections(&sb, sections, perSection, seed)
	return sb.String()
}

// Deep writes a tree of the given depth where every level has `fanout`
// children, of which the first recurses further. Stresses label depth.
func Deep(w io.Writer, depth, fanout int) error {
	bw := &errWriter{w: w}
	bw.puts("<root>")
	var rec func(d int)
	rec = func(d int) {
		if bw.err != nil || d == 0 {
			return
		}
		for i := 0; i < fanout; i++ {
			fmt.Fprintf(bw, "<n%d>", i)
			if i == 0 {
				rec(d - 1)
			} else {
				fmt.Fprintf(bw, "leaf-%d-%d", d, i)
			}
			fmt.Fprintf(bw, "</n%d>", i)
		}
	}
	rec(depth)
	bw.puts("</root>\n")
	return bw.err
}

// LibraryString is a convenience wrapper returning the document as a
// string.
func LibraryString(n int, seed int64) string {
	var sb strings.Builder
	_ = Library(&sb, n, seed)
	return sb.String()
}

// AuctionString is a convenience wrapper returning the document as a
// string.
func AuctionString(people, items, bids int, seed int64) string {
	var sb strings.Builder
	_ = Auction(&sb, people, items, bids, seed)
	return sb.String()
}

// DeepString is a convenience wrapper returning the document as a string.
func DeepString(depth, fanout int) string {
	var sb strings.Builder
	_ = Deep(&sb, depth, fanout)
	return sb.String()
}

func sentence(rng *rand.Rand) string {
	n := 5 + rng.Intn(15)
	words := make([]string, n)
	for i := range words {
		words[i] = wordlist[rng.Intn(len(wordlist))]
	}
	return strings.Join(words, " ")
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

func (e *errWriter) puts(s string) {
	if e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
}

var names = []string{
	"Abiteboul", "Hull", "Vianu", "Date", "Codd", "Gray", "Stonebraker",
	"Bernstein", "Mohan", "DeWitt", "Widom", "Ullman", "Garcia-Molina",
	"Lamport", "Liskov", "Dijkstra", "Knuth", "Hoare", "Backus", "McCarthy",
}

var topics = []string{
	"Databases", "Transactions", "Query Processing", "Storage Systems",
	"Concurrency Control", "Recovery", "XML Processing", "Indexing",
	"Distributed Systems", "Optimization", "Semistructured Data",
}

var publishers = []string{
	"Addison-Wesley", "Morgan Kaufmann", "Springer", "ACM Press", "O'Reilly",
}

var regions = []string{"africa", "asia", "australia", "europe", "namerica", "samerica"}

var adjectives = []string{"vintage", "rare", "used", "new", "antique", "modern"}

var wordlist = []string{
	"the", "quick", "brown", "database", "stores", "large", "amounts",
	"of", "xml", "data", "with", "schema", "driven", "clustering", "and",
	"novel", "memory", "management", "techniques", "for", "fast", "queries",
}
