package main

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The oracle computes the expected answer of every statement template from
// the generated XML text alone: it parses the corpus with encoding/xml into
// the small models below and never asks sedna anything. Update workloads
// mutate the model as their updates are acknowledged.

type person struct {
	ID      string `xml:"id,attr"`
	Name    string `xml:"name"`
	Email   string `xml:"emailaddress"`
	Profile *struct {
		Interest string `xml:"interest"`
		Age      int    `xml:"age"`
	} `xml:"profile"`
}

type bidder struct {
	Ref struct {
		Person string `xml:"person,attr"`
	} `xml:"personref"`
	Increase int `xml:"increase"`
}

type auction struct {
	ID      string   `xml:"id,attr"`
	Initial int      `xml:"initial"`
	Bidders []bidder `xml:"bidder"`
	Current int      `xml:"current"`
}

type item struct {
	ID          string `xml:"id,attr"`
	Name        string `xml:"name"`
	Quantity    int    `xml:"quantity"`
	Description string `xml:"description"`
}

// auctionModel mirrors xmlgen.Auction. Every <item> sits in its own region
// wrapper element, so flattening the wrappers in order gives //item in
// document order.
type auctionModel struct {
	People   []person  `xml:"people>person"`
	Auctions []auction `xml:"open_auctions>open_auction"`
	Regions  struct {
		Wrappers []struct {
			Items []item `xml:"item"`
		} `xml:",any"`
	} `xml:"regions"`
	items []item
}

func parseAuction(src string) (*auctionModel, error) {
	m := new(auctionModel)
	if err := xml.Unmarshal([]byte(src), m); err != nil {
		return nil, fmt.Errorf("oracle: parse auction: %w", err)
	}
	for _, w := range m.Regions.Wrappers {
		m.items = append(m.items, w.Items...)
	}
	return m, nil
}

type book struct {
	Title   string   `xml:"title"`
	Authors []string `xml:"author"`
	Year    int      `xml:"year"`
	Issue   *struct {
		Year int `xml:"year"`
	} `xml:"issue"`
}

// libraryModel mirrors xmlgen.Library; papers are parsed only so that a
// query matching them by mistake would show as a mismatch.
type libraryModel struct {
	Books []book `xml:"book"`
}

func parseLibrary(src string) (*libraryModel, error) {
	m := new(libraryModel)
	if err := xml.Unmarshal([]byte(src), m); err != nil {
		return nil, fmt.Errorf("oracle: parse library: %w", err)
	}
	return m, nil
}

// countElements counts start tags by element name; it is the oracle for the
// ingest workload, whose documents come in every xmlgen shape.
func countElements(src string) (map[string]int, error) {
	counts := make(map[string]int)
	dec := xml.NewDecoder(strings.NewReader(src))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return counts, nil
		}
		if err != nil {
			return nil, fmt.Errorf("oracle: count elements: %w", err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			counts[se.Name.Local]++
		}
	}
}

var textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "'", "&#39;", `"`, "&#34;")

// elem serializes a text-only element the way the server does.
func elem(name, text string) string {
	return "<" + name + ">" + textEscaper.Replace(text) + "</" + name + ">"
}

// ---- Auction answers ----

func (m *auctionModel) personName(k int) string  { return elem("name", m.People[k].Name) }
func (m *auctionModel) personEmail(k int) string { return elem("emailaddress", m.People[k].Email) }
func (m *auctionModel) current(k int) string {
	return elem("current", strconv.Itoa(m.Auctions[k].Current))
}
func (m *auctionModel) initial(k int) string {
	return elem("initial", strconv.Itoa(m.Auctions[k].Initial))
}

// personCard answers
// for $p in …person[@id="pK"] return <p n="{$p/name}">{string($p/emailaddress)}</p>.
func (m *auctionModel) personCard(k int) string {
	p := m.People[k]
	return `<p n="` + textEscaper.Replace(p.Name) + `">` + textEscaper.Replace(p.Email) + `</p>`
}

// bidList answers
// for $b in …open_auction[@id="aK"]/bidder return <b p="{$b/personref/@person}">{string($b/increase)}</b>.
func (m *auctionModel) bidList(k int) string {
	var sb strings.Builder
	for _, b := range m.Auctions[k].Bidders {
		fmt.Fprintf(&sb, `<b p="%s">%d</b>`, b.Ref.Person, b.Increase)
	}
	return sb.String()
}

func (m *auctionModel) bidderCount() int {
	n := 0
	for i := range m.Auctions {
		n += len(m.Auctions[i].Bidders)
	}
	return n
}

// namesOlderThan answers //person[profile/age > t]/name.
func (m *auctionModel) namesOlderThan(t int) string {
	var sb strings.Builder
	for i := range m.People {
		if p := m.People[i].Profile; p != nil && p.Age > t {
			sb.WriteString(elem("name", m.People[i].Name))
		}
	}
	return sb.String()
}

// itemsAbove answers count(//item[quantity > q]).
func (m *auctionModel) itemsAbove(q int) string {
	n := 0
	for i := range m.items {
		if m.items[i].Quantity > q {
			n++
		}
	}
	return strconv.Itoa(n)
}

// hotAuctions answers
// for $a in …/open_auction where $a/current > t return <hot id="{$a/@id}">{count($a/bidder)}</hot>.
func (m *auctionModel) hotAuctions(t int) string {
	var sb strings.Builder
	for i := range m.Auctions {
		if a := &m.Auctions[i]; a.Current > t {
			fmt.Fprintf(&sb, `<hot id="%s">%d</hot>`, a.ID, len(a.Bidders))
		}
	}
	return sb.String()
}

// descriptions answers //item/description.
func (m *auctionModel) descriptions() string {
	var sb strings.Builder
	for i := range m.items {
		sb.WriteString(elem("description", m.items[i].Description))
	}
	return sb.String()
}

// ---- Library answers ----

// titlesBy answers //book[author = name]/title.
func (m *libraryModel) titlesBy(name string) string {
	var sb strings.Builder
	for i := range m.Books {
		for _, a := range m.Books[i].Authors {
			if a == name {
				sb.WriteString(elem("title", m.Books[i].Title))
				break
			}
		}
	}
	return sb.String()
}

// booksAfter answers count(//book[year > y]).
func (m *libraryModel) booksAfter(y int) string {
	n := 0
	for i := range m.Books {
		if m.Books[i].Year > y {
			n++
		}
	}
	return strconv.Itoa(n)
}

// reissuedAfter answers
// for $b in /library/book where $b/issue/year > y return <b y="{$b/year}">{string($b/title)}</b>.
func (m *libraryModel) reissuedAfter(y int) string {
	var sb strings.Builder
	for i := range m.Books {
		if b := &m.Books[i]; b.Issue != nil && b.Issue.Year > y {
			fmt.Fprintf(&sb, `<b y="%d">%s</b>`, b.Year, textEscaper.Replace(b.Title))
		}
	}
	return sb.String()
}
