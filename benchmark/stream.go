package main

import (
	"fmt"
	"math/rand"
	"sort"
)

// stmt is one generated statement with its oracle answer.
type stmt struct {
	// class is the statement kind; latencies are reported per class and the
	// traced run compares classes (planned lookup vs explicit index-scan).
	class string
	src   string
	write bool
	// eligible marks a read whose predicate compares an indexed path with a
	// literal, i.e. one the optimizer could turn into an index probe.
	eligible bool
	want     string // expected Response.Data of a read
	wantUpd  int    // expected Response.Updated of a write
	// apply brings the oracle model up to date; the driver calls it once the
	// server has acknowledged the write, before asking for the next statement.
	apply func()
}

// generator yields a client's statements. Each client owns its generator and
// calls it sequentially, so a generator may keep oracle state.
type generator func() stmt

const auctionDoc = "auction"

func streamRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + 1))
}

// zipfKeys draws indexes in [0,n) with Zipf(s=1.1) popularity.
func zipfKeys(rng *rand.Rand, n int) func() int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

func auctionPath(k int) string {
	return fmt.Sprintf(`doc("%s")/site/open_auctions/open_auction[@id = "a%d"]`, auctionDoc, k)
}

func personPath(k int) string {
	return fmt.Sprintf(`doc("%s")/site/people/person[@id = "p%d"]`, auctionDoc, k)
}

// pointReads is the point_read statement mix over one indexed Auction
// document: 60 % optimizer-planned indexed predicate lookups, 10 % the same
// lookups through explicit index-scan(), 20 % positional child-path
// navigations and 10 % small FLWORs with an element constructor.
func pointReads(m *auctionModel, rng *rand.Rand, personKey, auctionKey func() int) generator {
	return func() stmt {
		mix, onPerson := rng.Intn(100), rng.Intn(2) == 0
		switch {
		case mix < 60 && onPerson:
			k := personKey()
			return stmt{class: "lookup_planned", eligible: true, src: personPath(k) + "/name", want: m.personName(k)}
		case mix < 60:
			k := auctionKey()
			return stmt{class: "lookup_planned", eligible: true, src: auctionPath(k) + "/current", want: m.current(k)}
		case mix < 70 && onPerson:
			k := personKey()
			return stmt{class: "lookup_explicit", src: fmt.Sprintf(`index-scan("person_id", "p%d")/name`, k), want: m.personName(k)}
		case mix < 70:
			k := auctionKey()
			return stmt{class: "lookup_explicit", src: fmt.Sprintf(`index-scan("auction_id", "a%d")/current`, k), want: m.current(k)}
		case mix < 90 && onPerson:
			k := personKey()
			return stmt{class: "navigate", src: fmt.Sprintf(`doc("%s")/site/people/person[%d]/emailaddress`, auctionDoc, k+1), want: m.personEmail(k)}
		case mix < 90:
			k := auctionKey()
			return stmt{class: "navigate", src: fmt.Sprintf(`doc("%s")/site/open_auctions/open_auction[%d]/initial`, auctionDoc, k+1), want: m.initial(k)}
		case onPerson:
			k := personKey()
			return stmt{class: "flwor", eligible: true, want: m.personCard(k),
				src: "for $p in " + personPath(k) + ` return <p n="{$p/name}">{string($p/emailaddress)}</p>`}
		default:
			k := auctionKey()
			return stmt{class: "flwor", eligible: true, want: m.bidList(k),
				src: "for $b in " + auctionPath(k) + `/bidder return <b p="{$b/personref/@person}">{string($b/increase)}</b>`}
		}
	}
}

// writer generates auto-commit updates on the auctions one client owns:
// insert a bidder 50 %, replace <current> 30 %, delete a bidder this client
// inserted earlier 20 %. Inserted bidders carry a unique <increase> marker
// so a delete addresses exactly one node.
type writer struct {
	m      *auctionModel
	rng    *rand.Rand
	key    func() int
	marker int
	live   []insertedBid
}

type insertedBid struct{ auction, marker int }

func (w *writer) next() stmt {
	mix := w.rng.Intn(100)
	switch {
	case mix >= 80 && len(w.live) > 0:
		i := w.rng.Intn(len(w.live))
		bid := w.live[i]
		return stmt{class: "delete", write: true, wantUpd: 1,
			src: fmt.Sprintf("UPDATE delete %s/bidder[increase = %d]", auctionPath(bid.auction), bid.marker),
			apply: func() {
				w.live = append(w.live[:i], w.live[i+1:]...)
				bs := w.m.Auctions[bid.auction].Bidders
				for j := range bs {
					if bs[j].Increase == bid.marker {
						w.m.Auctions[bid.auction].Bidders = append(bs[:j:j], bs[j+1:]...)
						return
					}
				}
			}}
	case mix >= 50 && mix < 80:
		k, v := w.key(), 10+w.rng.Intn(5000)
		return stmt{class: "replace", write: true, wantUpd: 1,
			src:   fmt.Sprintf("UPDATE replace $c in %s/current with <current>%d</current>", auctionPath(k), v),
			apply: func() { w.m.Auctions[k].Current = v }}
	default:
		k, p := w.key(), w.rng.Intn(len(w.m.People))
		w.marker++
		mk := w.marker
		return stmt{class: "insert", write: true, wantUpd: 1,
			src: fmt.Sprintf(`UPDATE insert <bidder><personref person="p%d"/><increase>%d</increase></bidder> into %s`, p, mk, auctionPath(k)),
			apply: func() {
				b := bidder{Increase: mk}
				b.Ref.Person = fmt.Sprintf("p%d", p)
				w.m.Auctions[k].Bidders = append(w.m.Auctions[k].Bidders, b)
				w.live = append(w.live, insertedBid{k, mk})
			}}
	}
}

// updateMixClients returns the two update_mix generators. Client 0 only
// writes; client 1 reads 80 % (point_read mix) and writes 20 %. The document
// is shared — that is the lock contention — but each client owns a disjoint
// half of the auctions (even / odd index) and client 1 reads only its own
// half and the never-updated people, so every answer is determined by that
// client's own acknowledged writes.
func updateMixClients(m *auctionModel, seed int64) []generator {
	half := len(m.Auctions) / 2
	rngA, rngB := streamRNG(seed, 0), streamRNG(seed, 1)
	zA, zB := zipfKeys(rngA, half), zipfKeys(rngB, half)
	a := &writer{m: m, rng: rngA, key: func() int { return 2 * zA() }, marker: 1_000_000}
	oddKey := func() int { return 2*zB() + 1 }
	b := &writer{m: m, rng: rngB, key: oddKey, marker: 2_000_000}
	reads := pointReads(m, rngB, zipfKeys(rngB, len(m.People)), oddKey)
	return []generator{a.next, func() stmt {
		if rngB.Intn(100) < 20 {
			return b.next()
		}
		return reads()
	}}
}

// scanDoc is one scan_analytic document with its oracle model (exactly one
// of auc/lib is set).
type scanDoc struct {
	name    string
	auc     *auctionModel
	lib     *libraryModel
	authors []string // distinct library authors, sorted
	descr   string   // cached //item/description answer
}

func newScanDoc(name string, auc *auctionModel, lib *libraryModel) *scanDoc {
	d := &scanDoc{name: name, auc: auc, lib: lib}
	if auc != nil {
		d.descr = auc.descriptions()
		return d
	}
	seen := make(map[string]bool)
	for i := range lib.Books {
		for _, a := range lib.Books[i].Authors {
			if !seen[a] {
				seen[a] = true
				d.authors = append(d.authors, a)
			}
		}
	}
	sort.Strings(d.authors)
	return d
}

// scanReads is the scan_analytic mix. Every (document, template) pair
// occurs once per deck — a descendant scan with a value predicate, a count()
// aggregate, a FLWOR with a where clause and a constructor per hit, and
// (Auction only) a large //item/description result — so documents and
// templates are uniformly used. The seed decides the order within each deck
// and every predicate's constant. Dealing from a shuffled deck, not drawing
// with replacement, keeps the work per few dozen statements the same for
// every seed: the pairs differ in cost a hundredfold, and independent draws
// would make throughput a property of the seed.
func scanReads(docs []*scanDoc, rng *rand.Rand) generator {
	type card struct {
		d        *scanDoc
		template int
	}
	var deck []card
	for _, d := range docs {
		templates := 4
		if d.lib != nil {
			templates = 3
		}
		for t := 0; t < templates; t++ {
			deck = append(deck, card{d, t})
		}
	}
	next := len(deck)
	return func() stmt {
		if next == len(deck) {
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			next = 0
		}
		c := deck[next]
		next++
		d, doc := c.d, fmt.Sprintf(`doc("%s")`, c.d.name)
		if d.lib != nil {
			switch c.template {
			case 0:
				a := d.authors[rng.Intn(len(d.authors))]
				return stmt{class: "lib_scan_pred", src: fmt.Sprintf(`%s//book[author = "%s"]/title`, doc, a), want: d.lib.titlesBy(a)}
			case 1:
				y := 2000 + rng.Intn(16)
				return stmt{class: "lib_count", src: fmt.Sprintf(`count(%s//book[year > %d])`, doc, y), want: d.lib.booksAfter(y)}
			default:
				y := 2012 + rng.Intn(7)
				return stmt{class: "lib_flwor_where", want: d.lib.reissuedAfter(y),
					src: fmt.Sprintf(`for $b in %s/library/book where $b/issue/year > %d return <b y="{$b/year}">{string($b/title)}</b>`, doc, y)}
			}
		}
		switch c.template {
		case 0:
			t := 65 + rng.Intn(11)
			return stmt{class: "auc_scan_pred", src: fmt.Sprintf(`%s//person[profile/age > %d]/name`, doc, t), want: d.auc.namesOlderThan(t)}
		case 1:
			q := 5 + rng.Intn(5)
			return stmt{class: "auc_count", src: fmt.Sprintf(`count(%s//item[quantity > %d])`, doc, q), want: d.auc.itemsAbove(q)}
		case 2:
			t := 4800 + rng.Intn(190)
			return stmt{class: "auc_flwor_where", want: d.auc.hotAuctions(t),
				src: fmt.Sprintf(`for $a in %s/site/open_auctions/open_auction where $a/current > %d return <hot id="{$a/@id}">{count($a/bidder)}</hot>`, doc, t)}
		default:
			return stmt{class: "auc_serialize", src: doc + "//item/description", want: d.descr}
		}
	}
}

// primeStmt addresses a document without scanning it. The residency advisor
// promotes an ANALYZEd document after 32 statement accesses; priming each
// one 40 times puts that one-off build before the timed window instead of
// at a seed-dependent moment inside it.
func primeStmt(docName string) stmt {
	return stmt{class: "prime", src: fmt.Sprintf(`count(doc("%s")/*)`, docName), want: "1"}
}

const primeAccesses = 40
