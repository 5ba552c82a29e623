package main

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"sedna/internal/xmlgen"
)

// docSpec describes one generated document.
type docSpec struct {
	name    string
	kind    string // auction | library | sections | deep
	a, b, c int    // generator parameters
	analyze bool
}

func (d docSpec) generate(seed int64) string {
	switch d.kind {
	case "auction":
		return xmlgen.AuctionString(d.a, d.b, d.c, seed)
	case "library":
		return xmlgen.LibraryString(d.a, seed)
	case "sections":
		return xmlgen.SectionsString(d.a, d.b, seed)
	case "deep":
		return xmlgen.DeepString(d.a, d.b)
	}
	panic("benchmark: unknown document kind " + d.kind)
}

// checkElement is the element whose count verifies a document of each kind
// after a load or a recovery.
var checkElement = map[string]string{"auction": "bidder", "library": "book", "sections": "item", "deep": "n0"}

// scale fixes every corpus and sample size. fullScale is the benchmark;
// smokeScale is the same code at a size the tests run in seconds.
type scale struct {
	people, auctions, bids int // the point_read / update_mix document
	// scan_analytic documents come in graded sizes, so statement cost is a
	// continuum and a percentile does not sit on the edge between two
	// clusters. scanPeople sizes the un-ANALYZEd Auction documents (served
	// paged), scanBooks the ANALYZEd Library documents (served resident).
	scanPeople, scanBooks []int
	ingest                []docSpec
	ingestBulk            docSpec // loaded after the checkpoint, recovered from the log
	ingestUpdates         int     // acknowledged update commits before the crash
	traceStmts            map[string]int
	traceCycles           int
	setups                int           // set-up repetitions per run; setup_s is their median
	warmup                time.Duration // closed-loop traffic before the timed window
}

var fullScale = scale{
	people: 4000, auctions: 4000, bids: 5,
	scanPeople: []int{400, 600, 900, 1300, 1800, 2500},
	scanBooks:  []int{700, 1400, 2800, 5600},
	ingest: []docSpec{
		{name: "lib_a", kind: "library", a: 1000},
		{name: "auc_a", kind: "auction", a: 1000, b: 1000, c: 5},
		{name: "sec_a", kind: "sections", a: 8, b: 400},
		{name: "deep_a", kind: "deep", a: 40, b: 8},
		{name: "auc_b", kind: "auction", a: 1000, b: 1000, c: 5},
		{name: "lib_b", kind: "library", a: 1000},
		{name: "auc_c", kind: "auction", a: 1000, b: 1000, c: 5},
	},
	ingestBulk:    docSpec{name: "bulk", kind: "auction", a: 1000, b: 1000, c: 5},
	ingestUpdates: 50,
	traceStmts:    map[string]int{"point_read": 2000, "scan_analytic": 200, "update_mix": 120},
	traceCycles:   2,
	setups:        5,
	warmup:        2 * time.Second,
}

var smokeScale = scale{
	people: 200, auctions: 200, bids: 3,
	scanPeople: []int{60, 120},
	scanBooks:  []int{100},
	ingest: []docSpec{
		{name: "lib_a", kind: "library", a: 60},
		{name: "auc_a", kind: "auction", a: 50, b: 50, c: 3},
		{name: "sec_a", kind: "sections", a: 3, b: 20},
		{name: "deep_a", kind: "deep", a: 10, b: 3},
	},
	ingestBulk:    docSpec{name: "bulk", kind: "auction", a: 60, b: 60, c: 3},
	ingestUpdates: 5,
	traceStmts:    map[string]int{"point_read": 150, "scan_analytic": 40, "update_mix": 60},
	traceCycles:   1,
	setups:        1,
	warmup:        200 * time.Millisecond,
}

// traffic is what a wire workload sends: one generator per closed-loop
// client, and the checks to run once every client has stopped.
type traffic struct {
	clients []generator
	final   func() []stmt
}

// wireWorkload is a workload served through server.Listen and driven by
// client.Conn connections.
type wireWorkload struct {
	name    string
	docs    []docSpec
	indexes []string
	// traffic builds the clients from the generated XML (one string per
	// entry of docs); it parses the XML into the oracle models.
	traffic func(xml []string, seed int64) (*traffic, error)
	// selfChecks verifies, on the untraced run's window of ops statements,
	// that the workload loaded the layers it was chosen to load. A failed
	// self-check is reported, not fatal: it means the engine's behaviour
	// moved and the workload's reason must be re-read.
	selfChecks func(rep *report, ops int)
}

var auctionIndexes = []string{
	`CREATE INDEX "person_id" ON doc("auction")/site/people/person BY @id AS string`,
	`CREATE INDEX "auction_id" ON doc("auction")/site/open_auctions/open_auction BY @id AS string`,
}

func wireWorkloads(sc scale) []wireWorkload {
	auctionSpec := docSpec{name: auctionDoc, kind: "auction", a: sc.people, b: sc.auctions, c: sc.bids, analyze: true}
	var scanDocs []docSpec
	for i, n := range sc.scanPeople {
		scanDocs = append(scanDocs, docSpec{name: "auc" + strconv.Itoa(i), kind: "auction", a: n, b: n, c: sc.bids})
	}
	for i, n := range sc.scanBooks {
		scanDocs = append(scanDocs, docSpec{name: "lib" + strconv.Itoa(i), kind: "library", a: n, analyze: true})
	}
	return []wireWorkload{
		{
			name: "point_read", docs: []docSpec{auctionSpec}, indexes: auctionIndexes,
			selfChecks: func(rep *report, _ int) {
				l := rep.Layers
				rep.check("served resident, no buffer faults", l["buffer.faults_per_op"] < 0.01 && l["resident.hits_per_op"] > 0.99,
					"buffer.faults_per_op=%.4f resident.hits_per_op=%.3f pagefile.reads_per_op=%.2f (index pages)",
					l["buffer.faults_per_op"], l["resident.hits_per_op"], l["pagefile.reads_per_op"])
			},
			traffic: func(xml []string, seed int64) (*traffic, error) {
				m, err := parseAuction(xml[0])
				if err != nil {
					return nil, err
				}
				t := &traffic{final: func() []stmt { return nil }}
				for c := 0; c < 2; c++ {
					rng := streamRNG(seed, c)
					t.clients = append(t.clients, pointReads(m, rng, zipfKeys(rng, len(m.People)), zipfKeys(rng, len(m.Auctions))))
				}
				return t, nil
			},
		},
		{
			name: "scan_analytic", docs: scanDocs,
			selfChecks: func(rep *report, ops int) {
				l := rep.Layers
				rep.check("working set is read from the page file", l["pagefile.reads_per_op"] > 1,
					"pagefile.reads_per_op=%.2f buffer.snapshot_reads_per_op=%.2f", l["pagefile.reads_per_op"], l["buffer.snapshot_reads_per_op"])
				rep.check("at least 400 statements in the window", ops >= 400, "%d statements", ops)
			},
			traffic: func(xml []string, seed int64) (*traffic, error) {
				var docs []*scanDoc
				for i, d := range scanDocs {
					if d.kind == "auction" {
						m, err := parseAuction(xml[i])
						if err != nil {
							return nil, err
						}
						docs = append(docs, newScanDoc(d.name, m, nil))
					} else {
						m, err := parseLibrary(xml[i])
						if err != nil {
							return nil, err
						}
						docs = append(docs, newScanDoc(d.name, nil, m))
					}
				}
				t := &traffic{final: func() []stmt { return nil }}
				for c := 0; c < 2; c++ {
					t.clients = append(t.clients, scanReads(docs, streamRNG(seed, c)))
				}
				return t, nil
			},
		},
		{
			name: "update_mix", docs: []docSpec{auctionSpec}, indexes: auctionIndexes,
			selfChecks: func(rep *report, _ int) {
				l := rep.Layers
				rep.check("writers wait for the document lock", l["lock.waits_per_update"] > 0, "lock.waits_per_update=%.3f", l["lock.waits_per_update"])
				rep.check("at most one fsync per commit", l["wal.fsyncs_per_commit"] <= 1, "wal.fsyncs_per_commit=%.3f", l["wal.fsyncs_per_commit"])
			},
			traffic: func(xml []string, seed int64) (*traffic, error) {
				m, err := parseAuction(xml[0])
				if err != nil {
					return nil, err
				}
				return &traffic{clients: updateMixClients(m, seed), final: func() []stmt { return updateMixFinal(m) }}, nil
			},
		},
	}
}

// updateMixFinal asserts the end state of update_mix: the total bidder count
// (initial + acknowledged inserts − acknowledged deletes) and, for a sample
// of the auctions that received bidders, the per-key current value and bid
// list.
func updateMixFinal(m *auctionModel) []stmt {
	checks := []stmt{{class: "final", want: strconv.Itoa(m.bidderCount()),
		src: fmt.Sprintf(`count(doc("%s")//bidder)`, auctionDoc)}}
	var touched []int
	for k := range m.Auctions {
		for _, b := range m.Auctions[k].Bidders {
			if b.Increase >= 1_000_000 {
				touched = append(touched, k)
				break
			}
		}
	}
	sort.Ints(touched)
	if len(touched) > 40 {
		touched = touched[:40]
	}
	for _, k := range touched {
		checks = append(checks,
			stmt{class: "final", src: auctionPath(k) + "/current", want: m.current(k)},
			stmt{class: "final", want: m.bidList(k),
				src: "for $b in " + auctionPath(k) + `/bidder return <b p="{$b/personref/@person}">{string($b/increase)}</b>`})
	}
	return checks
}

func findWire(sc scale, name string) (wireWorkload, bool) {
	for _, w := range wireWorkloads(sc) {
		if w.name == name {
			return w, true
		}
	}
	return wireWorkload{}, false
}

var workloadNames = []string{"point_read", "scan_analytic", "update_mix", "ingest_recover"}
