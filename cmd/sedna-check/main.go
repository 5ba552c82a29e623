// Command sedna-check opens a database, runs two-step recovery (as any open
// does), and verifies the full structural integrity of every document:
// indirection round trips, sibling chains, numbering-scheme containment and
// order, per-schema child-slot pointers, block-list partial order, and
// counter consistency. It also prints a per-document summary including the
// descriptive-schema statistics, and closes with a one-screen metrics
// summary of what the verification pass itself cost the engine (pages
// faulted, disk reads, WAL activity during recovery).
//
//	sedna-check -dir data/mydb [-v]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sedna/internal/core"
	"sedna/internal/schema"
	"sedna/internal/storage"
)

func main() {
	dir := flag.String("dir", "sedna-data", "database directory")
	verbose := flag.Bool("v", false, "print the descriptive schema of each document")
	flag.Parse()

	db, err := core.Open(*dir, core.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sedna-check: open: %v\n", err)
		os.Exit(1)
	}
	defer db.Close()

	tx, err := db.BeginReadOnly()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sedna-check: %v\n", err)
		os.Exit(1)
	}
	defer tx.Rollback()

	names := db.Catalog().DocNames()
	if len(names) == 0 {
		fmt.Println("database is empty; structure OK")
		return
	}
	failed := 0
	for _, name := range names {
		doc, err := tx.Document(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "  %-30s ERROR: %v\n", name, err)
			failed++
			continue
		}
		if err := storage.VerifyDoc(tx.Tx, doc); err != nil {
			fmt.Printf("  %-30s CORRUPT: %v\n", name, err)
			failed++
			continue
		}
		var nodes uint64
		blocks := uint32(0)
		doc.Schema.Root.Walk(func(sn *schema.Node) {
			nodes += sn.NodeCount
			blocks += sn.BlockCount
		})
		fmt.Printf("  %-30s OK  %8d nodes  %5d schema nodes  %5d blocks\n",
			name, nodes, doc.Schema.Len(), blocks)
		if *verbose {
			fmt.Print(doc.Schema.Dump())
		}
	}
	for _, ix := range indexNames(db) {
		fmt.Printf("  index %-24s registered\n", ix)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "sedna-check: %d document(s) failed verification\n", failed)
		os.Exit(1)
	}
	fmt.Printf("all %d document(s) verified\n", len(names))
	printMetricsSummary(db)
}

// printMetricsSummary renders a one-screen internals summary of the
// verification pass from the database's metrics registry.
func printMetricsSummary(db *core.Database) {
	s := db.Metrics().Snapshot()
	fmt.Println("\nmetrics summary (this verification pass):")
	row := func(label string, names ...string) {
		var parts []string
		for _, n := range names {
			short := n[strings.IndexByte(n, '.')+1:]
			if v, ok := s.Counters[n]; ok {
				parts = append(parts, fmt.Sprintf("%s=%d", short, v))
			} else if v, ok := s.Gauges[n]; ok {
				parts = append(parts, fmt.Sprintf("%s=%d", short, v))
			} else if h, ok := s.Histograms[n]; ok {
				parts = append(parts, fmt.Sprintf("%s={count=%d p99=%s}", short, h.Count, time.Duration(h.P99Ns)))
			}
		}
		fmt.Printf("  %-9s %s\n", label, strings.Join(parts, "  "))
	}
	row("buffer", "buffer.hits", "buffer.faults", "buffer.evictions", "buffer.versions_live")
	// Guard the derived ratio against zero lookups: 0/0 would print NaN.
	if total := s.Counters["buffer.hits"] + s.Counters["buffer.faults"]; total > 0 {
		fmt.Printf("  %-9s hit_ratio=%.4f\n", "", float64(s.Counters["buffer.hits"])/float64(total))
	} else {
		fmt.Printf("  %-9s hit_ratio=n/a (no lookups)\n", "")
	}
	if s.Counters["opt.plans_costed"] > 0 {
		row("opt", "opt.plans_costed", "opt.index_chosen", "opt.index_probes", "opt.est_error_pct")
	}
	if s.Counters["load.bulk_loads"] > 0 {
		row("load", "load.bulk_loads", "load.nodes", "load.blocks_built", "load.pages_flushed", "load.ns")
	}
	row("pagefile", "pagefile.reads", "pagefile.writes", "pagefile.extends")
	row("wal", "wal.appends", "wal.fsyncs", "wal.fsync_ns")
	row("", "wal.segments", "wal.retained_bytes", "wal.replica_held_bytes", "wal.backup_held_bytes")
	row("txn", "txn.begins", "txn.begins_readonly", "txn.commits", "txn.aborts")
	row("lock", "lock.acquires", "lock.waits", "lock.deadlock_aborts")
}

func indexNames(db *core.Database) []string {
	var out []string
	for _, doc := range db.Catalog().DocNames() {
		for _, ix := range db.Catalog().IndexesOf(doc) {
			out = append(out, ix.Name)
		}
	}
	return out
}
