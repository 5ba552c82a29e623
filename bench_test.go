// Benchmark suite regenerating the per-experiment results of DESIGN.md
// (E1–E16): one BenchmarkE<n>... family per experiment, each pairing the
// Sedna mechanism with the baseline the paper positions it against. Run:
//
//	go test -bench=. -benchmem
//
// cmd/sedna-bench prints the same experiments as comparison tables.
package sedna_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"sedna"
	"sedna/internal/bench"
	"sedna/internal/buffer"
	"sedna/internal/core"
	"sedna/internal/lock"
	"sedna/internal/nid"
	"sedna/internal/pagefile"
	"sedna/internal/query"
	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
	"sedna/internal/subtree"
	"sedna/internal/xmlgen"
)

const corpusEntries = 1500 // library entries used by most experiments

func openLoaded(b *testing.B, entries int) *sedna.DB {
	b.Helper()
	db, err := bench.OpenDB(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if err := bench.LoadLibrary(db, entries); err != nil {
		b.Fatal(err)
	}
	return db
}

func runQuery(b *testing.B, db *sedna.DB, src string, rewrite bool) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Query(db, src, rewrite); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------- E1 ----
// Schema-driven vs subtree-based clustering (§2, §4.1): selective
// name-based retrieval touches only the matching schema node's blocks under
// schema clustering but scans the whole document under subtree clustering;
// whole-element retrieval inverts the trade-off.

func BenchmarkE1SelectiveSchemaDriven(b *testing.B) {
	db := openLoaded(b, corpusEntries)
	runQuery(b, db, `count(doc("lib")//publisher)`, true)
}

func BenchmarkE1SelectiveSubtree(b *testing.B) {
	db, err := bench.OpenDB(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	st, tx, err := bench.SubtreeStore(db, corpusEntries)
	if err != nil {
		b.Fatal(err)
	}
	defer tx.Rollback()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		err := st.Scan(tx.Tx, func(r subtree.Rec) (bool, error) {
			if r.Kind == subtree.KindElement && r.Name == "publisher" {
				count++
			}
			return true, nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if count == 0 {
			b.Fatal("no publishers found")
		}
	}
}

func BenchmarkE1WholeElementSchemaDriven(b *testing.B) {
	// Retrieving a full book (sub-elements of all types) forces the
	// schema-driven store to hop across the blocks of every schema node.
	db := openLoaded(b, corpusEntries)
	runQuery(b, db, fmt.Sprintf(`doc("lib")/library/book[%d]`, corpusEntries/2), true)
}

func BenchmarkE1WholeElementSubtree(b *testing.B) {
	db, err := bench.OpenDB(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	st, tx, err := bench.SubtreeStore(db, corpusEntries)
	if err != nil {
		b.Fatal(err)
	}
	defer tx.Rollback()
	// Locate a mid-document book once; the timed section is the contiguous
	// subtree read.
	var rec subtree.Rec
	seen := 0
	st.Scan(tx.Tx, func(r subtree.Rec) (bool, error) {
		if r.Kind == subtree.KindElement && r.Name == "book" {
			seen++
			if seen == corpusEntries/2 {
				rec = r
				return false, nil
			}
		}
		return true, nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.ReadSubtreeBytes(tx.Tx, rec.Pos, rec.SubtreeLen); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------- E2 ----
// Relabel-free numbering vs XISS intervals (§4.1.1): random sibling
// insertions never relabel under the string scheme; the interval scheme
// periodically relabels the whole document.

func insertWorkload(n int, insert func(parentIdx, at int, parents int) int) {
	rng := rand.New(rand.NewSource(5))
	parents := 1
	counts := make([]int, 1, n)
	for i := 0; i < n; i++ {
		p := rng.Intn(parents)
		at := 0
		if counts[p] > 0 {
			at = rng.Intn(counts[p] + 1)
		}
		if insert(p, at, parents) > parents {
			parents++
			counts = append(counts, 0)
		}
		counts[p]++
	}
}

func BenchmarkE2SednaLabels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		root := nid.Root()
		children := [][]nid.Label{nil}
		parents := []nid.Label{root}
		insertWorkload(5000, func(p, at, np int) int {
			sibs := children[p]
			var left, right *nid.Label
			if at > 0 {
				left = &sibs[at-1]
			}
			if at < len(sibs) {
				right = &sibs[at]
			}
			l := nid.Between(parents[p], left, right)
			sibs = append(sibs, nid.Label{})
			copy(sibs[at+1:], sibs[at:])
			sibs[at] = l
			children[p] = sibs
			if len(parents) < 64 && at == 0 {
				parents = append(parents, l)
				children = append(children, nil)
				return len(parents)
			}
			return len(parents)
		})
	}
	b.ReportMetric(0, "relabels/op") // the scheme's invariant: never
}

func BenchmarkE2XISSIntervals(b *testing.B) {
	relabels := 0
	for i := 0; i < b.N; i++ {
		tr := nid.NewXISS(8)
		nodes := []*nid.XNode{tr.Root}
		insertWorkload(5000, func(p, at, np int) int {
			if p >= len(nodes) {
				p = len(nodes) - 1
			}
			n := tr.InsertChild(nodes[p], min(at, len(nodes[p].Children)))
			if len(nodes) < 64 {
				nodes = append(nodes, n)
				return len(nodes)
			}
			return len(nodes)
		})
		relabels += tr.Relabels() - 1 // construction relabel excluded
	}
	b.ReportMetric(float64(relabels)/float64(b.N), "relabels/op")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ---------------------------------------------------------------- E3 ----
// Layer-mapped dereference vs pointer swizzling (§4.2): a pointer chase
// over resident pages costs one slot comparison under the equality-basis
// mapping and a hash translation under swizzling.

func derefFixture(b *testing.B) (*buffer.Manager, []sas.XPtr) {
	b.Helper()
	dir := b.TempDir()
	pf, err := pagefile.Open(dir+"/d.sdb", pagefile.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	snap, err := pagefile.OpenSnapArea(dir+"/d.snap", pagefile.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pf.Close(); snap.Close() })
	m := buffer.New(pf, snap, 512)
	ptrs := make([]sas.XPtr, 256)
	for i := range ptrs {
		ptrs[i] = pf.Alloc().Ptr().Add(uint32(i * 8))
	}
	rand.New(rand.NewSource(1)).Shuffle(len(ptrs), func(i, j int) { ptrs[i], ptrs[j] = ptrs[j], ptrs[i] })
	return m, ptrs
}

func BenchmarkE3LayerMappedDeref(b *testing.B) {
	m, ptrs := derefFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := m.Deref(ptrs[i%len(ptrs)])
		if err != nil {
			b.Fatal(err)
		}
		m.Unpin(f)
	}
}

func BenchmarkE3SwizzlingDeref(b *testing.B) {
	m, ptrs := derefFixture(b)
	s := buffer.NewSwizzleDeref(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := s.Deref(ptrs[i%len(ptrs)])
		if err != nil {
			b.Fatal(err)
		}
		m.Unpin(f)
	}
}

// ---------------------------------------------------------------- E4 ----
// Indirect parent pointers make a node move O(1) in its children (§4.1):
// block splits move descriptors regardless of fan-out; with direct parent
// pointers each move would rewrite every child.

func benchmarkE4(b *testing.B, fanout int, direct bool) {
	db, err := bench.OpenDB(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	// A document whose <e> nodes each have `fanout` children: splitting the
	// e-block moves nodes with that many children. The fixture is rebuilt
	// (as a fresh document) when every block has been split down to single
	// descriptors.
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 600; i++ {
		sb.WriteString("<e>")
		for j := 0; j < fanout; j++ {
			sb.WriteString("<c/>")
		}
		sb.WriteString("</e>")
	}
	sb.WriteString("</r>")
	fixture := 0
	var tx *core.Tx
	var doc *storage.Doc
	var eSn *schema.Node
	rebuild := func() {
		if tx != nil {
			tx.Rollback()
		}
		fixture++
		name := fmt.Sprintf("d%d", fixture)
		if err := db.LoadXMLString(name, sb.String()); err != nil {
			b.Fatal(err)
		}
		var err error
		tx, err = db.Internal().Begin()
		if err != nil {
			b.Fatal(err)
		}
		doc, err = tx.Document(name)
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.LockDocument(name, lock.Exclusive); err != nil {
			b.Fatal(err)
		}
		eSn = doc.Schema.Root.Children[0].Children[0]
	}
	rebuild()
	defer func() { tx.Rollback() }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moved, err := storage.MoveFirstRun(tx.Tx, doc, eSn)
		if err != nil {
			b.StopTimer()
			rebuild()
			b.StartTimer()
			moved, err = storage.MoveFirstRun(tx.Tx, doc, eSn)
			if err != nil {
				b.Fatal(err)
			}
		}
		if direct {
			// Baseline: a direct-parent design would additionally rewrite
			// the parent field of every child of every moved node.
			if err := storage.SimulateDirectParentFixups(tx.Tx, doc, eSn, moved); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE4IndirectParentFan2(b *testing.B)  { benchmarkE4(b, 2, false) }
func BenchmarkE4IndirectParentFan16(b *testing.B) { benchmarkE4(b, 16, false) }
func BenchmarkE4DirectParentFan2(b *testing.B)    { benchmarkE4(b, 2, true) }
func BenchmarkE4DirectParentFan16(b *testing.B)   { benchmarkE4(b, 16, true) }

// ---------------------------------------------------------------- E5 ----
// DDO elimination (§5.1.1).

func BenchmarkE5WithDDORemoval(b *testing.B) {
	db := openLoaded(b, corpusEntries)
	runQuery(b, db, `count(doc("lib")/library/book/title)`, true)
}

func BenchmarkE5NaiveDDO(b *testing.B) {
	db := openLoaded(b, corpusEntries)
	runQuery(b, db, `count(doc("lib")/library/book/title)`, false)
}

// ---------------------------------------------------------------- E6 ----
// Abbreviated descendant-or-self combining (§5.1.2).

func BenchmarkE6CombinedDescendant(b *testing.B) {
	db := openLoaded(b, corpusEntries)
	runQuery(b, db, `count(doc("lib")//publisher)`, true)
}

func BenchmarkE6NaiveDosStep(b *testing.B) {
	db := openLoaded(b, corpusEntries)
	runQuery(b, db, `count(doc("lib")//publisher)`, false)
}

// ---------------------------------------------------------------- E7 ----
// Lazy invariant nested for-clauses (§5.1.3).

const e7Query = `count(for $b in doc("lib")/library/book
                       for $p in doc("lib")//publisher
                       where $b/year = 1995
                       return 1)`

func BenchmarkE7LazyInnerClause(b *testing.B) {
	db := openLoaded(b, 300)
	runQuery(b, db, e7Query, true)
}

func BenchmarkE7EagerInnerClause(b *testing.B) {
	db := openLoaded(b, 300)
	runQuery(b, db, e7Query, false)
}

// ---------------------------------------------------------------- E8 ----
// Structural-path extraction (§5.1.4).

func BenchmarkE8StructuralPath(b *testing.B) {
	db := openLoaded(b, corpusEntries)
	runQuery(b, db, `count(doc("lib")/library/book/issue/publisher)`, true)
}

func BenchmarkE8StepwisePath(b *testing.B) {
	db := openLoaded(b, corpusEntries)
	runQuery(b, db, `count(doc("lib")/library/book/issue/publisher)`, false)
}

// ---------------------------------------------------------------- E9 ----
// Virtual element constructors (§5.2.1).

const e9Query = `<result>{doc("lib")/library/book}</result>`

func BenchmarkE9VirtualConstructors(b *testing.B) {
	db := openLoaded(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.QueryCtor(db, e9Query, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9DeepCopyConstructors(b *testing.B) {
	db := openLoaded(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.QueryCtor(db, e9Query, false); err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------------------------------- E10 ----
// Non-blocking snapshot readers vs S2PL readers under a concurrent updater
// (§6.1, §6.3). The reader must wait for the updater's exclusive lock under
// S2PL but proceeds immediately on a snapshot.

func benchmarkE10(b *testing.B, snapshot bool) {
	db := openLoaded(b, 200)
	// The updater inserts a sizable fragment per transaction so its
	// exclusive document lock is held for a realistic statement duration.
	var frag strings.Builder
	frag.WriteString("<batch>")
	for j := 0; j < 200; j++ {
		frag.WriteString("<row>payload</row>")
	}
	frag.WriteString("</batch>")
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			stmt := fmt.Sprintf(`UPDATE insert %s into doc("lib")/library`, frag.String())
			if _, err := db.Execute(stmt); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	q := `count(doc("lib")/library/book)`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if snapshot {
			_, err = db.Query(q)
		} else {
			err = lockedRead(db, q)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

// lockedRead runs the query in an UPDATE transaction holding a shared
// document lock — the S2PL reader baseline.
func lockedRead(db *sedna.DB, q string) error {
	tx, err := db.Internal().Begin()
	if err != nil {
		return err
	}
	defer tx.Commit()
	_, err = query.Execute(query.NewExecCtx(tx), q)
	return err
}

func BenchmarkE10SnapshotReaders(b *testing.B) { benchmarkE10(b, true) }
func BenchmarkE10S2PLReaders(b *testing.B)     { benchmarkE10(b, false) }

// --------------------------------------------------------------- E11 ----
// Snapshot creation/advancement is cheap (§6.1/§6.3): "a pair (timestamp,
// list of active transactions)".

func BenchmarkE11SnapshotAdvance(b *testing.B) {
	db := openLoaded(b, corpusEntries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := db.BeginReadOnly()
		if err != nil {
			b.Fatal(err)
		}
		tx.Rollback()
	}
}

// --------------------------------------------------------------- E12 ----
// Version purge is piggybacked on new-version creation (§6.1): update
// throughput with and without an old snapshot pinning versions.

func benchmarkE12(b *testing.B, pinnedSnapshots int) {
	db := openLoaded(b, 200)
	var pins []*sedna.Tx
	for i := 0; i < pinnedSnapshots; i++ {
		tx, err := db.BeginReadOnly()
		if err != nil {
			b.Fatal(err)
		}
		pins = append(pins, tx)
	}
	defer func() {
		for _, p := range pins {
			p.Rollback()
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stmt := fmt.Sprintf(`UPDATE insert <x n="%d"/> into doc("lib")/library`, i)
		if _, err := db.Execute(stmt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := db.BufferStats()
	b.ReportMetric(float64(st.VersionsMade), "versions-made")
	b.ReportMetric(float64(st.VersionsFreed), "versions-freed")
}

func BenchmarkE12UpdatesNoSnapshots(b *testing.B)  { benchmarkE12(b, 0) }
func BenchmarkE12UpdatesWithSnapshot(b *testing.B) { benchmarkE12(b, 3) }

// --------------------------------------------------------------- E13 ----
// Two-step recovery time grows with the redo log, not the database size
// (§6.4).

func benchmarkE13(b *testing.B, committedAfterCheckpoint int) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		db, err := core.Open(dir, core.Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		tx, _ := db.Begin()
		tx.LoadXML("lib", strings.NewReader(xmlgen.LibraryString(200, 1)))
		tx.Commit()
		if err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < committedAfterCheckpoint; j++ {
			tx, _ := db.Begin()
			ctx := query.NewExecCtx(tx)
			if _, err := query.Execute(ctx, fmt.Sprintf(`UPDATE insert <x n="%d"/> into doc("lib")/library`, j)); err != nil {
				b.Fatal(err)
			}
			tx.Commit()
		}
		db.CrashForTesting()
		b.StartTimer()
		db2, err := core.Open(dir, core.Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		db2.Close()
	}
}

func BenchmarkE13Recovery10Txns(b *testing.B)  { benchmarkE13(b, 10) }
func BenchmarkE13Recovery200Txns(b *testing.B) { benchmarkE13(b, 200) }

// --------------------------------------------------------------- E14 ----
// Full vs incremental hot backup (§6.5).

func BenchmarkE14FullBackup(b *testing.B) {
	db := openLoaded(b, corpusEntries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Backup(b.TempDir()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE14IncrementalBackup(b *testing.B) {
	db := openLoaded(b, corpusEntries)
	dest := b.TempDir()
	if err := db.Backup(dest); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		stmt := fmt.Sprintf(`UPDATE insert <x n="%d"/> into doc("lib")/library`, i)
		if _, err := db.Execute(stmt); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := db.BackupIncremental(dest); err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------------------------------- E15 ----
// Descriptive-schema conciseness (§4.1): schema nodes per document node.

func BenchmarkE15SchemaConciseness(b *testing.B) {
	db := openLoaded(b, corpusEntries)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn, dn, err := bench.SchemaStats(db, "lib")
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(sn) / float64(dn)
	}
	b.ReportMetric(ratio*100, "schema-%-of-doc")
}

// --------------------------------------------------------------- E16 ----
// Delayed per-block descriptor widening (§4.1): adding a new schema child
// relocates one block's worth of descriptors, independent of how many nodes
// the schema node has.

func benchmarkE16(b *testing.B, population int) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := bench.OpenDB(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		var sb strings.Builder
		sb.WriteString("<r>")
		for j := 0; j < population; j++ {
			sb.WriteString("<e/>")
		}
		sb.WriteString("</r>")
		if err := db.LoadXMLString("d", sb.String()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		// First child of ONE e-node: the e schema node gains a child and
		// only that e's descriptor (plus its block tail) relocates.
		if _, err := db.Execute(fmt.Sprintf(
			`UPDATE insert <sub/> into doc("d")/r/e[%d]`, population/2)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		db.Close()
	}
}

func BenchmarkE16Widen1kNodes(b *testing.B)  { benchmarkE16(b, 1000) }
func BenchmarkE16Widen10kNodes(b *testing.B) { benchmarkE16(b, 10000) }

// --------------------------------------------------------------- E17 ----
// Concurrent-read scalability (§4.2 + §6.3): N goroutines run the same
// snapshot query over a warmed pool. A hot dereference in the sharded
// buffer manager is a stripe read-lock plus two atomics, so aggregate
// reader throughput scales with cores; with a single pool mutex (the seed
// build) every Deref serializes and added readers add nothing. The mixed
// variant measures durable commit throughput while writers share batched
// group-commit fsyncs.

func benchmarkE17Readers(b *testing.B, goroutines int) {
	db := openLoaded(b, 400)
	q := `count(doc("lib")/library/book)`
	if _, err := db.Query(q); err != nil { // warm the pool and the mapping
		b.Fatal(err)
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := b.N / goroutines
			if g < b.N%goroutines {
				n++
			}
			for i := 0; i < n; i++ {
				if _, err := db.Query(q); err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkE17ConcurrentReaders1(b *testing.B) { benchmarkE17Readers(b, 1) }
func BenchmarkE17ConcurrentReaders2(b *testing.B) { benchmarkE17Readers(b, 2) }
func BenchmarkE17ConcurrentReaders4(b *testing.B) { benchmarkE17Readers(b, 4) }
func BenchmarkE17ConcurrentReaders8(b *testing.B) { benchmarkE17Readers(b, 8) }

// BenchmarkE17MixedWriters commits b.N small updates from 4 writer
// goroutines against a durable (fsyncing) WAL, with snapshot readers
// running in the background. Group commit lets concurrent committers share
// one fsync; the reported fsyncs/commit ratio drops below 1 exactly when
// batching happens.
func BenchmarkE17MixedWriters(b *testing.B) {
	db, err := sedna.Open(b.TempDir(), &sedna.Options{BufferPages: 8192})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const writers = 4
	for w := 0; w < writers; w++ {
		doc := fmt.Sprintf("w%d", w)
		if err := db.LoadXMLString(doc, "<library><book><title>seed</title></book></library>"); err != nil {
			b.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			q := fmt.Sprintf(`count(doc("w%d")/library/book)`, r)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Query(q); err != nil {
					b.Error(err)
					return
				}
			}
		}(r)
	}
	fsyncs0 := db.Metrics().Snapshot().Counters["wal.fsyncs"]
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := b.N / writers
			if w < b.N%writers {
				n++
			}
			stmt := fmt.Sprintf(`UPDATE insert <book><title>x</title></book> into doc("w%d")/library`, w)
			for i := 0; i < n; i++ {
				if _, err := db.Execute(stmt); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	close(stop)
	readers.Wait()
	fsyncs := db.Metrics().Snapshot().Counters["wal.fsyncs"] - fsyncs0
	b.ReportMetric(float64(fsyncs)/float64(b.N), "fsyncs/commit")
}

// ---------------------------------------------------------------- E18 ----
// Intra-query parallel execution (§4.1, §5.1): one statement's descendant
// range scans and for-clause bindings fan out over an explicit worker
// budget. On a single-core host the family is flat; the per-level speedup
// appears once cores exist. Output is byte-identical at every level (the
// parallel-vs-serial property test pins this).

func openSections(b *testing.B) *sedna.DB {
	b.Helper()
	db, err := bench.OpenDB(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if err := bench.LoadSections(db, 16, 250); err != nil {
		b.Fatal(err)
	}
	return db
}

func benchmarkE18Workers(b *testing.B, workers int) {
	db := openSections(b)
	q := `sum(for $i in doc("cat")//item where $i/value > 2500 return number($i/value))`
	if _, _, err := bench.QueryWorkers(db, q, workers); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.QueryWorkers(db, q, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE18ParallelQuery1(b *testing.B) { benchmarkE18Workers(b, 1) }
func BenchmarkE18ParallelQuery2(b *testing.B) { benchmarkE18Workers(b, 2) }
func BenchmarkE18ParallelQuery4(b *testing.B) { benchmarkE18Workers(b, 4) }
func BenchmarkE18ParallelQuery8(b *testing.B) { benchmarkE18Workers(b, 8) }

// BenchmarkE18SerialFallback times a node-constructing FLWOR under a large
// worker budget: the safety analysis forces it serial, so the cost must
// match a workers=1 run (the fallback itself is free).
func BenchmarkE18SerialFallback(b *testing.B) {
	db := openSections(b)
	q := `for $i in doc("cat")/catalog/sec0/item[value > 9000] return <v>{$i/value/text()}</v>`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.QueryWorkers(db, q, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------- E19 ----
// Chain-following scan readahead (§2.3, §4.1): a block-list scan over a
// cold buffer pool pays one synchronous pread per chain block it faults in;
// with readahead the asynchronous workers follow the chain ahead of the
// scan, so it finds the blocks they reached first already resident. The
// timed region is open + scan: the open-time block recount is itself the
// engine's biggest chain walk. Results are identical at every depth.

func benchmarkE19ColdScan(b *testing.B, depth int) {
	dir := b.TempDir()
	db, err := bench.OpenDB(dir)
	if err != nil {
		b.Fatal(err)
	}
	if err := bench.LoadSections(db, 8, 1000); err != nil {
		b.Fatal(err)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	q := `count(doc("cat")//item[value > 5000])`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := bench.OpenDBPrefetch(dir, nil, depth)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := bench.Query(db, q, true); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkE19ColdScanDepth0(b *testing.B)  { benchmarkE19ColdScan(b, 0) }
func BenchmarkE19ColdScanDepth2(b *testing.B)  { benchmarkE19ColdScan(b, 2) }
func BenchmarkE19ColdScanDepth8(b *testing.B)  { benchmarkE19ColdScan(b, 8) }
func BenchmarkE19ColdScanDepth32(b *testing.B) { benchmarkE19ColdScan(b, 32) }

// TestE19DepthResultsIdentical pins the E19 correctness property: the same
// statement returns byte-identical results at every readahead depth,
// including forced-off, on both warm and cold pools.
func TestE19DepthResultsIdentical(t *testing.T) {
	dir := t.TempDir()
	db, err := bench.OpenDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.LoadSections(db, 4, 300); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`count(doc("cat")//item[value > 5000])`,
		`sum(for $i in doc("cat")//item where $i/value > 2500 return number($i/value))`,
		`doc("cat")/catalog/sec0/item[1]/value`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		res, _, err := bench.QueryPrefetch(db, q, -1)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	for _, depth := range []int{0, 2, 8, 32} {
		for i, q := range queries {
			got, _, err := bench.QueryPrefetch(db, q, depth)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i] {
				t.Fatalf("depth=%d warm result diverges for %s", depth, q)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{0, 8} {
		db, err := bench.OpenDBPrefetch(dir, nil, depth)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			got, _, err := bench.Query(db, q, true)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i] {
				t.Fatalf("depth=%d cold result diverges for %s", depth, q)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
