package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"sedna"
	"sedna/internal/bench"
	"sedna/internal/buffer"
	"sedna/internal/core"
	"sedna/internal/nid"
	"sedna/internal/pagefile"
	"sedna/internal/query"
	"sedna/internal/sas"
	"sedna/internal/subtree"
	"sedna/internal/xmlgen"
)

func (s *session) openLoaded(entries int) (*sedna.DB, func(), error) {
	dir, cleanup, err := bench.TempDir("sedna-bench-*")
	if err != nil {
		return nil, nil, err
	}
	db, err := bench.OpenDB(dir)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	if err := bench.LoadLibrary(db, entries*s.scale); err != nil {
		db.Close()
		cleanup()
		return nil, nil, err
	}
	return db, func() { db.Close(); cleanup() }, nil
}

// noRewrite and noVirtualCtors are the baselines of the experiments that
// switch one mechanism of the executor off.
var (
	noRewrite      = func(c *query.ExecCtx) { c.NoRewrite = true }
	noVirtualCtors = func(c *query.ExecCtx) { c.NoVirtualCtors = true }
)

// compareQueries times each query with the rewriter on and off and prints
// one row per query.
func compareQueries(title string, queries []string, reps int, db *sedna.DB) error {
	run := func(q string, baseline func(*query.ExecCtx)) error {
		_, _, err := bench.Query(db.Internal(), q, baseline)
		return err
	}
	var rows [][]string
	for _, q := range queries {
		opt, err := timeIt(reps, func() error { return run(q, nil) })
		if err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
		naive, err := timeIt(reps, func() error { return run(q, noRewrite) })
		if err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
		label := q
		if len(label) > 60 {
			label = label[:57] + "..."
		}
		rows = append(rows, []string{label, dur(opt), dur(naive), ratio(naive, opt)})
	}
	table([]string{title, "optimized", "baseline", "speedup"}, rows)
	return nil
}

func runE1(s *session) error {
	entries := 1500 * s.scale
	db, cleanup, err := s.openLoaded(entries)
	if err != nil {
		return err
	}
	defer cleanup()
	st, tx, err := bench.SubtreeStore(db, entries)
	if err != nil {
		return err
	}
	defer tx.Rollback()

	// Selective retrieval: publishers only (~1/40 of the nodes).
	schemaSel, err := timeIt(20, func() error {
		_, _, err := bench.Query(db.Internal(), `count(doc("lib")//publisher)`, nil)
		return err
	})
	if err != nil {
		return err
	}
	subtreeSel, err := timeIt(20, func() error {
		return st.Scan(tx.Tx, func(r subtree.Rec) (bool, error) { return true, nil })
	})
	if err != nil {
		return err
	}

	// Whole-element retrieval: one mid-document book.
	var rec subtree.Rec
	seen := 0
	st.Scan(tx.Tx, func(r subtree.Rec) (bool, error) {
		if r.Kind == subtree.KindElement && r.Name == "book" {
			seen++
			if seen == entries/2 {
				rec = r
				return false, nil
			}
		}
		return true, nil
	})
	schemaWhole, err := timeIt(50, func() error {
		_, _, err := bench.Query(db.Internal(), fmt.Sprintf(`doc("lib")/library/book[%d]`, entries/2), nil)
		return err
	})
	if err != nil {
		return err
	}
	subtreeWhole, err := timeIt(50, func() error {
		_, err := st.ReadSubtreeBytes(tx.Tx, rec.Pos, rec.SubtreeLen)
		return err
	})
	if err != nil {
		return err
	}
	table(
		[]string{"workload", "schema-driven", "subtree-based", "winner"},
		[][]string{
			{"selective (//publisher)", dur(schemaSel), dur(subtreeSel),
				"schema-driven " + ratio(subtreeSel, schemaSel)},
			{"whole element (book[n/2])", dur(schemaWhole), dur(subtreeWhole),
				"subtree " + ratio(schemaWhole, subtreeWhole)},
		})
	fmt.Println("expected shape: schema-driven wins selective retrieval; subtree wins whole-element reads")
	return nil
}

func runE2(s *session) error {
	n := 5000 * s.scale
	rng := rand.New(rand.NewSource(5))
	// Sedna labels.
	start := time.Now()
	parent := nid.Root()
	var sibs []nid.Label
	for i := 0; i < n; i++ {
		at := 0
		if len(sibs) > 0 {
			at = rng.Intn(len(sibs) + 1)
		}
		var left, right *nid.Label
		if at > 0 {
			left = &sibs[at-1]
		}
		if at < len(sibs) {
			right = &sibs[at]
		}
		l := nid.Between(parent, left, right)
		sibs = append(sibs, nid.Label{})
		copy(sibs[at+1:], sibs[at:])
		sibs[at] = l
	}
	sednaTime := time.Since(start)
	maxLen := 0
	for _, l := range sibs {
		if len(l.Prefix) > maxLen {
			maxLen = len(l.Prefix)
		}
	}

	// XISS intervals.
	rng = rand.New(rand.NewSource(5))
	start = time.Now()
	tr := nid.NewXISS(8)
	for i := 0; i < n; i++ {
		at := 0
		if len(tr.Root.Children) > 0 {
			at = rng.Intn(len(tr.Root.Children) + 1)
		}
		tr.InsertChild(tr.Root, at)
	}
	xissTime := time.Since(start)

	table(
		[]string{"scheme", fmt.Sprintf("time (%d inserts)", n), "document relabels", "max label bytes"},
		[][]string{
			{"Sedna (prefix,delim)", xissOrSedna(sednaTime), "0", fmt.Sprint(maxLen)},
			{"XISS intervals", xissOrSedna(xissTime), fmt.Sprint(tr.Relabels() - 1), "16 (two uint64)"},
		})
	fmt.Println("expected shape: the string scheme never relabels; intervals relabel repeatedly as gaps exhaust")
	return nil
}

func xissOrSedna(d time.Duration) string { return d.Round(time.Microsecond).String() }

func runE3(s *session) error {
	dir, cleanup, err := bench.TempDir("sedna-e3-*")
	if err != nil {
		return err
	}
	defer cleanup()
	pf, err := pagefile.Open(dir+"/d.sdb", pagefile.Options{NoSync: true})
	if err != nil {
		return err
	}
	defer pf.Close()
	snap, err := pagefile.OpenSnapArea(dir+"/d.snap", pagefile.Options{NoSync: true})
	if err != nil {
		return err
	}
	defer snap.Close()
	m := buffer.New(pf, snap, 512)
	ptrs := make([]sas.XPtr, 256)
	for i := range ptrs {
		id, _ := pf.Alloc()
		ptrs[i] = id.Ptr().Add(uint32(i * 8))
	}
	const derefs = 2_000_000
	// Warm both paths.
	sw := buffer.NewSwizzleDeref(m)
	for _, p := range ptrs {
		f, err := m.Deref(p)
		if err != nil {
			return err
		}
		m.Unpin(f)
		f, err = sw.Deref(p)
		if err != nil {
			return err
		}
		m.Unpin(f)
	}
	start := time.Now()
	for i := 0; i < derefs; i++ {
		f, err := m.Deref(ptrs[i%len(ptrs)])
		if err != nil {
			return err
		}
		m.Unpin(f)
	}
	layer := time.Since(start)
	start = time.Now()
	for i := 0; i < derefs; i++ {
		f, err := sw.Deref(ptrs[i%len(ptrs)])
		if err != nil {
			return err
		}
		m.Unpin(f)
	}
	swiz := time.Since(start)
	st := m.Stats()
	table(
		[]string{"dereference path", fmt.Sprintf("time (%dM derefs)", derefs/1_000_000), "ns/deref", "faults"},
		[][]string{
			{"layer-mapped (SAS=VAS)", dur(layer), fmt.Sprintf("%.1f", float64(layer.Nanoseconds())/derefs), fmt.Sprint(st.Faults)},
			{"swizzling (hash translate)", dur(swiz), fmt.Sprintf("%.1f", float64(swiz.Nanoseconds())/derefs), "-"},
		})
	fmt.Println("expected shape: layer-mapped deref at or below the swizzling cost, with no translation structure")
	return nil
}

func runE5(s *session) error {
	db, cleanup, err := s.openLoaded(1500)
	if err != nil {
		return err
	}
	defer cleanup()
	return compareQueries("query (DDO removal on/off)", []string{
		`count(doc("lib")/library/book/title)`,
		`count(doc("lib")/library/book/author)`,
		`count(doc("lib")/library/book/issue/year)`,
	}, 15, db)
}

func runE6(s *session) error {
	db, cleanup, err := s.openLoaded(1500)
	if err != nil {
		return err
	}
	defer cleanup()
	return compareQueries("query (//-combining on/off)", []string{
		`count(doc("lib")//publisher)`,
		`count(doc("lib")//author)`,
		`count(doc("lib")//issue/year)`,
	}, 15, db)
}

func runE7(s *session) error {
	db, cleanup, err := s.openLoaded(120)
	if err != nil {
		return err
	}
	defer cleanup()
	return compareQueries("nested FLWOR (lazy clause on/off)", []string{
		`count(for $b in doc("lib")/library/book
		       for $p in doc("lib")//publisher
		       where $b/year = 1995 return 1)`,
	}, 5, db)
}

func runE8(s *session) error {
	db, cleanup, err := s.openLoaded(1500)
	if err != nil {
		return err
	}
	defer cleanup()
	return compareQueries("structural path (schema-level on/off)", []string{
		`count(doc("lib")/library/book/issue/publisher)`,
		`count(doc("lib")/library/paper/title)`,
	}, 15, db)
}

func runE9(s *session) error {
	// A corpus with sizable text values: deep copies pay per byte.
	dir, cleanup, err := bench.TempDir("sedna-e9-*")
	if err != nil {
		return err
	}
	defer cleanup()
	db, err := bench.OpenDB(dir)
	if err != nil {
		return err
	}
	defer db.Close()
	var sb strings.Builder
	sb.WriteString("<r>")
	blob := strings.Repeat("lorem ipsum dolor sit amet ", 40) // ~1 KiB
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "<item n=%q><body>%s</body></item>", fmt.Sprint(i), blob)
	}
	sb.WriteString("</r>")
	if err := db.LoadXMLString("big", sb.String()); err != nil {
		return err
	}
	q := `<result>{doc("big")/r/item}</result>`
	virt, err := timeIt(10, func() error {
		_, _, err := bench.Query(db.Internal(), q, nil)
		return err
	})
	if err != nil {
		return err
	}
	outV, stV, _ := bench.Query(db.Internal(), q, nil)
	deep, err := timeIt(10, func() error {
		_, _, err := bench.Query(db.Internal(), q, noVirtualCtors)
		return err
	})
	if err != nil {
		return err
	}
	outD, stD, _ := bench.Query(db.Internal(), q, noVirtualCtors)
	if outV != outD {
		return fmt.Errorf("virtual and deep-copy serializations differ")
	}
	table(
		[]string{"constructor mode", "time", "deep copies", "bytes copied"},
		[][]string{
			{"virtual (references)", dur(virt), fmt.Sprint(stV.DeepCopies), fmt.Sprint(stV.BytesCopied)},
			{"deep copy (naive)", dur(deep), fmt.Sprint(stD.DeepCopies), fmt.Sprint(stD.BytesCopied)},
		})
	fmt.Println("expected shape: zero copies and less time under virtual constructors; identical output")
	return nil
}

func runE11(s *session) error {
	db, cleanup, err := s.openLoaded(1500)
	if err != nil {
		return err
	}
	defer cleanup()
	var rows [][]string
	for _, docs := range []int{1, 8} {
		for d := 1; d < docs; d++ {
			if err := db.LoadXMLString(fmt.Sprintf("extra%d", d), "<r/>"); err != nil {
				return err
			}
		}
		t, err := timeIt(5000, func() error {
			tx, err := db.BeginReadOnly()
			if err != nil {
				return err
			}
			return tx.Rollback()
		})
		if err != nil {
			return err
		}
		rows = append(rows, []string{fmt.Sprint(docs), t.String()})
	}
	table([]string{"documents in DB", "snapshot begin+release"}, rows)
	fmt.Println("expected shape: microseconds, independent of database size (a snapshot is just a timestamp)")
	return nil
}

func runE13(s *session) error {
	var rows [][]string
	for _, txns := range []int{10, 100, 400} {
		dir, cleanup, err := bench.TempDir("sedna-e13-*")
		if err != nil {
			return err
		}
		db, err := core.Open(dir, core.Options{NoSync: true})
		if err != nil {
			cleanup()
			return err
		}
		tx, _ := db.Begin()
		tx.LoadXML("lib", strings.NewReader(xmlgen.LibraryString(200, 1)))
		tx.Commit()
		db.Checkpoint()
		for j := 0; j < txns; j++ {
			tx, _ := db.Begin()
			if _, err := query.Execute(query.NewExecCtx(tx),
				fmt.Sprintf(`UPDATE insert <x n="%d"/> into doc("lib")/library`, j)); err != nil {
				cleanup()
				return err
			}
			tx.Commit()
		}
		logSize := db.LogSize()
		db.CrashForTesting()
		start := time.Now()
		db2, err := core.Open(dir, core.Options{NoSync: true})
		if err != nil {
			cleanup()
			return err
		}
		rec := time.Since(start)
		db2.Close()
		cleanup()
		rows = append(rows, []string{fmt.Sprint(txns), fmt.Sprintf("%d KiB", logSize/1024), dur(rec)})
	}
	table([]string{"committed txns since checkpoint", "log size", "recovery time"}, rows)
	fmt.Println("expected shape: recovery time grows with the redo log, not with database size")
	return nil
}

func runE14(s *session) error {
	db, cleanup, err := s.openLoaded(1500)
	if err != nil {
		return err
	}
	defer cleanup()
	dir, cleanup2, err := bench.TempDir("sedna-e14-*")
	if err != nil {
		return err
	}
	defer cleanup2()

	start := time.Now()
	if err := db.Backup(dir + "/bak"); err != nil {
		return err
	}
	full := time.Since(start)
	fullBytes := dirBytes(dir + "/bak")

	if _, err := db.Execute(`UPDATE insert <x/> into doc("lib")/library`); err != nil {
		return err
	}
	start = time.Now()
	if err := db.BackupIncremental(dir + "/bak"); err != nil {
		return err
	}
	incr := time.Since(start)
	incrBytes := dirBytes(dir+"/bak") - fullBytes
	table(
		[]string{"backup kind", "time", "bytes"},
		[][]string{
			{"full (data+log)", dur(full), fmt.Sprintf("%d KiB", fullBytes/1024)},
			{"incremental (after 1 small txn)", dur(incr), fmt.Sprintf("%d B", incrBytes)},
		})
	fmt.Println("expected shape: incremental backups copy only the log tail — a tiny fraction at low update rates")
	return nil
}

func runE15(s *session) error {
	var rows [][]string
	for _, entries := range []int{100, 1000, 5000} {
		db, cleanup, err := s.openLoaded(entries)
		if err != nil {
			return err
		}
		sn, dn, err := bench.SchemaStats(db, "lib")
		cleanup()
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprint(entries), fmt.Sprint(dn), fmt.Sprint(sn),
			fmt.Sprintf("%.3f%%", 100*float64(sn)/float64(dn)),
		})
	}
	table([]string{"library entries", "document nodes", "schema nodes", "schema share"}, rows)
	fmt.Println("expected shape: schema size constant while the document grows (a DataGuide over fixed structure)")
	return nil
}

// dirBytes sums the sizes of a directory's files.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}
