package query

import (
	"fmt"
	"math/rand"
	"strings"

	"sedna/internal/core"
	"sedna/internal/index"
	"sedna/internal/lock"
	"sedna/internal/opt"
	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
	"sedna/internal/wal"
)

// execDDL runs a data-definition statement.
func execDDL(d *DDL, e *env) (string, error) {
	tx := e.ctx.Tx
	if tx.ReadOnly() {
		return "", fmt.Errorf("query: DDL in a read-only transaction")
	}
	switch d.Kind {
	case DDLCreateDocument:
		if _, err := tx.CreateDocument(d.Name); err != nil {
			return "", err
		}
		return fmt.Sprintf("document %q created", d.Name), nil

	case DDLDropDocument:
		// Drop dependent indexes first.
		for _, ix := range tx.DB().Catalog().IndexesOf(d.Name) {
			if err := dropIndex(e, ix.Name); err != nil {
				return "", err
			}
		}
		if err := tx.DropDocument(d.Name); err != nil {
			return "", err
		}
		return fmt.Sprintf("document %q dropped", d.Name), nil

	case DDLCreateIndex:
		return createIndex(e, d)

	case DDLDropIndex:
		if err := dropIndex(e, d.Name); err != nil {
			return "", err
		}
		return fmt.Sprintf("index %q dropped", d.Name), nil

	case DDLAnalyze:
		return analyzeDocument(e, d.Name)

	default:
		return "", fmt.Errorf("query: unknown DDL kind %d", d.Kind)
	}
}

// createIndex builds a value index: the ON path selects the indexed nodes
// over the descriptive schema, the BY path computes each node's key.
func createIndex(e *env, d *DDL) (string, error) {
	tx := e.ctx.Tx
	cat := tx.DB().Catalog()
	if _, exists := cat.Index(d.Name); exists {
		return "", fmt.Errorf("query: index %q already exists", d.Name)
	}
	doc, err := tx.Document(d.DocName)
	if err != nil {
		return "", err
	}
	if err := tx.LockDocument(d.DocName, lock.Exclusive); err != nil {
		return "", err
	}
	w, ok := e.r.(storage.Writer)
	if !ok {
		return "", fmt.Errorf("query: transaction cannot write")
	}

	meta := &core.IndexMeta{
		Name: d.Name, DocName: d.DocName,
		OnPath:  pathString(d.OnPath),
		ByPath:  pathString(d.ByPath),
		KeyType: d.AsType,
	}
	tree, err := index.Create(w)
	if err != nil {
		return "", err
	}
	meta.Root = tree.Root

	onSet, bySteps, err := indexPaths(e, doc, meta)
	if err != nil {
		return "", err
	}
	count := 0
	var outerErr error
	doc.Schema.Root.Walk(func(sn *schema.Node) {
		if outerErr != nil || !onSet[sn.ID] {
			return
		}
		outerErr = storage.ScanSchema(e.r, sn, func(desc storage.Desc) (bool, error) {
			m := e.ctx.nodes.mark()
			defer e.ctx.nodes.release(m)
			keys, err := indexKeysOf(e, e.node(doc, desc), bySteps, meta.KeyType)
			if err != nil {
				return false, err
			}
			for _, key := range keys {
				if err := tree.Insert(w, key, desc.Handle); err != nil {
					return false, err
				}
			}
			if len(keys) > 0 {
				count++
			}
			return true, nil
		})
	})
	if outerErr != nil {
		return "", outerErr
	}
	meta.Root = tree.Root

	if err := tx.LogRecord(&wal.Record{
		Type: wal.RecCreateIndex, DocID: doc.ID, Name: d.Name,
		Path: strings.Join([]string{meta.OnPath, meta.ByPath, meta.KeyType}, "\x1f"),
	}); err != nil {
		return "", err
	}
	cat.PutIndex(meta)
	tx.Defer(func() { cat.DeleteIndex(d.Name) })
	// The commit publishes the new root with the document's metadata.
	tx.TouchDoc(doc)
	if err := logIndexRoot(e, meta); err != nil {
		return "", err
	}
	return fmt.Sprintf("index %q created over %d node(s)", d.Name, count), nil
}

// Sampled ANALYZE: documents above the node-count threshold build their
// histograms from a per-column reservoir instead of a full value scan. The
// descriptor chains are still walked (that is where the counts live), but
// text — the expensive indirection — is only read for sampled nodes.
const (
	analyzeSampleThreshold = 20000 // document nodes above which ANALYZE samples
	analyzeSampleSize      = 1024  // reservoir size per column
)

// analyzeDocument rebuilds a document's optimizer statistics: an equi-depth
// value histogram plus distinct count per value-bearing schema node
// (attributes and text), total node count and average chain length. Large
// documents are sampled (reservoir per column, Duj1 distinct extrapolation)
// and the snapshot marked Sampled. The snapshot is advisory — it is
// installed in the catalog immediately (and rolled back with the
// transaction), persisted at the next checkpoint, and lost on crash; a stale
// or missing snapshot only costs plan quality, never correctness.
func analyzeDocument(e *env, docName string) (string, error) {
	tx := e.ctx.Tx
	doc, err := tx.Document(docName)
	if err != nil {
		return "", err
	}
	// Shared lock: ANALYZE reads every value in the document and must not
	// interleave with a writer's uncommitted state.
	if err := tx.LockDocument(docName, lock.Shared); err != nil {
		return "", err
	}
	cat := tx.DB().Catalog()

	// Sampling is decided per document (counts come free from the schema),
	// then applied to each column large enough to overflow a reservoir.
	var docNodes uint64
	doc.Schema.Root.Walk(func(sn *schema.Node) { docNodes += sn.NodeCount })
	sampling := docNodes > analyzeSampleThreshold

	stats := &opt.DocStats{Cols: make(map[uint32]*opt.ColStats)}
	var totalNodes, totalBlocks, chains uint64
	var scanErr error
	cols := 0
	doc.Schema.Root.Walk(func(sn *schema.Node) {
		if scanErr != nil {
			return
		}
		totalNodes += sn.NodeCount
		if sn.BlockCount > 0 {
			totalBlocks += uint64(sn.BlockCount)
			chains++
		}
		if sn.Kind != schema.KindAttribute && sn.Kind != schema.KindText {
			return
		}
		var values []string
		if sampling && sn.NodeCount > analyzeSampleSize {
			// Reservoir sampling (algorithm R). The inclusion decision is
			// made before the text read, so skipped nodes cost nothing
			// beyond the descriptor scan; the deterministic seed makes
			// repeated ANALYZE runs of an unchanged document identical.
			rng := rand.New(rand.NewSource(int64(sn.ID)))
			values = make([]string, 0, analyzeSampleSize)
			var idx int64
			scanErr = storage.ScanSchema(e.r, sn, func(desc storage.Desc) (bool, error) {
				if err := e.ctx.checkKilled(); err != nil {
					return false, err
				}
				slot := -1
				if len(values) < analyzeSampleSize {
					slot = len(values)
					values = append(values, "")
				} else if j := rng.Int63n(idx + 1); j < analyzeSampleSize {
					slot = int(j)
				}
				idx++
				if slot < 0 {
					return true, nil
				}
				b, err := storage.Text(e.r, &desc)
				if err != nil {
					return false, err
				}
				values[slot] = string(b)
				return true, nil
			})
			if scanErr != nil {
				return
			}
			if len(values) > 0 {
				stats.Cols[sn.ID] = opt.BuildColSampled(values, sn.NodeCount)
				stats.Sampled = true
				cols++
			}
			return
		}
		scanErr = storage.ScanSchema(e.r, sn, func(desc storage.Desc) (bool, error) {
			if err := e.ctx.checkKilled(); err != nil {
				return false, err
			}
			b, err := storage.Text(e.r, &desc)
			if err != nil {
				return false, err
			}
			values = append(values, string(b))
			return true, nil
		})
		if scanErr != nil {
			return
		}
		if len(values) > 0 {
			stats.Cols[sn.ID] = opt.BuildCol(values)
			cols++
		}
	})
	if scanErr != nil {
		return "", scanErr
	}
	stats.AnalyzedNodes = totalNodes
	if chains > 0 {
		stats.AvgChain = float64(totalBlocks) / float64(chains)
	}
	stats.UpdateBase = cat.Activity(docName).Updates.Load()

	prev := cat.DocStats(docName)
	cat.PutDocStats(docName, stats)
	tx.Defer(func() { cat.PutDocStats(docName, prev) })
	note := ""
	if stats.Sampled {
		note = " (sampled)"
	}
	return fmt.Sprintf("document %q analyzed%s: %d node(s), %d column(s)", docName, note, totalNodes, cols), nil
}

func dropIndex(e *env, name string) error {
	tx := e.ctx.Tx
	cat := tx.DB().Catalog()
	meta, ok := cat.Index(name)
	if !ok {
		return fmt.Errorf("query: index %q does not exist", name)
	}
	if err := tx.LockDocument(meta.DocName, lock.Exclusive); err != nil {
		return err
	}
	w, okw := e.r.(storage.Writer)
	if !okw {
		return fmt.Errorf("query: transaction cannot write")
	}
	tree := &index.Tree{Root: meta.Root}
	if err := tree.FreeAll(w); err != nil {
		return err
	}
	if err := tx.LogRecord(&wal.Record{Type: wal.RecDropIndex, Name: name}); err != nil {
		return err
	}
	cat.DeleteIndex(name)
	tx.Defer(func() { cat.PutIndex(meta) })
	if doc, ok := cat.Doc(meta.DocName); ok {
		tx.TouchDoc(doc)
	}
	return nil
}

// logIndexRoot records the tree root in the WAL so recovery can restore it.
func logIndexRoot(e *env, meta *core.IndexMeta) error {
	return e.ctx.Tx.LogRecord(&wal.Record{
		Type: wal.RecIndexMeta, Name: meta.Name, Ptrs: [5]sas.XPtr{meta.Root},
	})
}

// indexPaths resolves an index's ON path into the set of schema-node IDs it
// denotes and parses its BY path into relative steps.
func indexPaths(e *env, doc *storage.Doc, meta *core.IndexMeta) (map[uint32]bool, []*Step, error) {
	onExpr, err := parseRelPath(meta.OnPath)
	if err != nil {
		return nil, nil, fmt.Errorf("query: index %q ON path: %w", meta.Name, err)
	}
	onSteps, err := pathSteps(onExpr)
	if err != nil {
		return nil, nil, fmt.Errorf("query: index %q ON path: %w", meta.Name, err)
	}
	targets := resolveStructural(doc.Schema.Root, onSteps)
	onSet := make(map[uint32]bool, len(targets))
	for _, sn := range targets {
		onSet[sn.ID] = true
	}

	byExpr, err := parseRelPath(meta.ByPath)
	if err != nil {
		return nil, nil, fmt.Errorf("query: index %q BY path: %w", meta.Name, err)
	}
	bySteps, err := pathSteps(byExpr)
	if err != nil {
		return nil, nil, fmt.Errorf("query: index %q BY path: %w", meta.Name, err)
	}
	return onSet, bySteps, nil
}

// pathSteps decomposes a location-path expression into its steps, accepting
// a doc(...) or root head.
func pathSteps(x Expr) ([]*Step, error) {
	var steps []*Step
	for cur := x; cur != nil; {
		switch n := cur.(type) {
		case *Step:
			steps = append([]*Step{n}, steps...)
			cur = n.Input
		case *DocCall, *Root:
			cur = nil
		default:
			return nil, fmt.Errorf("not a structural location path (%T)", cur)
		}
	}
	return steps, nil
}

// parseRelPath parses a stored path string back into an expression.
func parseRelPath(s string) (Expr, error) {
	if s == "" || s == "." {
		return &Step{Axis: AxisSelf, Test: NodeTest{Kind: TestNode}}, nil
	}
	return ParseExpr(s)
}

// indexKeysOf evaluates the BY path relative to the node and normalizes
// every resulting value into an index key (deduplicated): a node whose BY
// path yields several values is indexed under each of them, matching the
// existential semantics of general comparisons.
func indexKeysOf(e *env, node *NodeItem, bySteps []*Step, keyType string) ([]index.Key, error) {
	items, err := byPathNodes(e, node, bySteps)
	if err != nil || len(items) == 0 {
		return nil, err
	}
	keys := make([]index.Key, 0, len(items))
	seen := make(map[index.Key]struct{}, len(items))
	for _, it := range items {
		a, err := atomize(e, it)
		if err != nil {
			return nil, err
		}
		k := index.KeyFor(keyType, a.StringValue(), a.NumberValue())
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	return keys, nil
}

// evalIndexScan implements the Sedna index-scan("name", value) function:
// the paper keeps index access explicit; the cost-based optimizer's probe
// plans reuse the same machinery through evalIndexProbe.
func evalIndexScan(e *env, name string, value *Atomic) ([]Item, error) {
	e.ctx.stats().AddIndexScans(1)
	sp := e.ctx.pushSpan("index-scan " + name)
	defer e.ctx.popSpan(sp)
	meta, ok := e.ctx.Tx.DB().Catalog().Index(name)
	if !ok {
		return nil, fmt.Errorf("query: index %q does not exist", name)
	}
	doc, err := e.ctx.Tx.Document(meta.DocName)
	if err != nil {
		return nil, err
	}
	if !e.ctx.Tx.ReadOnly() {
		if err := e.ctx.Tx.LockDocument(meta.DocName, lock.Shared); err != nil {
			return nil, err
		}
	}
	root, ok := e.ctx.Tx.IndexRoot(meta)
	if !ok {
		return nil, fmt.Errorf("query: index %q does not exist", name)
	}
	_, bySteps, err := indexPaths(e, doc, meta)
	if err != nil {
		return nil, err
	}
	tree := &index.Tree{Root: root}
	key := index.KeyFor(meta.KeyType, value.StringValue(), value.NumberValue())
	handles, err := tree.Lookup(e.r, key)
	if err != nil {
		return nil, err
	}
	sp.SetInt("candidates", int64(len(handles)))
	var out []Item
	seen := make(map[sas.XPtr]struct{}, len(handles))
	for _, h := range handles {
		if _, dup := seen[h]; dup {
			continue
		}
		seen[h] = struct{}{}
		node, err := e.byHandle(doc, h)
		if err != nil {
			return nil, err
		}
		match, err := byPathMatchesEq(e, node, bySteps, meta.KeyType, key, value)
		if err != nil {
			return nil, err
		}
		if match {
			out = append(out, node)
		}
	}
	sp.SetInt("nodes", int64(len(out)))
	return out, nil
}

// byPathNodes evaluates an index's BY path relative to node.
func byPathNodes(e *env, node *NodeItem, bySteps []*Step) ([]Item, error) {
	items := []Item{node}
	for _, st := range bySteps {
		k := collector{e: e}
		for _, it := range items {
			if err := axisStored(e, it.(*NodeItem), st.Axis, st.Test, &k); err != nil {
				return nil, err
			}
		}
		items = k.out
	}
	return items, nil
}

// byPathMatchesEq rechecks one index candidate against the probe value: the
// BY path may yield several values (existential semantics), and the
// fixed-size key prefix is imprecise for long strings, so string keys verify
// the full value.
func byPathMatchesEq(e *env, node *NodeItem, bySteps []*Step, keyType string, key index.Key, value *Atomic) (bool, error) {
	items, err := byPathNodes(e, node, bySteps)
	if err != nil {
		return false, err
	}
	for _, it := range items {
		a, err := atomize(e, it)
		if err != nil {
			return false, err
		}
		if index.KeyFor(keyType, a.StringValue(), a.NumberValue()) != key {
			continue
		}
		if keyType == "string" && a.StringValue() != value.StringValue() {
			continue
		}
		return true, nil
	}
	return false, nil
}

// pathString renders a structural path expression back to source form for
// catalog persistence.
func pathString(x Expr) string {
	var parts []string
	for cur := x; cur != nil; {
		switch n := cur.(type) {
		case *Step:
			parts = append([]string{stepString(n)}, parts...)
			cur = n.Input
		case *DocCall:
			parts = append([]string{fmt.Sprintf("doc(%q)", n.Name)}, parts...)
			cur = nil
		case *Root:
			cur = nil
		default:
			cur = nil
		}
	}
	return strings.Join(parts, "/")
}

func stepString(s *Step) string {
	var test string
	switch s.Test.Kind {
	case TestName:
		test = s.Test.Name
	case TestNode:
		test = "node()"
	case TestText:
		test = "text()"
	case TestComment:
		test = "comment()"
	case TestPI:
		test = "processing-instruction()"
	case TestElement:
		test = "element(" + s.Test.Name + ")"
	case TestAttrTest:
		test = "attribute(" + s.Test.Name + ")"
	}
	switch s.Axis {
	case AxisChild:
		return test
	case AxisAttribute:
		if s.Test.Kind == TestName || s.Test.Kind == TestAttrTest {
			return "@" + s.Test.Name
		}
		return "attribute::" + test
	case AxisSelf:
		return "self::" + test
	default:
		return s.Axis.String() + "::" + test
	}
}
