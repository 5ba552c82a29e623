package query

// The cost-based structural optimizer. It runs between the rule-based
// rewriter and the executor. For every location step whose chain resolves
// over the descriptive schema (§5.1.4) it resolves the step's schema nodes
// once, in schema order, and keeps them on the step's plan (Step.Plan), which
// the scan and the probe then read. It estimates the step's rows: NodeCount
// sums for structural steps, histogram selectivity for comparison
// predicates. When a value index can answer a predicate it costs the one
// decision the executor acts on, index probe against structural scan. The
// plan is surfaced through EXPLAIN (the costs table), PROFILE (estimated vs
// actual rows) and the opt.* metrics. Plans never change results: the index
// probe rechecks every predicate on its candidates.

import (
	"math"
	"sort"

	"sedna/internal/index"
	"sedna/internal/nid"
	"sedna/internal/opt"
	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
)

// optimizeStatement plans every eligible step of a query statement and the
// target selection of an update statement; it is a no-op for DDL. The only
// error is a document lock a plan could not get.
//
// An update's target selection (§5.2: select the targets, then modify them
// by node handle) keeps only the plans that chose a value-index probe. The
// probe is safe inside the writing transaction: it rechecks every
// predicate, the targets are fully evaluated before the first modification,
// and indexes are maintained synchronously in-transaction, so the statement
// reads its transaction's own earlier writes.
func optimizeStatement(ctx *ExecCtx, st *Statement) error {
	clearPlans(st)
	if ctx.Tx == nil || ctx.Tx.DB() == nil {
		return nil
	}
	var planned, probes uint64
	var lockErr error
	plan := func(x Expr, probesOnly bool) {
		s, ok := x.(*Step)
		if !ok || lockErr != nil || probesOnly && len(s.Preds) == 0 {
			return
		}
		p, err := planStep(ctx, s)
		lockErr = err
		if p == nil {
			return
		}
		planned++
		if p.Probe != nil {
			probes++
		} else if probesOnly {
			return
		}
		s.Plan = p
	}
	switch {
	case st.Update != nil:
		walkExpr(st.Update.Target, func(x Expr) { plan(x, true) })
	case st.Query != nil:
		for _, v := range st.Prolog.Vars {
			walkExpr(v.Seq, func(x Expr) { plan(x, false) })
		}
		walkExpr(st.Query, func(x Expr) { plan(x, false) })
	}
	if reg := ctx.registry(); reg != nil && planned > 0 {
		reg.Counter("opt.plans_costed").Add(planned)
		if probes > 0 {
			reg.Counter("opt.index_chosen").Add(probes)
		}
	}
	return lockErr
}

// clearPlans drops every step plan of the statement. A tree is executed
// again — a session's template (template.go), a benchmark's parsed
// statement — so each execution plans afresh against its own snapshot, and a
// run without the optimizer must not inherit plans from an earlier one.
func clearPlans(st *Statement) {
	visit := func(x Expr) {
		if s, ok := x.(*Step); ok {
			s.Plan = nil
		}
	}
	for _, v := range st.Prolog.Vars {
		walkExpr(v.Seq, visit)
	}
	walkExpr(st.Query, visit)
	if st.Update != nil {
		walkExpr(st.Update.Target, visit)
		walkExpr(st.Update.Source, visit)
	}
}

// planStep plans one step whose chain resolves over the schema: it resolves
// the step's targets once, estimates its rows and, when an index can answer
// a predicate, costs the probe against the structural scan. nil: the step is
// not schema-resolvable, or there is nothing to decide. The error is a
// document lock the plan could not get: an update transaction reads the
// live document, so it is locked (as execution would lock it anyway) before
// its schema is resolved, and the resolution then holds for the statement.
func planStep(ctx *ExecCtx, s *Step) (*StepPlan, error) {
	if len(s.Preds) == 0 && !s.Structural {
		return nil, nil
	}
	docCall, steps := structuralChain(s, true)
	if docCall == nil {
		return nil, nil
	}
	doc, err := ctx.Tx.Document(docCall.Name)
	if err != nil {
		return nil, nil
	}
	cat := ctx.Tx.DB().Catalog()
	stats := cat.DocStats(doc.Name)
	if stats.Stale(cat.Activity(doc.Name).Updates.Load()) {
		stats = nil // stale histograms mislead; estimate from the defaults
	}
	if len(s.Preds) == 0 && stats == nil {
		// Without fresh statistics the executor's own heuristics decide;
		// planning here would change behavior on never-analyzed documents.
		return nil, nil
	}
	if err := ctx.lockDocForRead(doc.Name); err != nil {
		return nil, err
	}
	targets := resolveStructural(steps, doc.Schema.Root)
	if len(targets) == 0 {
		return nil, nil
	}
	var nodes, blocks float64
	for _, sn := range targets {
		nodes += float64(sn.NodeCount)
		blocks += float64(sn.BlockCount)
	}
	p := &StepPlan{EstRows: nodes, Targets: targets, doc: doc}
	if len(s.Preds) == 0 {
		return p, nil // the row count is exact, and there is nothing to choose
	}
	p.Sampled = stats != nil && stats.Sampled
	preds := make([]predEstimate, len(s.Preds))
	sel := 1.0
	for i, pred := range s.Preds {
		preds[i].cmp = decomposeCmp(pred)
		preds[i].sel = predSelectivity(targets, stats, preds[i].cmp)
		sel *= preds[i].sel
	}
	p.EstRows = nodes * sel
	probe, probeSel := findProbe(ctx, s, doc, targets, preds)
	if probe == nil {
		if stats == nil {
			// No probe and no statistics: don't claim a plan (and an
			// estimate) the executor will ignore.
			return nil, nil
		}
		return p, nil
	}
	p.ScanCost = opt.ScanCost(blocks, nodes, len(s.Preds))
	if stats == nil && probe.Op == opt.CmpEq {
		p.ProbeCost = opt.GuessedEqProbeCost(nodes)
	} else {
		p.ProbeCost = opt.ProbeCost(nodes * probeSel)
	}
	if p.ProbeCost < p.ScanCost {
		p.Probe = probe
	}
	return p, nil
}

// targetsIn returns the plan's targets when it was made over doc, nil when
// there is no plan or it was made over another document.
func (p *StepPlan) targetsIn(doc *storage.Doc) []*schema.Node {
	if p == nil || p.doc != doc {
		return nil
	}
	return p.Targets
}

// predEstimate is one predicate of a planned step: its comparison, when it
// is one, and the fraction of the step's nodes it keeps.
type predEstimate struct {
	cmp *cmpPred
	sel float64
}

// cmpPred is a decomposed comparison predicate: a relative path compared to
// a literal.
type cmpPred struct {
	steps    []*Step
	op       opt.CmpOp
	isString bool
	s        string
	f        float64
}

// decomposeCmp recognizes `relpath op literal` (either operand order) for
// the general comparisons =, <, <=, >, >=.
func decomposeCmp(pred Expr) *cmpPred {
	b, ok := pred.(*Binary)
	if !ok {
		return nil
	}
	var op opt.CmpOp
	switch b.Op {
	case OpEq:
		op = opt.CmpEq
	case OpLt:
		op = opt.CmpLt
	case OpLe:
		op = opt.CmpLe
	case OpGt:
		op = opt.CmpGt
	case OpGe:
		op = opt.CmpGe
	default:
		return nil
	}
	path, lit := b.Left, b.Right
	mirrored := false
	if _, isLit := path.(*Literal); isLit {
		path, lit = lit, path
		mirrored = true
	}
	l, ok := lit.(*Literal)
	if !ok {
		return nil
	}
	steps := relPathSteps(path)
	if steps == nil {
		return nil
	}
	if mirrored {
		switch op {
		case opt.CmpLt:
			op = opt.CmpGt
		case opt.CmpLe:
			op = opt.CmpGe
		case opt.CmpGt:
			op = opt.CmpLt
		case opt.CmpGe:
			op = opt.CmpLe
		}
	}
	return &cmpPred{steps: steps, op: op, isString: l.IsString, s: l.String, f: l.Number}
}

// relPathSteps decomposes a relative (context-anchored) location path into
// its steps, nil when the expression is anything else.
func relPathSteps(x Expr) []*Step {
	var steps []*Step
	cur := x
	for {
		st, ok := cur.(*Step)
		if !ok {
			return nil
		}
		if len(st.Preds) > 0 {
			return nil
		}
		switch st.Axis {
		case AxisChild, AxisDescendant, AxisDescendantOrSelf, AxisAttribute, AxisSelf:
		default:
			return nil
		}
		steps = append([]*Step{st}, steps...)
		switch in := st.Input.(type) {
		case nil:
			return steps
		case *ContextItem:
			return steps
		case *Step:
			cur = in
		default:
			return nil
		}
	}
}

// predSelectivity estimates the fraction of the step's nodes a predicate
// keeps. A comparison reads, for each target, the column its path reaches,
// and takes the mean of their selectivities weighted by each target's node
// count; a target without statistics counts with the System R defaults.
// Anything else keeps half (the System R default for opaque predicates).
func predSelectivity(targets []*schema.Node, stats *opt.DocStats, c *cmpPred) float64 {
	if c == nil {
		return 0.5
	}
	sel := func(col *opt.ColStats) float64 { return col.Selectivity(c.op, c.isString, c.s, c.f) }
	var sum, weight float64
	if stats != nil {
		for _, t := range targets {
			w := float64(t.NodeCount)
			sum += w * sel(colOf(t, stats, c.steps))
			weight += w
		}
	}
	if weight == 0 {
		return sel(nil) // no statistics, or no nodes to weigh: the defaults
	}
	return sum / weight
}

// colOf resolves a relative path from one target schema node to the
// value-bearing schema node ANALYZE collected, returning the first such
// column in schema order (nil → defaults). An element resolves through its
// text child, which is where the comparable value lives.
func colOf(target *schema.Node, stats *opt.DocStats, steps []*Step) *opt.ColStats {
	for _, sn := range resolveStructural(steps, target) {
		switch sn.Kind {
		case schema.KindAttribute, schema.KindText:
			if c := stats.Col(sn.ID); c != nil {
				return c
			}
		case schema.KindElement:
			for _, ch := range sn.Children {
				if ch.Kind == schema.KindText {
					if c := stats.Col(ch.ID); c != nil {
						return c
					}
				}
			}
		}
	}
	return nil
}

// findProbe looks for a value index that can answer one of the step's
// predicates, returning the probe and that predicate's selectivity estimate.
// Requirements: every predicate position-free (a probe yields a set, not a
// positional sequence), an index over this document whose ON set covers all
// of the step's schema targets, and a predicate comparing the index's BY
// path against a literal of the index's key type. Equality probes are
// preferred over range probes.
func findProbe(ctx *ExecCtx, s *Step, doc *storage.Doc, targets []*schema.Node, preds []predEstimate) (*IndexProbe, float64) {
	if !predsPositionFree(s.Preds) {
		return nil, 0
	}
	var best *IndexProbe
	bestSel := 0.0
	for _, meta := range ctx.Tx.DB().Catalog().IndexesOf(doc.Name) {
		ix, err := ctx.indexPaths(doc, meta)
		if err != nil || !ix.covers(targets) {
			continue
		}
		for _, pe := range preds {
			cmp := pe.cmp
			if cmp == nil || !stepsMatch(cmp.steps, ix.paths.by) {
				continue
			}
			if (meta.KeyType == "number") == cmp.isString {
				continue // literal type must match the key encoding
			}
			probe := &IndexProbe{Index: meta.Name, Op: cmp.op, IsString: cmp.isString, S: cmp.s, F: cmp.f}
			if best == nil || (probe.Op == opt.CmpEq && best.Op != opt.CmpEq) || pe.sel < bestSel {
				best, bestSel = probe, pe.sel
			}
		}
	}
	return best, bestSel
}

// stepsMatch compares a predicate's relative path against an index BY path
// step for step: same axes, same node tests.
func stepsMatch(a, b []*Step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Axis != b[i].Axis || a[i].Test.Kind != b[i].Test.Kind || a[i].Test.Name != b[i].Test.Name {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Probe execution.

// keyRange maps a probe comparison onto B+tree key bounds. The bounds are a
// superset of the true matches (the fixed-size key prefix is weakly
// order-preserving, and range bounds include the boundary key); the full
// predicate recheck on every candidate makes the result exact.
func keyRange(keyType string, p *IndexProbe) (lo, hi index.Key) {
	k := index.KeyFor(keyType, p.S, p.F)
	lo, hi = k, k
	switch p.Op {
	case opt.CmpEq:
		return lo, hi
	case opt.CmpLt, opt.CmpLe:
		lo = index.Key{}
		lo[0] = k[0]
	case opt.CmpGt, opt.CmpGe:
		hi = index.Key{}
		hi[0] = k[0]
		for i := 1; i < len(hi); i++ {
			hi[i] = 0xFF
		}
	}
	return lo, hi
}

// evalIndexProbe executes a planned index probe: probe the B+tree for
// candidate handles, keep those whose schema node is one of the plan's
// targets, sort into document order, then recheck every predicate.
// handled=false (index or document gone since planning, or index not there
// at the snapshot) sends the caller to normal evaluation.
func evalIndexProbe(s *Step, e *env) ([]Item, bool, error) {
	probe := s.Plan.Probe
	ctx := e.ctx
	meta, ok := ctx.Tx.DB().Catalog().Index(probe.Index)
	if !ok {
		return nil, false, nil
	}
	doc, err := ctx.Tx.Document(meta.DocName)
	if err != nil || s.Plan.targetsIn(doc) == nil {
		return nil, false, nil
	}
	if err := ctx.lockDocForRead(doc.Name); err != nil {
		return nil, true, err
	}
	root, ok := ctx.Tx.IndexRoot(meta)
	if !ok {
		return nil, false, nil
	}
	sp := ctx.pushSpan("index-probe " + probe.Index)
	defer ctx.popSpan(sp)
	ctx.stats().AddIndexScans(1)
	if reg := ctx.registry(); reg != nil {
		reg.Counter("opt.index_probes").Inc()
	}

	lo, hi := keyRange(meta.KeyType, probe)
	tree := &index.Tree{Root: root}
	var handles []sas.XPtr
	seen := make(map[sas.XPtr]struct{})
	if err := tree.Range(e.r, lo, hi, func(_ index.Key, h sas.XPtr) bool {
		if _, dup := seen[h]; !dup {
			seen[h] = struct{}{}
			handles = append(handles, h)
		}
		return true
	}); err != nil {
		return nil, true, err
	}
	sp.SetInt("candidates", int64(len(handles)))

	nodes := make([]Item, 0, len(handles))
	for _, h := range handles {
		if err := ctx.checkKilled(); err != nil {
			return nil, true, err
		}
		n, err := e.byHandle(doc, h)
		if err != nil {
			return nil, true, err
		}
		if hasSchemaID(s.Plan.Targets, n.D.SchemaID) {
			nodes = append(nodes, n)
		}
	}
	// Document order: candidates come back in key order, the result must be
	// in NID order (which also satisfies any pending DDO requirement).
	sort.Slice(nodes, func(i, j int) bool {
		return nid.Compare(nodes[i].(*NodeItem).D.Label, nodes[j].(*NodeItem).D.Label) < 0
	})
	out, err := applyPredicates(nodes, s.Preds, e)
	if err != nil {
		return nil, true, err
	}
	sp.SetInt("nodes", int64(len(out)))
	return out, true, nil
}

// recordEstimate publishes one step's estimated-vs-actual row counts into
// the opt.est_error_pct histogram (percentage points of relative error).
func recordEstimate(ctx *ExecCtx, est float64, actual int) {
	reg := ctx.registry()
	if reg == nil {
		return
	}
	base := float64(actual)
	if base < 1 {
		base = 1
	}
	pct := math.Abs(est-float64(actual)) / base * 100
	reg.Histogram("opt.est_error_pct").ObserveNs(int64(pct))
}
