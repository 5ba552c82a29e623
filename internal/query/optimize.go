package query

// The cost-based structural optimizer (ROADMAP item 1). It runs between the
// rule-based rewriter and the executor: for every location step whose chain
// resolves over the descriptive schema it estimates cardinality (NodeCount
// ratios for structural steps, histogram selectivity for comparison
// predicates) and costs the physical alternatives the executor already
// implements — value-index probe, schema-level structural scan, naive chain
// navigation. The chosen plan is attached to the step (Step.Plan) and
// surfaced through EXPLAIN (costed-alternatives table), PROFILE (estimated
// vs actual rows) and the opt.* metrics. Plans never change results: the
// index probe rechecks every predicate on its candidates.

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
// error is a document lock an update could not get.
func optimizeStatement(ctx *ExecCtx, st *Statement) error {
	clearPlans(st)
	if ctx.Tx == nil || ctx.Tx.DB() == nil {
		return nil
	}
	if st.Update != nil {
		return planUpdateTarget(ctx, st.Update)
	}
	if st.Query == nil {
		return nil
	}
	planned := 0
	probes := 0
	visit := func(x Expr) {
		s, ok := x.(*Step)
		if !ok {
			return
		}
		if p := planStep(ctx, s); p != nil {
			s.Plan = p
			planned++
			if p.Probe != nil {
				probes++
			}
		}
	}
	for _, v := range st.Prolog.Vars {
		walkExpr(v.Seq, visit)
	}
	walkExpr(st.Query, visit)
	if planned == 0 {
		return nil
	}
	if reg := ctx.registry(); reg != nil {
		reg.Counter("opt.plans_costed").Add(uint64(planned))
		if probes > 0 {
			reg.Counter("opt.index_chosen").Add(uint64(probes))
		}
	}
	return nil
}

// planUpdateTarget costs the steps of an update's target selection (§5.2:
// select the targets, then modify them by node handle) and keeps the plans
// that chose a value-index probe. Scan plans are dropped. The probe is safe
// inside the
// writing transaction: it rechecks every predicate, the targets are fully
// evaluated before the first modification, and indexes are maintained
// synchronously in-transaction, so the statement reads its transaction's
// own earlier writes. An update transaction resolves the live document, so
// the document is locked (as execution would lock it anyway) before its
// schema and counters are read.
func planUpdateTarget(ctx *ExecCtx, u *Update) error {
	var planned, probes uint64
	var lockErr error
	walkExpr(u.Target, func(x Expr) {
		s, ok := x.(*Step)
		if !ok || len(s.Preds) == 0 || lockErr != nil {
			return
		}
		docCall, _ := strippedStructuralChain(s)
		if docCall == nil {
			return
		}
		if lockErr = ctx.lockDocForRead(docCall.Name); lockErr != nil {
			return
		}
		if p := planStep(ctx, s); p != nil {
			planned++
			if p.Probe != nil {
				s.Plan = p
				probes++
			}
		}
	})
	if lockErr != nil {
		return lockErr
	}
	if reg := ctx.registry(); reg != nil && planned > 0 {
		reg.Counter("opt.plans_costed").Add(planned)
		if probes > 0 {
			reg.Counter("opt.index_chosen").Add(probes)
		}
	}
	return nil
}

// clearPlans drops every step plan of the statement; ASTs are reused across
// executions (benchmarks, sessions), so a run without the optimizer must not
// inherit plans from an earlier optimized run.
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

// strippedStructuralChain is structuralChain with the step's own predicates
// ignored: the shape `doc(...)/a/b[preds]` qualifies, predicates anywhere
// earlier do not.
func strippedStructuralChain(s *Step) (*DocCall, []*Step) {
	if len(s.Preds) == 0 {
		return structuralChain(s)
	}
	saved := s.Preds
	s.Preds = nil
	docCall, steps := structuralChain(s)
	s.Preds = saved
	return docCall, steps
}

// planStep costs one step's physical alternatives and returns the plan, or
// nil when the step is not plannable (not schema-resolvable, or nothing to
// decide).
func planStep(ctx *ExecCtx, s *Step) *StepPlan {
	docCall, steps := strippedStructuralChain(s)
	if docCall == nil {
		return nil
	}
	doc, err := ctx.Tx.Document(docCall.Name)
	if err != nil {
		return nil
	}
	targets := resolveStructural(doc.Schema.Root, steps)
	if len(targets) == 0 {
		return nil
	}
	var nodes, blocks float64
	for _, sn := range targets {
		nodes += float64(sn.NodeCount)
		blocks += float64(sn.BlockCount)
	}
	cat := ctx.Tx.DB().Catalog()
	stats := cat.DocStats(doc.Name)
	fresh := stats != nil && !stats.Stale(cat.Activity(doc.Name).Updates.Load())

	if len(s.Preds) == 0 {
		if !s.Structural || !fresh {
			// Without fresh statistics the executor's own heuristics decide;
			// planning here would change behavior on never-analyzed
			// documents.
			return nil
		}
		return planScanStep(nodes, blocks)
	}
	return planPredStep(ctx, s, doc, targets, nodes, blocks, stats, fresh)
}

// planScanStep costs a predicate-free structural scan: schema-level scan vs
// chain navigation. Cardinality is exact (NodeCount).
func planScanStep(nodes, blocks float64) *StepPlan {
	alts := []opt.Alt{
		{Name: opt.AltStructuralScan, EstRows: nodes, Cost: opt.ScanCost(blocks, nodes, 0)},
		{Name: opt.AltChainScan, EstRows: nodes, Cost: opt.ChainCost(blocks, nodes)},
	}
	return &StepPlan{EstRows: nodes, Alts: markChosen(alts)}
}

// planPredStep costs a predicate-bearing step: structural scan + filter vs
// chain navigation vs (when an index matches an eligible predicate) a
// value-index probe.
func planPredStep(ctx *ExecCtx, s *Step, doc *storage.Doc, targets []*schema.Node, nodes, blocks float64, stats *opt.DocStats, fresh bool) *StepPlan {
	if !fresh {
		stats = nil // stale histograms mislead; fall back to the defaults
	}
	sel := 1.0
	for _, pred := range s.Preds {
		sel *= predSelectivity(targets, stats, pred)
	}
	estRows := nodes * sel
	p := &StepPlan{EstRows: estRows, Sampled: stats != nil && stats.Sampled}
	alts := []opt.Alt{
		{Name: opt.AltStructuralScan, EstRows: estRows, Cost: opt.ScanCost(blocks, nodes, len(s.Preds))},
		{Name: opt.AltChainScan, EstRows: estRows, Cost: opt.ChainCost(blocks, nodes)},
	}
	if probe, probeSel := findProbe(ctx, s, doc, targets, stats); probe != nil {
		candidates := nodes * probeSel
		alts = append(alts, opt.Alt{Name: opt.AltIndexProbe, EstRows: estRows, Cost: opt.ProbeCost(candidates)})
		p.Probe = probe
	}
	p.Alts = markChosen(alts)
	if p.Probe != nil && !chosen(p.Alts, opt.AltIndexProbe) {
		p.Probe = nil
	}
	if p.Probe == nil && len(p.Alts) == 2 && !fresh {
		// Nothing actionable: no probe and no statistics — don't claim a
		// plan (and an estimate) the executor will ignore.
		return nil
	}
	return p
}

func markChosen(alts []opt.Alt) []opt.Alt {
	best := 0
	for i := 1; i < len(alts); i++ {
		if alts[i].Cost < alts[best].Cost {
			best = i
		}
	}
	alts[best].Chosen = true
	return alts
}

func chosen(alts []opt.Alt, name string) bool {
	for _, a := range alts {
		if a.Chosen {
			return a.Name == name
		}
	}
	return false
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

// predSelectivity estimates the fraction of context nodes a predicate keeps:
// histogram selectivity for comparisons against a known column, 0.5 for
// anything else (the System R "half stays" default for opaque predicates).
func predSelectivity(targets []*schema.Node, stats *opt.DocStats, pred Expr) float64 {
	cmp := decomposeCmp(pred)
	if cmp == nil {
		return 0.5
	}
	col := colForPath(targets, stats, cmp.steps)
	return col.Selectivity(cmp.op, cmp.isString, cmp.s, cmp.f)
}

// colForPath resolves a relative path from the step's target schema nodes to
// the value-bearing schema node ANALYZE collected, returning its column
// stats (nil → defaults). An element resolves through its text child, which
// is where the comparable value lives.
func colForPath(targets []*schema.Node, stats *opt.DocStats, steps []*Step) *opt.ColStats {
	if stats == nil {
		return nil
	}
	for _, target := range targets {
		for _, sn := range resolveStructural(target, steps) {
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
func findProbe(ctx *ExecCtx, s *Step, doc *storage.Doc, targets []*schema.Node, stats *opt.DocStats) (*IndexProbe, float64) {
	if !predsPositionFree(s.Preds) {
		return nil, 0
	}
	cat := ctx.Tx.DB().Catalog()
	var best *IndexProbe
	bestSel := 0.0
	for _, meta := range cat.IndexesOf(doc.Name) {
		onSet, bySteps, err := indexPaths(doc, meta)
		if err != nil {
			continue
		}
		covered := true
		for _, sn := range targets {
			if !onSet[sn.ID] {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		for _, pred := range s.Preds {
			cmp := decomposeCmp(pred)
			if cmp == nil || !stepsMatch(cmp.steps, bySteps) {
				continue
			}
			if (meta.KeyType == "number") == cmp.isString {
				continue // literal type must match the key encoding
			}
			probe := &IndexProbe{Index: meta.Name, Op: cmp.op, IsString: cmp.isString, S: cmp.s, F: cmp.f}
			col := colForPath(targets, stats, cmp.steps)
			sel := col.Selectivity(cmp.op, cmp.isString, cmp.s, cmp.f)
			if best == nil || (probe.Op == opt.CmpEq && best.Op != opt.CmpEq) || sel < bestSel {
				best, bestSel = probe, sel
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
// candidate handles, keep those whose schema node belongs to the step's
// target set, sort into document order, then recheck every predicate.
// handled=false (index or document gone since planning, or index not there
// at the snapshot) sends the caller to normal evaluation.
func evalIndexProbe(s *Step, e *env) ([]Item, bool, error) {
	probe := s.Plan.Probe
	ctx := e.ctx
	meta, ok := ctx.Tx.DB().Catalog().Index(probe.Index)
	if !ok {
		return nil, false, nil
	}
	docCall, steps := strippedStructuralChain(s)
	if docCall == nil || meta.DocName != docCall.Name {
		return nil, false, nil
	}
	doc, err := ctx.Tx.Document(docCall.Name)
	if err != nil {
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

	targets := resolveStructural(doc.Schema.Root, steps)
	targetSet := make(map[uint32]bool, len(targets))
	for _, sn := range targets {
		targetSet[sn.ID] = true
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
		if targetSet[n.D.SchemaID] {
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
