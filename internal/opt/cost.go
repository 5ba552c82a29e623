package opt

// The cost model. It prices the one decision the executor acts on for a
// predicate step an index could answer: the structural scan of the step's
// schema nodes against a value-index probe. Units are approximately "page
// touches": a block read costs 1, per-node work inside pinned pages costs a
// small fraction, a B+tree probe costs its descent plus one handle
// dereference and recheck per candidate row. The constants are not
// micro-accurate; what matters is that the orderings they induce match the
// executor (TestOptimizerAgainstForcedPlans in internal/query compares the
// page views of optimized and forced plans).
const (
	CostBlock        = 1.0  // read one chain block
	CostNode         = 0.05 // touch one descriptor inside a pinned block
	CostPredNode     = 0.10 // evaluate one predicate on one node
	CostProbeDescend = 3.0  // B+tree root-to-leaf descent
	CostProbeRow     = 1.75 // candidate: a page view for its descriptor + recheck
)

// ScanCost is the schema-level structural scan: read every chain block of
// the matched schema nodes, touch every instance, and evaluate preds on
// each.
func ScanCost(blocks, nodes float64, preds int) float64 {
	c := blocks*CostBlock + nodes*CostNode
	if preds > 0 {
		c += nodes * CostPredNode * float64(preds)
	}
	return c
}

// ProbeCost is a value-index probe yielding estRows candidates.
func ProbeCost(estRows float64) float64 {
	return CostProbeDescend + estRows*CostProbeRow
}

// GuessedEqProbeCost is an equality probe over a step of nodes instances
// when the document has no fresh statistics. Its row
// estimate would be DefaultEqSel of the nodes, a guess rather than a count,
// and an index is most often built on a key far more selective than that (a
// unique @id). Priced at a page view each, the guessed candidates would keep
// every keyed lookup on an unanalyzed or stale document on the scan; priced
// at the scan's per-node rate for the nodes they stand for, the probe wins
// once the scan reads more blocks than the descent.
func GuessedEqProbeCost(nodes float64) float64 {
	return CostProbeDescend + nodes*(CostNode+CostPredNode)
}
