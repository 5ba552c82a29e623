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
	CostProbeRow     = 1.5  // candidate handle: descriptor fetch + recheck
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
