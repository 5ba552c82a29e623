package opt

// The cost model. Units are approximately "page touches": a block read
// costs 1, per-node work inside pinned pages costs a small fraction, a
// B+tree probe costs its descent plus one handle dereference and recheck
// per candidate row. The constants are calibrated against the executor's
// measured shapes (E23), not micro-accurate — what matters is that the
// orderings they induce match reality.
const (
	CostBlock        = 1.0  // read one chain block
	CostNode         = 0.05 // touch one descriptor inside a pinned block
	CostPredNode     = 0.10 // evaluate one predicate on one node
	CostProbeDescend = 3.0  // B+tree root-to-leaf descent
	CostProbeRow     = 1.5  // candidate handle: descriptor fetch + recheck
	CostChainNode    = 0.50 // naive per-node navigation (pointer chase)
)

// Plan alternative names (stable strings: EXPLAIN output and tests key on
// them).
const (
	AltStructuralScan = "structural-scan"
	AltChainScan      = "chain-scan"
	AltIndexProbe     = "index-probe"
)

// Alt is one costed physical alternative for a step.
type Alt struct {
	Name    string  // AltStructuralScan, AltChainScan or AltIndexProbe
	EstRows float64 // estimated output rows of the step under this plan
	Cost    float64
	Chosen  bool
}

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

// ChainCost is the naive navigation baseline: per-node pointer chasing
// without the schema-level chain locality.
func ChainCost(blocks, nodes float64) float64 {
	return blocks*CostBlock + nodes*CostChainNode
}
