package query

import (
	"cmp"
	"fmt"
	"slices"

	"sedna/internal/core"
	"sedna/internal/schema"
)

// Structural location paths (§5.1.4): a path that starts from a document
// node and contains only descending axes and no predicates is resolved
// entirely over the descriptive schema in main memory; execution then just
// scans the block lists of the resulting schema nodes, which are already in
// document order.

// structuralChain decomposes a step chain down to its DocCall head. It
// returns nil when the chain is not structural, as it never is over a system
// document, which has no descriptive schema. With ownPreds set, the
// predicates of s itself do not count against the chain: the shape
// `doc(...)/a/b[preds]` qualifies, predicates on any earlier step do not.
func structuralChain(s *Step, ownPreds bool) (*DocCall, []*Step) {
	var steps []*Step
	cur := s
	for {
		if len(cur.Preds) > 0 && !(ownPreds && cur == s) {
			return nil, nil
		}
		switch cur.Axis {
		case AxisChild, AxisDescendant, AxisDescendantOrSelf, AxisAttribute, AxisSelf:
		default:
			return nil, nil
		}
		if steps == nil {
			steps = make([]*Step, 0, 8) // one allocation for up to 8 steps
		}
		steps = append(steps, cur)
		switch in := cur.Input.(type) {
		case *DocCall:
			if core.IsSystemName(in.Name) {
				return nil, nil
			}
			// Reverse into evaluation order.
			for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
				steps[i], steps[j] = steps[j], steps[i]
			}
			return in, steps
		case *Step:
			cur = in
		default:
			return nil, nil
		}
	}
}

// resolveStructural maps the step chain onto the descriptive schema from the
// start nodes, returning the schema nodes the path denotes in ascending ID
// order, each once. The order is fixed by the schema alone, so every reader
// of a resolution (plans, their estimates, EXPLAIN) is the same from run to
// run.
func resolveStructural(steps []*Step, from ...*schema.Node) []*schema.Node {
	// The step buffers stay on the stack until a step reaches more schema
	// nodes than they hold; the result, which plans keep, is the one
	// allocation.
	var curBuf, nextBuf [16]*schema.Node
	cur := bySchemaID(append(curBuf[:0], from...))
	next := nextBuf[:0]
	for _, st := range steps {
		next = next[:0]
		for _, sn := range cur {
			switch st.Axis {
			case AxisSelf:
				if matchesSchema(sn, st.Test) {
					next = append(next, sn)
				}
			case AxisChild:
				for _, c := range sn.Children {
					if c.Kind != schema.KindAttribute && matchesSchema(c, st.Test) {
						next = append(next, c)
					}
				}
			case AxisAttribute:
				for _, c := range sn.Children {
					if c.Kind == schema.KindAttribute && matchesSchema(c, attributeTest(st.Test)) {
						next = append(next, c)
					}
				}
			case AxisDescendant, AxisDescendantOrSelf:
				if st.Axis == AxisDescendantOrSelf && matchesSchema(sn, st.Test) {
					next = append(next, sn)
				}
				next = descendantTargets(sn, st.Test, next)
			}
		}
		cur, next = bySchemaID(next), cur
	}
	out := make([]*schema.Node, len(cur))
	copy(out, cur)
	return out
}

// bySchemaID sorts schema nodes by ID and drops the repeats a resolution
// reaches twice (//a//b with nested a's): adjacent after the sort, they are
// seen once.
func bySchemaID(nodes []*schema.Node) []*schema.Node {
	slices.SortFunc(nodes, func(a, b *schema.Node) int { return cmp.Compare(a.ID, b.ID) })
	return slices.Compact(nodes)
}

// hasSchemaID reports whether the resolution (ascending IDs) holds the
// schema node with this ID.
func hasSchemaID(nodes []*schema.Node, id uint32) bool {
	_, ok := slices.BinarySearchFunc(nodes, id, func(n *schema.Node, id uint32) int { return cmp.Compare(n.ID, id) })
	return ok
}

// evalStructural executes a structural step chain: schema resolution in
// memory (the plan's, when the optimizer made one), then direct block-list
// scans merged by document order into k.
func evalStructural(s *Step, e *env, k *collector) error {
	docCall, steps := structuralChain(s, false)
	if docCall == nil {
		return fmt.Errorf("query: step marked structural is not a structural path")
	}
	docItems, err := evalDoc(e, docCall.Name)
	if err != nil {
		return err
	}
	docNode := docItems[0].(*NodeItem)
	targets := s.Plan.targetsIn(docNode.Doc)
	if targets == nil {
		targets = resolveStructural(steps, docNode.Doc.Schema.Root)
	}
	if len(targets) == 1 {
		// Single schema node: its list already is the answer in document
		// order — no per-node work at all.
		return drain(e, e.schemaScan(docNode.Doc, targets[0]), k)
	}
	return scanTargets(e, targets, docNode, docNode.Doc.Schema.Root, k)
}
