package query

import (
	"fmt"

	"sedna/internal/schema"
)

// Structural location paths (§5.1.4): a path that starts from a document
// node and contains only descending axes and no predicates is resolved
// entirely over the descriptive schema in main memory; execution then just
// scans the block lists of the resulting schema nodes, which are already in
// document order.

// structuralChain decomposes a step chain down to its DocCall head. It
// returns nil when the chain is not structural.
func structuralChain(s *Step) (*DocCall, []*Step) {
	var steps []*Step
	cur := s
	for {
		if len(cur.Preds) > 0 {
			return nil, nil
		}
		switch cur.Axis {
		case AxisChild, AxisDescendant, AxisDescendantOrSelf, AxisAttribute, AxisSelf:
		default:
			return nil, nil
		}
		steps = append(steps, cur)
		switch in := cur.Input.(type) {
		case *DocCall:
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

// resolveStructural maps the step chain onto the descriptive schema,
// returning the set of schema nodes the path denotes.
func resolveStructural(root *schema.Node, steps []*Step) []*schema.Node {
	cur := map[*schema.Node]bool{root: true}
	for _, st := range steps {
		next := make(map[*schema.Node]bool)
		for sn := range cur {
			switch st.Axis {
			case AxisSelf:
				if matchesSchema(sn, st.Test) {
					next[sn] = true
				}
			case AxisChild:
				for _, c := range sn.Children {
					if c.Kind != schema.KindAttribute && matchesSchema(c, st.Test) {
						next[c] = true
					}
				}
			case AxisAttribute:
				for _, c := range sn.Children {
					if c.Kind == schema.KindAttribute && matchesSchema(c, attributeTest(st.Test)) {
						next[c] = true
					}
				}
			case AxisDescendant, AxisDescendantOrSelf:
				if st.Axis == AxisDescendantOrSelf && matchesSchema(sn, st.Test) {
					next[sn] = true
				}
				for _, d := range descendantTargets(sn, st.Test, nil) {
					next[d] = true
				}
			}
		}
		cur = next
	}
	out := make([]*schema.Node, 0, len(cur))
	for sn := range cur {
		out = append(out, sn)
	}
	return out
}

// evalStructural executes a structural step chain: schema resolution in
// memory, then direct block-list scans merged by document order into k.
func evalStructural(s *Step, e *env, k *collector) error {
	docCall, steps := structuralChain(s)
	if docCall == nil {
		return fmt.Errorf("query: step marked structural is not a structural path")
	}
	docItems, err := evalDoc(e, docCall.Name)
	if err != nil {
		return err
	}
	docNode := docItems[0].(*NodeItem)
	targets := resolveStructural(docNode.Doc.Schema.Root, steps)
	if len(targets) == 1 {
		// Single schema node: its list already is the answer in document
		// order — no per-node work at all.
		return drain(e, e.schemaScan(docNode.Doc, targets[0]), k)
	}
	return scanTargets(e, targets, docNode, docNode.Doc.Schema.Root, k)
}
