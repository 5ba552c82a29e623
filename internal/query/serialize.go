package query

import (
	"fmt"
	"io"

	"sedna/internal/core"
	"sedna/internal/schema"
)

// serializeStored writes a stored node as XML over the backend that produced
// it.
func serializeStored(e *env, n *NodeItem, w io.Writer) error {
	return core.SerializeNodeVia[Item](storeAccess{e}, n.Doc, n, w)
}

// serializeTemp writes a constructed node as XML. Virtual references
// serialize straight from storage — the whole point of the optimisation:
// the deep copy never happens when the result is only serialized (§5.2.1).
func serializeTemp(e *env, n *TempNode, w io.Writer) error {
	if n.Ref != nil {
		return serializeStored(e, n.Ref, w)
	}
	switch n.Kind {
	case schema.KindDocument:
		for _, c := range n.Children {
			if err := serializeTemp(e, c, w); err != nil {
				return err
			}
		}
		return nil
	case schema.KindElement:
		if _, err := io.WriteString(w, "<"+n.Name); err != nil {
			return err
		}
		hasContent := false
		for _, c := range n.Children {
			if c.Kind == schema.KindAttribute {
				if err := core.WriteAttr(w, c.Name, []byte(c.Text)); err != nil {
					return err
				}
			} else {
				hasContent = true
			}
		}
		if !hasContent {
			_, err := io.WriteString(w, "/>")
			return err
		}
		if _, err := io.WriteString(w, ">"); err != nil {
			return err
		}
		for _, c := range n.Children {
			if c.Kind == schema.KindAttribute {
				continue
			}
			if err := serializeTemp(e, c, w); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "</"+n.Name+">")
		return err
	case schema.KindText:
		return core.EscapeText(w, []byte(n.Text))
	case schema.KindAttribute:
		_, err := io.WriteString(w, n.Text)
		return err
	case schema.KindComment:
		_, err := fmt.Fprintf(w, "<!--%s-->", n.Text)
		return err
	case schema.KindPI:
		_, err := fmt.Fprintf(w, "<?%s %s?>", n.Name, n.Text)
		return err
	default:
		return fmt.Errorf("query: cannot serialize constructed %v node", n.Kind)
	}
}
