package core

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
)

// LoadXML parses the XML document from r and bulk-loads it under the given
// document name within the transaction. Whitespace-only text nodes are
// skipped unless the database was opened with KeepWhitespace.
//
// Because the document is freshly created here, the default ingest path is
// the streaming bulk loader (direct block construction); Options.BulkLoad =
// BulkLoadOff falls back to node-at-a-time inserts.
func (t *Tx) LoadXML(name string, r io.Reader) (*storage.Doc, error) {
	doc, err := t.CreateDocument(name)
	if err != nil {
		return nil, err
	}
	if t.db.opts.BulkLoad == BulkLoadOff {
		t.db.met.Counter("load.incremental_loads").Inc()
		if err := t.LoadInto(doc, doc.RootHandle, r); err != nil {
			return nil, err
		}
		return doc, nil
	}
	if err := t.bulkLoadInto(doc, r); err != nil {
		return nil, err
	}
	return doc, nil
}

// LoadInto streams XML content under an existing node (used both by LoadXML
// and by update statements inserting parsed fragments).
func (t *Tx) LoadInto(doc *storage.Doc, parent sas.XPtr, r io.Reader) error {
	dec := xml.NewDecoder(r)
	dec.Strict = true

	type frame struct {
		handle sas.XPtr
		last   sas.XPtr // last child inserted under this frame
	}
	stack := []frame{{handle: parent}}
	last := func() *frame { return &stack[len(stack)-1] }

	insert := func(kind schema.NodeKind, name string, text []byte) (sas.XPtr, error) {
		f := last()
		h, err := storage.InsertNode(t.Tx, doc, f.handle, f.last, sas.NilPtr, kind, name, text)
		if err != nil {
			return sas.NilPtr, err
		}
		f.last = h
		return h, nil
	}

	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return parseErr(dec, err)
		}
		switch tk := tok.(type) {
		case xml.StartElement:
			h, err := insert(schema.KindElement, xmlName(tk.Name), nil)
			if err != nil {
				return err
			}
			stack = append(stack, frame{handle: h})
			// Attributes become attribute children of the element.
			for _, a := range tk.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue // namespace declarations are not stored as attributes
				}
				if _, err := insert(schema.KindAttribute, xmlName(a.Name), []byte(a.Value)); err != nil {
					return err
				}
			}
		case xml.EndElement:
			if len(stack) == 1 {
				return fmt.Errorf("core: unbalanced end element %s at byte %d", xmlName(tk.Name), dec.InputOffset())
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			s := string(tk)
			if !t.db.opts.KeepWhitespace && strings.TrimSpace(s) == "" {
				continue
			}
			if len(stack) == 1 {
				continue // ignore top-level whitespace/prolog text
			}
			if _, err := insert(schema.KindText, "", []byte(s)); err != nil {
				return err
			}
		case xml.Comment:
			if len(stack) == 1 {
				continue
			}
			if _, err := insert(schema.KindComment, "", []byte(tk)); err != nil {
				return err
			}
		case xml.ProcInst:
			if len(stack) == 1 {
				continue
			}
			if _, err := insert(schema.KindPI, tk.Target, tk.Inst); err != nil {
				return err
			}
		case xml.Directive:
			// DOCTYPE etc. — not stored.
		}
	}
	if len(stack) != 1 {
		return fmt.Errorf("core: unbalanced XML: %d unclosed elements", len(stack)-1)
	}
	return nil
}

func xmlName(n xml.Name) string {
	// The descriptive schema clusters by qualified name; we keep the
	// expanded form "space:local" when a namespace is present.
	if n.Space != "" {
		return n.Space + ":" + n.Local
	}
	return n.Local
}

// NodeAccess abstracts the node reads serialization needs over a node type N
// — a paged descriptor here, a slab entry of either backend in the executor —
// so the one serializer below runs over paged storage and over a resident
// representation, keeping output byte-identical by construction.
type NodeAccess[N any] interface {
	// SchemaID returns the id of n's schema node.
	SchemaID(n N) uint32
	// Children passes n's children, in document order, to v.SerializeChildren;
	// the slice is only valid during that call.
	Children(n N, v ChildVisitor[N]) error
	// Text returns n's text value.
	Text(n N) ([]byte, error)
}

// ChildVisitor is the serializer's side of NodeAccess.Children.
type ChildVisitor[N any] interface {
	SerializeChildren(parent N, kids []N) error
}

// pagedAccess is the block-chain NodeAccess.
type pagedAccess struct{ r storage.Reader }

func (a pagedAccess) SchemaID(d *storage.Desc) uint32 { return d.SchemaID }

func (a pagedAccess) Children(d *storage.Desc, v ChildVisitor[*storage.Desc]) error {
	kids, err := collectChildren(a.r, d)
	if err != nil {
		return err
	}
	ptrs := make([]*storage.Desc, len(kids))
	for i := range kids {
		ptrs[i] = &kids[i]
	}
	return v.SerializeChildren(d, ptrs)
}

func (a pagedAccess) Text(d *storage.Desc) ([]byte, error) {
	return storage.Text(a.r, d)
}

// SerializeNode writes the XML serialization of the subtree rooted at the
// node (given by descriptor) to w. Reader may be any transaction kind.
func SerializeNode(r storage.Reader, doc *storage.Doc, d storage.Desc, w io.Writer) error {
	return SerializeNodeVia[*storage.Desc](pagedAccess{r}, doc, &d, w)
}

// serializer is one SerializeNodeVia call's state.
type serializer[N any] struct {
	acc NodeAccess[N]
	doc *storage.Doc
	w   io.Writer
}

// SerializeNodeVia is SerializeNode over any NodeAccess backend.
func SerializeNodeVia[N any](acc NodeAccess[N], doc *storage.Doc, n N, w io.Writer) error {
	return (&serializer[N]{acc: acc, doc: doc, w: w}).node(n)
}

func (s *serializer[N]) node(n N) error {
	sn := s.doc.Schema.ByID(s.acc.SchemaID(n))
	if sn == nil {
		return fmt.Errorf("core: serialize: unknown schema node %d", s.acc.SchemaID(n))
	}
	switch sn.Kind {
	case schema.KindDocument, schema.KindElement:
		return s.acc.Children(n, s)
	}
	val, err := s.acc.Text(n)
	if err != nil {
		return err
	}
	switch sn.Kind {
	case schema.KindText:
		return xml.EscapeText(s.w, val)
	case schema.KindAttribute:
		// A bare attribute serializes as its string value.
		_, err = s.w.Write(val)
		return err
	case schema.KindComment:
		return writeAll(s.w, "<!--", string(val), "-->")
	case schema.KindPI:
		return writeAll(s.w, "<?", sn.Name, " ", string(val), "?>")
	default:
		return fmt.Errorf("core: serialize: unsupported kind %v", sn.Kind)
	}
}

// SerializeChildren writes a document node's children, or an element with
// its attributes first and then its content.
func (s *serializer[N]) SerializeChildren(parent N, kids []N) error {
	sn := s.doc.Schema.ByID(s.acc.SchemaID(parent))
	if sn.Kind == schema.KindElement {
		if err := writeAll(s.w, "<", sn.Name); err != nil {
			return err
		}
		content := 0
		for _, c := range kids {
			csn := s.doc.Schema.ByID(s.acc.SchemaID(c))
			if csn.Kind != schema.KindAttribute {
				content++
				continue
			}
			val, err := s.acc.Text(c)
			if err != nil {
				return err
			}
			if err := WriteAttr(s.w, csn.Name, val); err != nil {
				return err
			}
		}
		if content == 0 {
			return writeAll(s.w, "/>")
		}
		if err := writeAll(s.w, ">"); err != nil {
			return err
		}
	}
	for _, c := range kids {
		if s.doc.Schema.ByID(s.acc.SchemaID(c)).Kind == schema.KindAttribute {
			continue
		}
		if err := s.node(c); err != nil {
			return err
		}
	}
	if sn.Kind == schema.KindElement {
		return writeAll(s.w, "</", sn.Name, ">")
	}
	return nil
}

func writeAll(w io.Writer, parts ...string) error {
	for _, p := range parts {
		if _, err := io.WriteString(w, p); err != nil {
			return err
		}
	}
	return nil
}

// attrEscapes maps the characters an attribute value cannot hold literally
// (XML 1.0 §2.3 AttValue, §3.3.3 for the white space a parser would
// normalize away) to their references.
var attrEscapes = [256]string{'&': "&amp;", '<': "&lt;", '"': "&quot;", '\t': "&#x9;", '\n': "&#xA;", '\r': "&#xD;"}

// WriteAttr writes ` name="val"` with val escaped as XML requires.
func WriteAttr(w io.Writer, name string, val []byte) error {
	if err := writeAll(w, " ", name, `="`); err != nil {
		return err
	}
	from := 0
	for i, c := range val {
		esc := attrEscapes[c]
		if esc == "" {
			continue
		}
		if _, err := w.Write(val[from:i]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, esc); err != nil {
			return err
		}
		from = i + 1
	}
	if _, err := w.Write(val[from:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, `"`)
	return err
}

// collectChildren returns the children of d in document order.
func collectChildren(r storage.Reader, d *storage.Desc) ([]storage.Desc, error) {
	var out []storage.Desc
	c, ok, err := storage.FirstChild(r, d)
	for {
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, c)
		if c.RightSib.IsNil() {
			return out, nil
		}
		c, err = storage.ReadDesc(r, c.RightSib)
	}
}
