package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"unicode/utf8"

	"sedna/internal/schema"
	"sedna/internal/storage"
	"sedna/internal/xmlscan"
)

// LoadXML parses the XML document from r and bulk-loads it under the given
// document name within the transaction. Whitespace-only text nodes are
// skipped unless the database was opened with KeepWhitespace.
//
// The document is freshly created here, so it streams through the bulk
// loader (direct block construction).
func (t *Tx) LoadXML(name string, r io.Reader) (*storage.Doc, error) {
	doc, err := t.CreateDocument(name)
	if err != nil {
		return nil, err
	}
	if err := t.bulkLoadInto(doc, r); err != nil {
		return nil, err
	}
	return doc, nil
}

// nodeSink receives the nodes of one XML stream in document order: the bulk
// builder of a fresh document (bulkSink), or in tests the node inserter
// under an existing node (insertSink, export_test.go).
type nodeSink interface {
	// element appends an element under the innermost open one and opens it.
	element(name string) error
	// leaf appends a childless node (attribute, text, comment or PI) under
	// the innermost open element; text is only valid during the call.
	leaf(kind schema.NodeKind, name string, text []byte) error
	// end closes the innermost open element.
	end()
}

// loadXML is the one token loop of both loaders: it scans r and hands the
// nodes to sink. Attributes follow their element, namespace declarations are
// not stored, whitespace-only text is skipped unless the database keeps it,
// and text, comments and PIs outside the outermost element are dropped. It
// returns the number of input bytes consumed.
func (t *Tx) loadXML(r io.Reader, sink nodeSink) (int64, error) {
	sc := xmlscan.NewScanner(r)
	names := nameTable{m: make(map[string]string)}
	keepWS := t.db.opts.KeepWhitespace
	for {
		kind, err := sc.Next()
		if err == io.EOF {
			return sc.InputOffset(), nil
		}
		if err != nil {
			return 0, parseErr(sc, err)
		}
		switch kind {
		case xmlscan.StartElement:
			if err := sink.element(names.get(sc.Name())); err != nil {
				return 0, err
			}
			for _, a := range sc.Attrs() {
				if string(a.Name.Space) == "xmlns" || string(a.Name.Local) == "xmlns" {
					continue
				}
				if err := sink.leaf(schema.KindAttribute, names.get(a.Name), a.Value); err != nil {
					return 0, err
				}
			}
		case xmlscan.EndElement:
			sink.end()
		case xmlscan.CharData:
			if sc.Depth() == 0 || !keepWS && len(bytes.TrimSpace(sc.Text())) == 0 {
				continue
			}
			if err := sink.leaf(schema.KindText, "", sc.Text()); err != nil {
				return 0, err
			}
		case xmlscan.Comment:
			if sc.Depth() > 0 {
				if err := sink.leaf(schema.KindComment, "", sc.Text()); err != nil {
					return 0, err
				}
			}
		case xmlscan.ProcInst:
			if sc.Depth() > 0 {
				if err := sink.leaf(schema.KindPI, names.get(xmlscan.Name{Local: sc.Target()}), sc.Text()); err != nil {
					return 0, err
				}
			}
		}
	}
}

// parseErr wraps a scanner error with the byte offset (and, for a syntax
// error, the line) of the failure.
func parseErr(sc *xmlscan.Scanner, err error) error {
	var syn *xmlscan.SyntaxError
	if errors.As(err, &syn) {
		return fmt.Errorf("core: parse XML at byte %d (line %d): %w", syn.Offset, syn.Line, err)
	}
	return fmt.Errorf("core: parse XML at byte %d: %w", sc.InputOffset(), err)
}

// nameTable makes each distinct node name of one load a string once; it
// grows no larger than the descriptive schema, which holds every distinct
// name already. The schema clusters by qualified name: a name in a
// namespace is kept in the expanded form "space:local".
type nameTable struct {
	m   map[string]string
	buf []byte
}

func (nt *nameTable) get(n xmlscan.Name) string {
	b := nt.buf[:0]
	if len(n.Space) > 0 {
		b = append(append(b, n.Space...), ':')
	}
	b = append(b, n.Local...)
	nt.buf = b
	if s, ok := nt.m[string(b)]; ok {
		return s
	}
	s := string(b)
	nt.m[s] = s
	return s
}

// NodeAccess abstracts the node reads serialization needs over a node type N
// — a descriptor here, a slab entry in the executor — so the one serializer
// below serves both, keeping output byte-identical by construction.
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
		return EscapeText(s.w, val)
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

// textEscapes maps each ASCII byte encoding/xml.EscapeText replaces to its
// replacement: the five markup characters, the three white-space controls a
// parser would normalize, and U+FFFD for the other C0 controls, which XML
// cannot hold.
var textEscapes = func() (t [utf8.RuneSelf]string) {
	for c := range 0x20 {
		t[c] = "\uFFFD"
	}
	t['"'], t['\''], t['&'], t['<'], t['>'] = "&#34;", "&#39;", "&amp;", "&lt;", "&gt;"
	t['\t'], t['\n'], t['\r'] = "&#x9;", "&#xA;", "&#xD;"
	return t
}()

// EscapeText writes s to w escaped as XML character data, byte for byte as
// encoding/xml.EscapeText writes it, but looking ASCII up in a table and
// decoding a rune only at a byte >= 0x80. Invalid UTF-8 and the noncharacters
// U+FFFE and U+FFFF — the runes a decoder can return outside the XML
// character range — become U+FFFD.
func EscapeText(w io.Writer, s []byte) error {
	from := 0
	for i := 0; i < len(s); {
		c, width := s[i], 1
		var esc string
		if c < utf8.RuneSelf {
			esc = textEscapes[c]
		} else {
			var r rune
			r, width = utf8.DecodeRune(s[i:])
			if width == 1 || r == 0xFFFE || r == 0xFFFF {
				esc = "\uFFFD"
			}
		}
		if esc == "" {
			i += width
			continue
		}
		if _, err := w.Write(s[from:i]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, esc); err != nil {
			return err
		}
		i += width
		from = i
	}
	_, err := w.Write(s[from:])
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
