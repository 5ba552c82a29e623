// Package schema implements Sedna's descriptive schema (§4.1): a relaxed
// DataGuide in which every path that occurs in an XML document has exactly
// one path in the schema, making the schema a tree. The descriptive schema
// is generated from the data and maintained incrementally as updates add new
// paths; it is never prescribed in advance.
//
// Every schema node points to the bidirectional list of data blocks that
// store the document nodes reachable by its path, so the schema acts as a
// naturally built index for evaluating XPath expressions: a structural
// location path is resolved entirely in main memory over the schema, and
// only the blocks of the matching schema nodes are touched.
package schema

import (
	"fmt"
	"strings"

	"sedna/internal/sas"
)

// NodeKind is the XQuery data-model node kind of a schema node.
type NodeKind byte

// Node kinds, mirroring the XDM kinds the paper's Figure 2 labels schema
// nodes with.
const (
	KindDocument NodeKind = iota + 1
	KindElement
	KindAttribute
	KindText
	KindComment
	KindPI
)

// String returns the XDM name of the kind.
func (k NodeKind) String() string {
	switch k {
	case KindDocument:
		return "document"
	case KindElement:
		return "element"
	case KindAttribute:
		return "attribute"
	case KindText:
		return "text"
	case KindComment:
		return "comment"
	case KindPI:
		return "processing-instruction"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// HasName reports whether nodes of this kind carry a name.
func (k NodeKind) HasName() bool {
	return k == KindElement || k == KindAttribute || k == KindPI
}

// HasText reports whether nodes of this kind carry a text value.
func (k NodeKind) HasText() bool {
	return k == KindText || k == KindAttribute || k == KindComment || k == KindPI
}

// Node is one node of a descriptive schema.
type Node struct {
	ID   uint32 // document-unique, stable across restarts
	Kind NodeKind
	Name string // for kinds with names

	Parent   *Node
	Children []*Node

	// FirstBlock and LastBlock head and tail the bidirectional list of data
	// blocks storing this schema node's document nodes.
	FirstBlock, LastBlock sas.XPtr

	// NodeCount is the number of live document nodes under this schema
	// node; BlockCount the number of blocks in the list. Maintained by the
	// storage layer, used by the optimizer and by experiment E15.
	NodeCount  uint64
	BlockCount uint32
}

// Schema is the descriptive schema of one document.
type Schema struct {
	Root   *Node // kind KindDocument
	nextID uint32
	// byID is indexed by ID: IDs are dealt densely from nextID, and a removed
	// node leaves a nil hole. n counts the nodes.
	byID []*Node
	n    int
}

// New creates the schema for an empty document.
func New() *Schema {
	s := &Schema{nextID: 1}
	s.Root = s.newNode(KindDocument, "")
	return s
}

func (s *Schema) newNode(kind NodeKind, name string) *Node {
	n := &Node{ID: s.nextID, Kind: kind, Name: name}
	s.nextID++
	s.put(n)
	return n
}

// put files n under its ID.
func (s *Schema) put(n *Node) {
	for int(n.ID) >= len(s.byID) {
		s.byID = append(s.byID, nil)
	}
	if s.byID[n.ID] == nil {
		s.n++
	}
	s.byID[n.ID] = n
}

// ByID resolves a schema node by its stable identifier.
func (s *Schema) ByID(id uint32) *Node {
	if int(id) < len(s.byID) {
		return s.byID[id]
	}
	return nil
}

// Len returns the number of schema nodes.
func (s *Schema) Len() int { return s.n }

// Child returns the existing child of parent with the given kind and name,
// or nil. For kinds without names, name is ignored.
func (n *Node) Child(kind NodeKind, name string) *Node {
	if !kind.HasName() {
		name = ""
	}
	for _, c := range n.Children {
		if c.Kind == kind && c.Name == name {
			return c
		}
	}
	return nil
}

// ChildIndex returns the position of child among parent's schema children.
// The position doubles as the child-pointer slot index inside node
// descriptors (§4.1: a descriptor has one first-child pointer per schema
// child). It returns -1 if child is not a child of n.
func (n *Node) ChildIndex(child *Node) int {
	for i, c := range n.Children {
		if c == child {
			return i
		}
	}
	return -1
}

// EnsureChild returns the child of parent with the given kind and name,
// creating and appending it if the path did not previously occur in the
// document (incremental descriptive-schema maintenance). The second result
// reports whether a new schema node was created — the event that triggers
// delayed descriptor widening in the storage layer.
func (s *Schema) EnsureChild(parent *Node, kind NodeKind, name string) (*Node, bool) {
	if !kind.HasName() {
		name = ""
	}
	if c := parent.Child(kind, name); c != nil {
		return c, false
	}
	c := s.newNode(kind, name)
	c.Parent = parent
	parent.Children = append(parent.Children, c)
	return c, true
}

// AddWithID attaches a schema node with an explicit identifier; recovery
// uses it to replay AddSchemaNode log records so that IDs referenced by
// later records stay stable.
func (s *Schema) AddWithID(parent *Node, id uint32, kind NodeKind, name string) (*Node, error) {
	if existing := s.ByID(id); existing != nil {
		if existing.Parent == parent && existing.Kind == kind && existing.Name == name {
			return existing, nil // idempotent replay
		}
		return nil, fmt.Errorf("schema: id %d already in use", id)
	}
	n := &Node{ID: id, Kind: kind, Name: name, Parent: parent}
	parent.Children = append(parent.Children, n)
	s.put(n)
	if id >= s.nextID {
		s.nextID = id + 1
	}
	return n, nil
}

// Remove detaches a leaf schema node created by EnsureChild; used to undo
// schema growth when the creating transaction rolls back.
func (s *Schema) Remove(n *Node) {
	if len(n.Children) != 0 {
		panic("schema: Remove of non-leaf schema node")
	}
	if n.Parent != nil {
		kids := n.Parent.Children
		for i, c := range kids {
			if c == n {
				n.Parent.Children = append(kids[:i], kids[i+1:]...)
				break
			}
		}
	}
	if s.ByID(n.ID) == n {
		s.byID[n.ID] = nil
		s.n--
	}
}

// Path returns the slash-separated path of the node from the document root,
// for diagnostics and the F2 reproduction dump.
func (n *Node) Path() string {
	if n.Parent == nil {
		return "/"
	}
	var parts []string
	for c := n; c.Parent != nil; c = c.Parent {
		switch {
		case c.Kind == KindAttribute:
			parts = append(parts, "@"+c.Name)
		case c.Kind.HasName():
			parts = append(parts, c.Name)
		default:
			parts = append(parts, c.Kind.String()+"()")
		}
	}
	var b strings.Builder
	for i := len(parts) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(parts[i])
	}
	return b.String()
}

// Depth returns the node's depth (document root = 0). Used by the
// DDO-elimination analysis: nodes of one schema node share a level.
func (n *Node) Depth() int {
	d := 0
	for c := n; c.Parent != nil; c = c.Parent {
		d++
	}
	return d
}

// Walk visits the subtree rooted at n in document order of the schema.
func (n *Node) Walk(visit func(*Node)) {
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// Descendants returns every schema node in n's subtree (excluding n) that
// satisfies pred. It backs the //-step schema resolution of §5.1.2/§5.1.4.
func (n *Node) Descendants(pred func(*Node) bool) []*Node {
	var out []*Node
	var rec func(*Node)
	rec = func(c *Node) {
		for _, ch := range c.Children {
			if pred(ch) {
				out = append(out, ch)
			}
			rec(ch)
		}
	}
	rec(n)
	return out
}

// IsAncestorOf reports whether n is a proper schema ancestor of m.
func (n *Node) IsAncestorOf(m *Node) bool {
	for c := m.Parent; c != nil; c = c.Parent {
		if c == n {
			return true
		}
	}
	return false
}

// Dump renders the schema as an indented tree, matching the layout of the
// paper's Figure 2 (schema node kind, name, block count).
func (s *Schema) Dump() string {
	var b strings.Builder
	var rec func(n *Node, indent int)
	rec = func(n *Node, indent int) {
		b.WriteString(strings.Repeat("  ", indent))
		if n.Kind.HasName() {
			fmt.Fprintf(&b, "%s %q", n.Kind, n.Name)
		} else {
			b.WriteString(n.Kind.String())
		}
		fmt.Fprintf(&b, " [nodes=%d blocks=%d]\n", n.NodeCount, n.BlockCount)
		for _, c := range n.Children {
			rec(c, indent+1)
		}
	}
	rec(s.Root, 0)
	return b.String()
}

// Flat is the serializable form of a schema node, used by the catalog to
// persist schemas at checkpoints and rebuild them at recovery.
type Flat struct {
	ID         uint32
	ParentID   uint32 // 0 for the root
	Kind       NodeKind
	Name       string
	FirstBlock sas.XPtr
	LastBlock  sas.XPtr
	NodeCount  uint64
	BlockCount uint32
}

// Flatten serializes the schema into parent-before-child order.
func (s *Schema) Flatten() []Flat {
	out := make([]Flat, 0, s.n)
	s.Root.Walk(func(n *Node) {
		f := Flat{
			ID: n.ID, Kind: n.Kind, Name: n.Name,
			FirstBlock: n.FirstBlock, LastBlock: n.LastBlock,
			NodeCount: n.NodeCount, BlockCount: n.BlockCount,
		}
		if n.Parent != nil {
			f.ParentID = n.Parent.ID
		}
		out = append(out, f)
	})
	return out
}

// Rebuild reconstructs a schema from its flattened form.
func Rebuild(flats []Flat) (*Schema, error) {
	if len(flats) == 0 {
		return nil, fmt.Errorf("schema: empty flattened schema")
	}
	s := &Schema{}
	for _, f := range flats {
		n := &Node{
			ID: f.ID, Kind: f.Kind, Name: f.Name,
			FirstBlock: f.FirstBlock, LastBlock: f.LastBlock,
			NodeCount: f.NodeCount, BlockCount: f.BlockCount,
		}
		s.put(n)
		if f.ParentID == 0 {
			if s.Root != nil {
				return nil, fmt.Errorf("schema: multiple roots")
			}
			s.Root = n
		} else {
			p := s.ByID(f.ParentID)
			if p == nil {
				return nil, fmt.Errorf("schema: node %d before its parent %d", f.ID, f.ParentID)
			}
			n.Parent = p
			p.Children = append(p.Children, n)
		}
		if f.ID >= s.nextID {
			s.nextID = f.ID + 1
		}
	}
	if s.Root == nil {
		return nil, fmt.Errorf("schema: no root")
	}
	return s, nil
}
