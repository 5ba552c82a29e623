// Package resident implements the compressed in-memory resident
// representation for hot documents: a compact structural array (one fixed
// node record per document node) plus shared label and text arenas, built
// once from the block chains under a snapshot and cached per document with
// commit-timestamp validation.
//
// The representation is keyed by schema node, so it composes with the
// descriptive-schema execution model: per-schema index lists in document
// order replace block-list scans, and because the array is in document
// order, the descendants of node i are exactly the contiguous index range
// (i, SubtreeEnd(i)) — a descendant step positions with one binary search
// instead of a block-skipping range scan. A Rep is immutable after Build;
// readers that acquired one keep using it safely even after the cache drops
// it on invalidation.
package resident

import (
	"fmt"
	"sort"
	"unsafe"

	"sedna/internal/nid"
	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
)

// Node is one document node in the structural array. Tree edges are array
// indices (-1 = none), and only the two that cannot be derived are stored:
// the array is in document order, so a node's first child is the next entry
// and its next sibling the entry its subtree ends at (FirstChild, NextSib).
// The NID label and text value live in the Rep's shared arenas, each ending
// where the next node's begins. The record is fixed-size, so a document's
// structure costs len(Nodes) * sizeof(Node) bytes plus the arenas.
type Node struct {
	Handle sas.XPtr // indirection handle: stable node identity

	Parent int32
	// SubtreeEnd is one past the last descendant's index: descendants of
	// node i are exactly the indices in (i, SubtreeEnd).
	SubtreeEnd int32

	SchemaID   uint32
	LabelOff   uint32
	TextOff    uint32
	LabelDelim byte
	HasText    bool // distinguishes "no text pointer" from empty text
}

// Rep is the resident representation of one document as of one committed
// metadata version. Immutable after Build.
type Rep struct {
	DocID   uint32
	DocName string

	// CommitTS is the commit timestamp of the document-metadata version the
	// builder saw; a reader may share the Rep iff its snapshot resolves the
	// document to the same version.
	CommitTS uint64
	// SnapTS is the builder's snapshot timestamp (used by the cache's
	// replication barrier).
	SnapTS uint64

	Nodes  []Node
	Labels []byte // NID label prefixes, concatenated in document order
	Text   []byte // text values, concatenated in document order

	// BySchema lists the node indices of each schema node in document
	// order — the resident counterpart of the per-schema block lists.
	BySchema map[uint32][]int32
	// byHandle lists the node indices in handle order (nil: the array itself
	// is in handle order); IndexOf searches it to bridge node handles (index
	// probes, stored handles) into the array.
	byHandle []int32

	// Bytes is the approximate memory footprint, used for the cache budget.
	Bytes uint64
}

// Label returns node i's NID label. The prefix aliases the shared arena;
// callers must not mutate it.
func (rep *Rep) Label(i int32) nid.Label {
	end := uint32(len(rep.Labels))
	if int(i)+1 < len(rep.Nodes) {
		end = rep.Nodes[i+1].LabelOff
	}
	return nid.Label{Prefix: rep.Labels[rep.Nodes[i].LabelOff:end], Delim: rep.Nodes[i].LabelDelim}
}

// NodeText returns node i's text value (nil when the node carries none).
func (rep *Rep) NodeText(i int32) []byte {
	if !rep.Nodes[i].HasText {
		return nil
	}
	end := uint32(len(rep.Text))
	if int(i)+1 < len(rep.Nodes) {
		end = rep.Nodes[i+1].TextOff
	}
	return rep.Text[rep.Nodes[i].TextOff:end]
}

// FirstChild returns the index of node i's first child (-1: none).
func (rep *Rep) FirstChild(i int32) int32 {
	if rep.Nodes[i].SubtreeEnd > i+1 {
		return i + 1
	}
	return -1
}

// NextSib returns the index of node i's next sibling (-1: none).
func (rep *Rep) NextSib(i int32) int32 {
	n := &rep.Nodes[i]
	if n.Parent >= 0 && n.SubtreeEnd < rep.Nodes[n.Parent].SubtreeEnd {
		return n.SubtreeEnd
	}
	return -1
}

// IndexOf resolves a node handle to its array index.
func (rep *Rep) IndexOf(h sas.XPtr) (int32, bool) {
	at := func(k int) int32 {
		if rep.byHandle == nil {
			return int32(k)
		}
		return rep.byHandle[k]
	}
	k := sort.Search(len(rep.Nodes), func(k int) bool { return rep.Nodes[at(k)].Handle >= h })
	if k < len(rep.Nodes) && rep.Nodes[at(k)].Handle == h {
		return at(k), true
	}
	return 0, false
}

// Build constructs the resident representation of doc by a depth-first walk
// of the stored tree under r's snapshot — the same first-child /
// right-sibling traversal serialization uses, so the array is in document
// order by construction and includes attribute nodes in their sibling-chain
// position. version and snapTS stamp the Rep for cache validation.
func Build(r storage.Reader, doc *storage.Doc, version, snapTS uint64) (*Rep, error) {
	root, err := storage.DescOf(r, doc.RootHandle)
	if err != nil {
		return nil, err
	}
	rep := &Rep{
		DocID:    doc.ID,
		DocName:  doc.Name,
		CommitTS: version,
		SnapTS:   snapTS,
		BySchema: make(map[uint32][]int32),
	}
	// The schema's instance counts size the array (a hint: they need not
	// describe the state r reads).
	var hint uint64
	doc.Schema.Root.Walk(func(sn *schema.Node) { hint += sn.NodeCount })
	rep.Nodes = make([]Node, 0, hint)
	if _, err := rep.addSubtree(r, root, -1, 0); err != nil {
		return nil, err
	}
	// The arenas keep no growth slack: a Rep lives as long as its document
	// stays unmodified.
	rep.Labels = append([]byte(nil), rep.Labels...)
	rep.Text = append([]byte(nil), rep.Text...)
	// A bulk-loaded document's handles ascend in document order; only one
	// that updates have reshuffled needs the handle-order index.
	if !sort.SliceIsSorted(rep.Nodes, func(a, b int) bool { return rep.Nodes[a].Handle < rep.Nodes[b].Handle }) {
		rep.byHandle = make([]int32, len(rep.Nodes))
		for i := range rep.byHandle {
			rep.byHandle[i] = int32(i)
		}
		sort.Slice(rep.byHandle, func(a, b int) bool {
			return rep.Nodes[rep.byHandle[a]].Handle < rep.Nodes[rep.byHandle[b]].Handle
		})
	}
	rep.Bytes = rep.footprint()
	return rep, nil
}

// maxBuildDepth bounds addSubtree's recursion (one frame per tree level);
// deeper documents fail the build and stay paged rather than risk the
// goroutine stack.
const maxBuildDepth = 4096

// addSubtree appends d and its subtree, returning d's index.
func (rep *Rep) addSubtree(r storage.Reader, d storage.Desc, parent int32, depth int) (int32, error) {
	if depth > maxBuildDepth {
		return 0, fmt.Errorf("resident: document deeper than %d levels", maxBuildDepth)
	}
	i := int32(len(rep.Nodes))
	n := Node{
		SchemaID:   d.SchemaID,
		Handle:     d.Handle,
		Parent:     parent,
		LabelOff:   uint32(len(rep.Labels)),
		LabelDelim: d.Label.Delim,
		TextOff:    uint32(len(rep.Text)),
		HasText:    !d.Text.IsNil(),
	}
	rep.Labels = append(rep.Labels, d.Label.Prefix...)
	if n.HasText {
		var err error
		if rep.Text, err = storage.AppendText(r, d.Text, d.TextLen, rep.Text); err != nil {
			return 0, err
		}
	}
	rep.Nodes = append(rep.Nodes, n)
	rep.BySchema[d.SchemaID] = append(rep.BySchema[d.SchemaID], i)

	c, ok, err := storage.FirstChild(r, &d)
	if err != nil {
		return 0, err
	}
	for ok {
		if _, err := rep.addSubtree(r, c, i, depth+1); err != nil {
			return 0, err
		}
		if c.RightSib.IsNil() {
			break
		}
		if c, err = storage.ReadDesc(r, c.RightSib); err != nil {
			return 0, err
		}
	}
	rep.Nodes[i].SubtreeEnd = int32(len(rep.Nodes))
	return i, nil
}

// footprint approximates the Rep's memory cost: the node array, both
// arenas, and the two indexes (map entry overhead estimated).
func (rep *Rep) footprint() uint64 {
	const mapEntryCost = 24 // key + value + bucket overhead, roughly
	b := uint64(cap(rep.Nodes)) * uint64(unsafe.Sizeof(Node{}))
	b += uint64(len(rep.Labels)) + uint64(len(rep.Text)) + uint64(len(rep.byHandle))*4
	for _, l := range rep.BySchema {
		b += uint64(cap(l))*4 + mapEntryCost
	}
	return b
}

// DescendantRange returns the slice of schemaID's index list falling
// strictly inside anc's subtree — the resident descendant scan. Because
// the array is in document order and list entries are ascending, two
// binary searches bound the result. Schema nodes have a fixed depth, so for
// a schema child of anc's schema node these are exactly anc's children.
func (rep *Rep) DescendantRange(schemaID uint32, anc int32) []int32 {
	list := rep.BySchema[schemaID]
	end := rep.Nodes[anc].SubtreeEnd
	lo := searchIdx(list, anc+1)
	hi := searchIdx(list, end)
	return list[lo:hi]
}

// searchIdx returns the first position in the ascending list whose value is
// >= v.
func searchIdx(list []int32, v int32) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
