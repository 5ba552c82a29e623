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
	"unsafe"

	"sedna/internal/nid"
	"sedna/internal/sas"
	"sedna/internal/storage"
)

// Node is one document node in the structural array. Tree edges are array
// indices (-1 = none); the NID label and text value live in the Rep's shared
// arenas. The record is fixed-size, so a document's structure costs
// len(Nodes) * sizeof(Node) bytes plus the arenas.
type Node struct {
	SchemaID uint32
	Handle   sas.XPtr // indirection handle: stable node identity

	Parent     int32
	FirstChild int32
	NextSib    int32
	PrevSib    int32
	// SubtreeEnd is one past the last descendant's index: descendants of
	// node i are exactly the indices in (i, SubtreeEnd).
	SubtreeEnd int32

	LabelOff   uint32
	LabelLen   uint16
	LabelDelim byte

	TextOff uint32
	TextLen uint32
	HasText bool // distinguishes "no text pointer" from empty text
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
	// ByHandle bridges paged-origin descriptors (index probes, stored
	// handles) into the array; see Index.
	ByHandle map[sas.XPtr]int32

	// Bytes is the approximate memory footprint, used for the cache budget.
	Bytes uint64
}

// Label returns node i's NID label. The prefix aliases the shared arena;
// callers must not mutate it.
func (rep *Rep) Label(i int32) nid.Label {
	n := &rep.Nodes[i]
	return nid.Label{
		Prefix: rep.Labels[n.LabelOff : n.LabelOff+uint32(n.LabelLen)],
		Delim:  n.LabelDelim,
	}
}

// Desc materializes node i as a storage descriptor for the executor. The
// paged navigation fields (Ptr, sibling/text pointers, child slots) stay
// nil: a resident descriptor is only ever navigated through the resident
// store, which finds the node again by the index the descriptor carries.
func (rep *Rep) Desc(i int32) storage.Desc {
	n := &rep.Nodes[i]
	d := storage.Desc{
		SchemaID: n.SchemaID,
		DocID:    rep.DocID,
		Handle:   n.Handle,
		Label:    rep.Label(i),
		TextLen:  n.TextLen,
		Resident: i + 1,
	}
	if n.Parent >= 0 {
		d.Parent = rep.Nodes[n.Parent].Handle
	}
	return d
}

// NodeText returns node i's text value (nil when the node carries none).
func (rep *Rep) NodeText(i int32) []byte {
	n := &rep.Nodes[i]
	if !n.HasText {
		return nil
	}
	return rep.Text[n.TextOff : n.TextOff+n.TextLen]
}

// Index resolves a descriptor to its array index. A descriptor this Rep
// materialized carries the index (checked against the handle, so one from
// another version of the document cannot alias); a paged-origin descriptor
// — an index probe's result, a stored handle — goes through ByHandle.
func (rep *Rep) Index(d *storage.Desc) (int32, bool) {
	if i := d.Resident - 1; i >= 0 && int(i) < len(rep.Nodes) && rep.Nodes[i].Handle == d.Handle {
		return i, true
	}
	i, ok := rep.ByHandle[d.Handle]
	return i, ok
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
		ByHandle: make(map[sas.XPtr]int32),
	}
	if _, err := rep.addSubtree(r, root, -1, 0); err != nil {
		return nil, err
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
	if len(d.Label.Prefix) > 0xFFFF {
		return 0, fmt.Errorf("resident: NID label prefix of %d bytes exceeds 64 KiB", len(d.Label.Prefix))
	}
	i := int32(len(rep.Nodes))
	n := Node{
		SchemaID:   d.SchemaID,
		Handle:     d.Handle,
		Parent:     parent,
		FirstChild: -1,
		NextSib:    -1,
		PrevSib:    -1,
		LabelOff:   uint32(len(rep.Labels)),
		LabelLen:   uint16(len(d.Label.Prefix)),
		LabelDelim: d.Label.Delim,
	}
	rep.Labels = append(rep.Labels, d.Label.Prefix...)
	if !d.Text.IsNil() {
		txt, err := storage.Text(r, &d)
		if err != nil {
			return 0, err
		}
		n.HasText = true
		n.TextOff = uint32(len(rep.Text))
		n.TextLen = uint32(len(txt))
		rep.Text = append(rep.Text, txt...)
	}
	rep.Nodes = append(rep.Nodes, n)
	rep.BySchema[d.SchemaID] = append(rep.BySchema[d.SchemaID], i)
	rep.ByHandle[d.Handle] = i

	c, ok, err := storage.FirstChild(r, &d)
	if err != nil {
		return 0, err
	}
	prev := int32(-1)
	for ok {
		ci, err := rep.addSubtree(r, c, i, depth+1)
		if err != nil {
			return 0, err
		}
		if prev < 0 {
			rep.Nodes[i].FirstChild = ci
		} else {
			rep.Nodes[prev].NextSib = ci
			rep.Nodes[ci].PrevSib = prev
		}
		prev = ci
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
// arenas, and the two index maps (entry overhead estimated).
func (rep *Rep) footprint() uint64 {
	const mapEntryCost = 24 // key + value + bucket overhead, roughly
	b := uint64(len(rep.Nodes)) * uint64(unsafe.Sizeof(Node{}))
	b += uint64(len(rep.Labels)) + uint64(len(rep.Text))
	b += uint64(len(rep.ByHandle)) * mapEntryCost
	for _, l := range rep.BySchema {
		b += uint64(len(l))*4 + mapEntryCost
	}
	return b
}

// DescendantRange returns the slice of schemaID's index list falling
// strictly inside anc's subtree — the resident descendant scan. Because
// the array is in document order and list entries are ascending, two
// binary searches bound the result.
func (rep *Rep) DescendantRange(schemaID uint32, anc int32) []int32 {
	list := rep.BySchema[schemaID]
	end := rep.Nodes[anc].SubtreeEnd
	lo := searchIdx(list, anc+1)
	hi := searchIdx(list, end)
	return list[lo:hi]
}

// ChildrenOfSchema returns the indices of anc's children clustered under
// one schema child. Schema nodes have a fixed depth, so the schema child's
// instances inside anc's subtree range are exactly anc's children.
func (rep *Rep) ChildrenOfSchema(schemaID uint32, anc int32) []int32 {
	return rep.DescendantRange(schemaID, anc)
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
