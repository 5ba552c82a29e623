package storage

import (
	"fmt"

	"sedna/internal/nid"
	"sedna/internal/sas"
	"sedna/internal/schema"
)

// Link selects the chain a page run follows from one descriptor to the next.
type Link int

const (
	// NoLink decodes the one descriptor the run starts at.
	NoLink Link = iota
	// ListLink follows the schema node's list: the in-block chain, then the
	// first descriptor of the next non-empty block.
	ListLink
	// SiblingLink follows right-sibling pointers.
	SiblingLink
)

// RunBuffer receives the descriptors a page run decodes. The executor's node
// slab implements it, so a run is decoded straight into the slots its nodes
// will live in.
type RunBuffer interface {
	// NextDesc returns the slot for the next descriptor, nil when full.
	NextDesc() *Desc
	// Bytes returns n bytes for the slot's child pointers and label; they
	// must stay valid for as long as the descriptor is used.
	Bytes(n int) []byte
}

// ReadRun is the page-run decoder. Starting at the descriptor at (or, when at
// is a block's base pointer, at the first descriptor of the block) it decodes
// descriptors into out for as long as link leads to another descriptor on the
// same page, under a single ViewPage: descriptors are clustered by schema
// node (§4.1), so a step's neighbours are read together. The run ends early,
// before a descriptor, when out is full, when parent is non-nil and the
// descriptor is another parent's child, or when under is non-nil and the
// descriptor is not a descendant of that label — so a child step or a range
// scan decodes nothing past its end. It returns where the chain continues
// (nil: it ended, or a stop condition held). A descriptor whose label
// overflowed into text storage makes a run of its own, its label read after
// the page is released.
func ReadRun(r Reader, at sas.XPtr, link Link, parent sas.XPtr, under *nid.Label, out RunBuffer) (sas.XPtr, error) {
	page, pin, h, at, err := viewDesc(r, at)
	if err != nil || at.IsNil() {
		return sas.NilPtr, err
	}
	base, off := at.PageBase(), uint16(at.PageOffset())
	for n := 0; ; n++ {
		b := page[off:]
		ov, ovLen := overflowOf(b)
		var prefix []byte
		switch {
		case !parent.IsNil() && getPtr(b, dParent) != parent:
			r.ReleasePage(pin)
			return sas.NilPtr, nil
		case !ov.IsNil() && n > 0:
			r.ReleasePage(pin)
			return base.Add(uint32(off)), nil
		case !ov.IsNil():
			// Read the label first, then come back for the descriptor: the
			// range check needs it, and no page stays viewed across the text
			// read.
			r.ReleasePage(pin)
			if prefix, err = ReadText(r, ov, ovLen); err != nil {
				return sas.NilPtr, fmt.Errorf("storage: overflowed label of %v: %w", at, err)
			}
			if page, pin, err = r.ViewPage(at); err != nil {
				return sas.NilPtr, err
			}
			b = page[off:]
		}
		if under != nil {
			l := nid.Label{Prefix: prefix, Delim: b[dNidDelim]}
			if ov.IsNil() {
				l.Prefix = b[dNid : dNid+int(getU16(b, dNidLen))]
			}
			if !nid.IsAncestor(*under, l) {
				r.ReleasePage(pin)
				return sas.NilPtr, nil
			}
		}
		d := out.NextDesc()
		if d == nil {
			r.ReleasePage(pin)
			return base.Add(uint32(off)), nil
		}
		decodeDescAt(d, page, base, off, &h, out.Bytes(descVarLen(b, &h)))
		var next sas.XPtr
		switch link {
		case ListLink:
			if next = d.NextInBlock; next.IsNil() {
				next = h.Next
			}
		case SiblingLink:
			next = d.RightSib
		}
		if ov.IsNil() && !next.IsNil() && next.PageBase() == base {
			off = uint16(next.PageOffset())
			continue
		}
		if !ov.IsNil() {
			d.Label.Prefix = prefix
		}
		r.ReleasePage(pin)
		return next, nil
	}
}

// viewDesc views the page of the descriptor at p — or, when p is a block's
// base pointer, of the first descriptor from that block on, skipping blocks a
// run of deletes left empty — and returns the view, the block's header and
// the descriptor's address. The address is nil, and nothing is viewed, when
// the list ended.
func viewDesc(r Reader, p sas.XPtr) ([]byte, any, nodeBlockHeader, sas.XPtr, error) {
	for !p.IsNil() {
		page, pin, err := r.ViewPage(p)
		if err != nil {
			return nil, nil, nodeBlockHeader{}, sas.NilPtr, err
		}
		h, err := decodeNodeHeader(page)
		if err != nil {
			r.ReleasePage(pin)
			return nil, nil, nodeBlockHeader{}, sas.NilPtr, err
		}
		if p.PageOffset() != 0 {
			return page, pin, h, p, nil
		}
		if h.FirstDesc != 0 {
			return page, pin, h, p.Add(uint32(h.FirstDesc)), nil
		}
		r.ReleasePage(pin)
		p = h.Next
	}
	return nil, nil, nodeBlockHeader{}, sas.NilPtr, nil
}

// oneDesc is the RunBuffer of a single-descriptor read; the descriptor and
// (up to oneDescInline of) its bytes are one allocation.
type oneDesc struct {
	d      Desc
	full   bool
	inline [oneDescInline]byte
}

const oneDescInline = 64

func (o *oneDesc) NextDesc() *Desc {
	if o.full {
		return nil
	}
	o.full = true
	return &o.d
}

func (o *oneDesc) Bytes(n int) []byte {
	if n <= oneDescInline {
		return o.inline[:n]
	}
	return make([]byte, n)
}

// ReadDesc reads and fully decodes the node descriptor at ptr, resolving an
// overflowed numbering-scheme label from text storage when necessary.
func ReadDesc(r Reader, ptr sas.XPtr) (Desc, error) {
	var o oneDesc
	_, err := ReadRun(r, ptr, NoLink, sas.NilPtr, nil, &o)
	return o.d, err
}

// DescOf resolves a node handle and reads its descriptor.
func DescOf(r Reader, handle sas.XPtr) (Desc, error) {
	p, err := DerefHandle(r, handle)
	if err != nil {
		return Desc{}, err
	}
	return ReadDesc(r, p)
}

// Text returns the text value of the node (empty for nodes without text).
func Text(r Reader, d *Desc) ([]byte, error) {
	if d.Text.IsNil() {
		return nil, nil
	}
	return ReadText(r, d.Text, d.TextLen)
}

// ParentOf reads the parent descriptor, or ok=false for the document node.
func ParentOf(r Reader, d *Desc) (Desc, bool, error) {
	if d.Parent.IsNil() {
		return Desc{}, false, nil
	}
	p, err := DescOf(r, d.Parent)
	if err != nil {
		return Desc{}, false, err
	}
	return p, true, nil
}

// FirstChild returns the first child of d in document order: among the
// per-schema first-child pointers it is the one with the smallest label.
// ok=false if d has no children.
func FirstChild(r Reader, d *Desc) (Desc, bool, error) {
	var best Desc
	found := false
	for i := 0; i < d.Children.Len(); i++ {
		c := d.Children.At(i)
		if c.IsNil() {
			continue
		}
		cd, err := ReadDesc(r, c)
		if err != nil {
			return Desc{}, false, err
		}
		if !found || nid.Compare(cd.Label, best.Label) < 0 {
			best = cd
			found = true
		}
	}
	return best, found, nil
}

// FirstChildPtr returns the address of d's first child in document order
// (nil: no children). With a single non-empty schema-child slot that is the
// slot's pointer and nothing is read.
func FirstChildPtr(r Reader, d *Desc) (sas.XPtr, error) {
	only, n := sas.NilPtr, 0
	for i := 0; i < d.Children.Len(); i++ {
		if c := d.Children.At(i); !c.IsNil() {
			only, n = c, n+1
		}
	}
	if n <= 1 {
		return only, nil
	}
	c, _, err := FirstChild(r, d)
	return c.Ptr, err
}

// LastChild returns the last child of d in document order.
func LastChild(r Reader, d *Desc) (Desc, bool, error) {
	// Take the per-schema first child with the greatest label, then follow
	// right-sibling pointers to the end.
	var cur Desc
	found := false
	for i := 0; i < d.Children.Len(); i++ {
		c := d.Children.At(i)
		if c.IsNil() {
			continue
		}
		cd, err := ReadDesc(r, c)
		if err != nil {
			return Desc{}, false, err
		}
		if !found || nid.Compare(cd.Label, cur.Label) > 0 {
			cur = cd
			found = true
		}
	}
	if !found {
		return Desc{}, false, nil
	}
	for !cur.RightSib.IsNil() {
		next, err := ReadDesc(r, cur.RightSib)
		if err != nil {
			return Desc{}, false, err
		}
		cur = next
	}
	return cur, true, nil
}

// ChildAtSlot returns the first child stored under the given schema-child
// slot. Descriptors in narrow blocks (delayed widening) report nil for
// slots beyond their width.
func (d *Desc) ChildAtSlot(slot int) sas.XPtr {
	if slot < 0 || slot >= d.Children.Len() {
		return sas.NilPtr
	}
	return d.Children.At(slot)
}

// FirstOfSchema returns the first descriptor of the schema node's block
// list in document order; ok=false when the list is empty.
func FirstOfSchema(r Reader, sn *schema.Node) (Desc, bool, error) {
	block := sn.FirstBlock
	for !block.IsNil() {
		h, err := readNodeHeader(r, block)
		if err != nil {
			return Desc{}, false, err
		}
		if h.FirstDesc != 0 {
			d, err := ReadDesc(r, block.Add(uint32(h.FirstDesc)))
			if err != nil {
				return Desc{}, false, err
			}
			return d, true, nil
		}
		block = h.Next
	}
	return Desc{}, false, nil
}

// LastOfSchema returns the last descriptor of the schema node's list.
func LastOfSchema(r Reader, sn *schema.Node) (Desc, bool, error) {
	block := sn.LastBlock
	for !block.IsNil() {
		h, err := readNodeHeader(r, block)
		if err != nil {
			return Desc{}, false, err
		}
		if h.LastDesc != 0 {
			d, err := ReadDesc(r, block.Add(uint32(h.LastDesc)))
			if err != nil {
				return Desc{}, false, err
			}
			return d, true, nil
		}
		block = h.Prev
	}
	return Desc{}, false, nil
}

// descRun is the RunBuffer of the callback scans: a fixed array of slots, and
// bytes that are never reused, since a visitor may keep a descriptor.
type descRun struct {
	d     [32]Desc
	n     int
	bytes []byte
}

func (b *descRun) NextDesc() *Desc {
	if b.n == len(b.d) {
		return nil
	}
	b.n++
	return &b.d[b.n-1]
}

func (b *descRun) Bytes(n int) []byte {
	if n > len(b.bytes) {
		b.bytes = make([]byte, n+1024)
	}
	out := b.bytes[:n:n]
	b.bytes = b.bytes[n:]
	return out
}

// ScanSchema calls visit for every node of the schema node in document
// order, one page view per run of descriptors. visit returning false stops
// the scan. This is the block-list scan behind index builds and ANALYZE.
func ScanSchema(r Reader, sn *schema.Node, visit func(Desc) (bool, error)) error {
	var run descRun
	for at := sn.FirstBlock; !at.IsNil(); {
		run.n = 0
		next, err := ReadRun(r, at, ListLink, sas.NilPtr, nil, &run)
		if err != nil {
			return err
		}
		for i := 0; i < run.n; i++ {
			if cont, err := visit(run.d[i]); err != nil || !cont {
				return err
			}
		}
		at = next
	}
	return nil
}

// links is what peekDesc reads of a descriptor.
type links struct {
	at, child, next sas.XPtr
}

// peekDesc reads, under one page view and without decoding the descriptor,
// what a structural descent or a parent search needs of the descriptor at p
// (or, when p is a block's base pointer, of the first descriptor from that
// block on): its address (nil: the list ended), first child in the slot
// (slot < 0, or beyond a narrow block's width: none), the next descriptor of
// its list and, when under is not nil, whether it lies under that label.
func peekDesc(r Reader, p sas.XPtr, slot int, under *nid.Label) (l links, inRange bool, err error) {
	page, pin, h, at, err := viewDesc(r, p)
	if err != nil || at.IsNil() {
		return links{}, false, err
	}
	b := page[at.PageOffset():]
	l = links{at: at, next: h.Next}
	if slot >= 0 && slot < h.ChildSlots {
		l.child = getPtr(b, dChildren+8*slot)
	}
	if n := getU16(b, dNextIn); n != 0 {
		l.next = at.PageBase().Add(uint32(n))
	}
	lab := nid.Label{Delim: b[dNidDelim]}
	ov, ovLen := overflowOf(b)
	if under != nil && ov.IsNil() {
		lab.Prefix = b[dNid : dNid+int(getU16(b, dNidLen))]
		inRange = nid.IsAncestor(*under, lab)
	}
	r.ReleasePage(pin)
	if under != nil && !ov.IsNil() {
		if lab.Prefix, err = ReadText(r, ov, ovLen); err != nil {
			return links{}, false, err
		}
		inRange = nid.IsAncestor(*under, lab)
	}
	return l, inRange, nil
}

// FirstInRange returns the address of the first descriptor of sn, in document
// order, inside the subtree of ctx, an instance of sn's schema ancestor ctxSN;
// nil when the subtree holds none. This is the primitive behind schema-driven
// descendant-axis evaluation, and its cost is bounded by ctx's own subtree,
// never by the length of sn's block list. It decodes no descriptor: the
// caller starts a ReadRun at the address.
//
// The start is found by structural descent along the schema path ctxSN → … →
// sn. The first level is ctx's own first-child pointer for that schema child
// (§4.1: one per schema child). At each deeper level the previous level's
// nodes inside ctx's subtree are walked in list order until one has a child
// of the next schema node: nodes of one schema node never nest, so document
// order of a level carries over to their children, and the first child found
// is the first in document order.
//
// When ctxSN has at most one instance (document node, root element,
// singletons) every instance of sn lies under it, and the range starts at the
// head of sn's list. NodeCount need not describe the state r reads, so the
// head is used only if it does lie under ctx.
func FirstInRange(r Reader, ctx *Desc, ctxSN, sn *schema.Node) (sas.XPtr, error) {
	if ctxSN.NodeCount <= 1 {
		head, in, err := peekDesc(r, sn.FirstBlock, -1, &ctx.Label)
		if err != nil || in {
			return head.at, err
		}
	}
	var buf [16]*schema.Node
	path := buf[:0] // sn first, ctxSN's child last
	for n := sn; n != ctxSN; n = n.Parent {
		if n == nil {
			return sas.NilPtr, fmt.Errorf("storage: schema node %d is not below %d", sn.ID, ctxSN.ID)
		}
		path = append(path, n)
	}
	if len(path) == 0 {
		return sas.NilPtr, nil
	}
	level := len(path) - 1
	p := ctx.ChildAtSlot(ctxSN.ChildIndex(path[level]))
	for ; level > 0 && !p.IsNil(); level-- {
		slot := path[level].ChildIndex(path[level-1])
		for !p.IsNil() {
			l, in, err := peekDesc(r, p, slot, &ctx.Label)
			if err != nil {
				return sas.NilPtr, err
			}
			if l.at.IsNil() || !in {
				return sas.NilPtr, nil
			}
			if p = l.next; !l.child.IsNil() {
				p = l.child
				break
			}
		}
	}
	return p, nil
}

// ValueWalk reads the values that a chain of schema-child slots leads to from
// a batch of start nodes of one schema node, where they lie, and reports for
// each start whether one of its values held. slots[i] is the slot followed
// from the nodes of level i (the starts are level 0). With text, the last
// slot is the leaf elements' text child (-1: none) and a leaf's value is its
// text children concatenated ("" with none); otherwise a leaf is an attribute
// and its value its own text.
//
// Each level is read once for the whole batch. A node's children in a slot
// are its first child there, then the child's list while the parent stays
// the same (§4.1): the children of consecutive starts lie one after another
// in one list, so one page view serves every node of a level on that page.
// Only the parent, handle, child-slot, in-block link and text fields of a
// descriptor are read; no descriptor is decoded. The starts are added as
// decoded descriptors (Add) or read the same way straight from their list
// (Scan). The text records are read after the last level's view is released,
// one view per text page, so no page stays viewed across another read.
//
// The zero value is ready for use, and a walk reuses the frontiers of the
// one before it.
type ValueWalk struct {
	cur, next []walkNode // the level read last and the one being built
	held      []bool     // per start: a value held
	starts    []sas.XPtr // per start: its descriptor's address
}

// walkNode is one node of a walk's frontier.
type walkNode struct {
	owner, parent int32    // the start it descends from; its parent's index in the level above
	handle, first sas.XPtr // its handle; its first child in the next level's slot
	text          sas.XPtr
	textLen       uint32
}

// Reset empties the batch.
func (w *ValueWalk) Reset() { w.cur, w.held, w.starts = w.cur[:0], w.held[:0], w.starts[:0] }

// Add appends a start node, whose first children are read in slot (the
// chain's first). Starts need not be adjacent in their list.
func (w *ValueWalk) Add(d *Desc, slot int) {
	w.cur = append(w.cur, walkNode{owner: int32(len(w.held)), parent: -1, handle: d.Handle, first: d.ChildAtSlot(slot)})
	w.held = append(w.held, false)
	w.starts = append(w.starts, d.Ptr)
}

// Scan resets the batch and adds as its starts up to max descriptors of a
// list from at, ending where ReadRun with ListLink, parent and under ends;
// their first children are read in slot (-1: none, and the starts are only
// counted). It returns where the list continues (nil: it ended) and how many
// starts it read: none, with a continuation, before a label that overflowed
// (read only for under).
func (w *ValueWalk) Scan(r Reader, at, parent sas.XPtr, under *nid.Label, max, slot int) (sas.XPtr, int, error) {
	w.Reset()
	w.next = w.next[:0]
	var v walkView
	next, n, err := w.list(r, &v, at, parent, under, max, slot, -1)
	v.release(r)
	w.cur, w.next = w.next, w.cur
	return next, n, err
}

// Held reports whether a value of the i-th start held in the last Run.
func (w *ValueWalk) Held(i int) bool { return w.held[i] }

// AppendHeld appends to dst the addresses of the starts a value held for in
// the last Run, in order.
func (w *ValueWalk) AppendHeld(dst []sas.XPtr) []sas.XPtr {
	for i, h := range w.held {
		if h {
			dst = append(dst, w.starts[i])
		}
	}
	return dst
}

// Run walks the chain from the starts added since Reset, with slots[0] the
// slot they were added with. Each value is appended to buf at its length on
// entry and handed to visit; visit returning true marks the value's start as
// held, and that start's remaining values are skipped. Run returns buf with
// the last value visited.
func (w *ValueWalk) Run(r Reader, slots []int, text bool, buf []byte, visit func(v []byte) bool) ([]byte, error) {
	for i := range slots {
		next := -1
		if i+1 < len(slots) {
			next = slots[i+1]
		}
		if err := w.level(r, next); err != nil {
			return buf, err
		}
		if i+1 < len(slots) {
			w.cur, w.next = w.next, w.cur
		}
	}
	var tv textView
	buf, err := w.values(r, &tv, text, buf, visit)
	tv.release(r)
	return buf, err
}

// values reads the values of the last level through tv and hands them to
// visit.
func (w *ValueWalk) values(r Reader, tv *textView, text bool, buf []byte, visit func([]byte) bool) ([]byte, error) {
	base := len(buf)
	if !text {
		for i := range w.next {
			a := &w.next[i]
			if w.held[a.owner] {
				continue
			}
			var err error
			if buf, err = tv.append(r, a.text, a.textLen, buf[:base]); err != nil {
				return buf, err
			}
			w.held[a.owner] = visit(buf[base:])
		}
		return buf, nil
	}
	// w.cur holds the leaf elements, w.next their text children in order.
	j := 0
	for i := range w.cur {
		k := j
		for k < len(w.next) && w.next[k].parent == int32(i) {
			k++
		}
		if owner := w.cur[i].owner; !w.held[owner] {
			buf = buf[:base]
			for _, t := range w.next[j:k] {
				var err error
				if buf, err = tv.append(r, t.text, t.textLen, buf); err != nil {
					return buf, err
				}
			}
			w.held[owner] = visit(buf[base:])
		}
		j = k
	}
	return buf, nil
}

// level reads the children of the nodes of w.cur into w.next, taking each
// child's first child in slot (-1: none).
func (w *ValueWalk) level(r Reader, slot int) error {
	w.next = w.next[:0]
	var v walkView
	for i := range w.cur {
		if _, _, err := w.list(r, &v, w.cur[i].first, w.cur[i].handle, nil, 0, slot, int32(i)); err != nil {
			return err
		}
	}
	v.release(r)
	return nil
}

// walkView is the page view a walk holds, with its block's next block.
type walkView struct {
	textView
	next       sas.XPtr
	childSlots int
}

// list appends to w.next a list's descriptors from p, each with its first
// child in slot and up, its parent's index in w.cur (-1: a start of Scan; with
// slot -1 too, it only counts them). It returns how many it read, and nil
// where ReadRun's parent and under bounds end the list, or the next
// descriptor's address once it read max (max > 0) or before a label that
// overflowed (under not nil). v holds one page view at a time.
func (w *ValueWalk) list(r Reader, v *walkView, p, parent sas.XPtr, under *nid.Label, max, slot int, up int32) (sas.XPtr, int, error) {
	read := 0
	for !p.IsNil() {
		if v.page == nil || p.PageBase() != v.base {
			v.release(r)
			page, pin, err := r.ViewPage(p)
			if err != nil {
				return sas.NilPtr, read, err
			}
			if page[nbKind] != blockKindNode {
				r.ReleasePage(pin)
				return sas.NilPtr, read, fmt.Errorf("storage: value walk at %v: not a node block (kind %d)", p, page[nbKind])
			}
			*v = walkView{textView{page, pin, p.PageBase()}, getPtr(page, nbNext), int(getU16(page, nbChildSlots))}
		}
		off := uint16(p.PageOffset())
		if off == 0 { // a block's base pointer: its first descriptor, if any
			if off = getU16(v.page, nbFirstDesc); off == 0 {
				p = v.next
				continue
			}
		}
		b := v.page[off:]
		if !parent.IsNil() && getPtr(b, dParent) != parent {
			break
		}
		if under != nil {
			if ov, _ := overflowOf(b); !ov.IsNil() {
				return v.base.Add(uint32(off)), read, nil
			}
			if !nid.IsAncestor(*under, nid.Label{Prefix: b[dNid : dNid+int(getU16(b, dNidLen))], Delim: b[dNidDelim]}) {
				break
			}
		}
		if max > 0 && read == max {
			return v.base.Add(uint32(off)), read, nil
		}
		read++
		if p = v.next; getU16(b, dNextIn) != 0 {
			p = v.base.Add(uint32(getU16(b, dNextIn)))
		}
		if up < 0 && slot < 0 {
			continue
		}
		n := walkNode{parent: up, handle: getPtr(b, dHandle)}
		if up >= 0 { // only a level's nodes can be leaves: a start's text is not read
			n.owner, n.text, n.textLen = w.cur[up].owner, getPtr(b, dText), getU32(b, dTextLen)
		} else {
			n.owner = int32(len(w.held))
			w.held = append(w.held, false)
			w.starts = append(w.starts, v.base.Add(uint32(off)))
		}
		if slot >= 0 && slot < v.childSlots {
			n.first = getPtr(b, dChildren+8*slot)
		}
		w.next = append(w.next, n)
	}
	return sas.NilPtr, read, nil
}

// BlockCountNext decodes the live-descriptor count and next pointer from a
// node-block page; recovery uses it to recompute schema counters.
func BlockCountNext(page []byte) (count int, next sas.XPtr) {
	return int(getU16(page, nbCount)), getPtr(page, nbNext)
}

// NodeBlockDoc returns the owning document of a node-block page, and false
// for a page of any other kind; recovery uses it to tell which documents a
// redone transaction wrote.
func NodeBlockDoc(page []byte) (docID uint32, ok bool) {
	if page[0] != blockKindNode {
		return 0, false
	}
	return getU32(page, nbDocID), true
}

// ChainNext returns the next-block pointer of any block kind (node, text or
// indirection block); used when dropping a document frees whole chains.
func ChainNext(r Reader, block sas.XPtr) (sas.XPtr, error) {
	var next sas.XPtr
	err := r.ReadPage(block, func(page []byte) error {
		switch page[0] {
		case blockKindNode:
			next = getPtr(page, nbNext)
		case blockKindText:
			next = getPtr(page, tbNext)
		case blockKindIndir:
			next = getPtr(page, ibNext)
		default:
			return fmt.Errorf("storage: ChainNext on unknown block kind %d", page[0])
		}
		return nil
	})
	return next, err
}

// IsAncestorDesc reports whether a is a proper ancestor of b using the
// numbering scheme — no tree traversal required (§4.1.1 mechanism 1).
func IsAncestorDesc(a, b *Desc) bool {
	return nid.IsAncestor(a.Label, b.Label)
}

// DocLess reports document order between two nodes via their labels
// (§4.1.1 mechanism 2).
func DocLess(a, b *Desc) bool {
	return nid.Compare(a.Label, b.Label) < 0
}
