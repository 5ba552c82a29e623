package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sedna/internal/sas"
	"sedna/internal/schema"
)

// walkModel is the in-memory model the value walk is checked against: a top
// element r whose s children are the starts, each with p children; a p has v
// and q children and at most one attribute a, a q has v children, and a v
// has text children.
type walkModel struct {
	t   *testing.T
	w   *memWriter
	doc *Doc
	r   sas.XPtr
	ss  []*walkElem
}

// walkElem is one element of the model: its children by name, in document
// order, and its text children's values.
type walkElem struct {
	h     sas.XPtr
	kids  []sas.XPtr // every child, in document order
	ps    []*walkElem
	vs    []*walkElem
	qs    []*walkElem
	attr  *string
	texts []string
}

func (m *walkModel) insert(parent *walkElem, at int, kind schema.NodeKind, name string, text []byte) sas.XPtr {
	m.t.Helper()
	var left, right sas.XPtr
	if at > 0 {
		left = parent.kids[at-1]
	}
	if at < len(parent.kids) {
		right = parent.kids[at]
	}
	h, err := InsertNode(m.w, m.doc, parent.h, left, right, kind, name, text)
	if err != nil {
		m.t.Fatalf("insert %s: %v", name, err)
	}
	parent.kids = slices.Insert(parent.kids, at, h)
	return h
}

// add appends a child element name to parent, at the end of its kind's
// children (and of all its children).
func (m *walkModel) add(parent *walkElem, name string) *walkElem {
	e := &walkElem{h: m.insert(parent, len(parent.kids), schema.KindElement, name, nil)}
	switch name {
	case "s":
		m.ss = append(m.ss, e)
	case "p":
		parent.ps = append(parent.ps, e)
	case "v":
		parent.vs = append(parent.vs, e)
	case "q":
		parent.qs = append(parent.qs, e)
	}
	return e
}

// addP inserts a p at a random place among the p children of s.
func (m *walkModel) addP(rng *rand.Rand, s *walkElem) {
	at := rng.Intn(len(s.ps) + 1)
	e := &walkElem{h: m.insert(s, at, schema.KindElement, "p", nil)}
	s.ps = slices.Insert(s.ps, at, e)
}

func (m *walkModel) addText(v *walkElem, s string) {
	m.insert(v, len(v.kids), schema.KindText, "", []byte(s))
	v.texts = append(v.texts, s)
}

func (m *walkModel) addAttr(p *walkElem, s string) {
	m.insert(p, 0, schema.KindAttribute, "a", []byte(s))
	p.attr = &s
}

// removeP deletes the i-th p of s with its subtree.
func (m *walkModel) removeP(s *walkElem, i int) {
	m.t.Helper()
	h := s.ps[i].h
	if err := DeleteSubtree(m.w, m.doc, h); err != nil {
		m.t.Fatal(err)
	}
	s.ps = slices.Delete(s.ps, i, i+1)
	s.kids = slices.DeleteFunc(s.kids, func(k sas.XPtr) bool { return k == h })
}

// buildWalkModel builds a random document. The p, v and q schema nodes gain
// their child schema nodes after many of their descriptors exist, so their
// lists hold narrow blocks (delayed widening); a run of deletes empties and
// frees blocks of the p list; texts are inserted after their elements. Last,
// an empty block is linked in after each block of the p and v lists.
func buildWalkModel(t *testing.T, seed int64, starts int) *walkModel {
	t.Helper()
	w := newMemWriter()
	doc, err := CreateDoc(w, 1, "walk")
	if err != nil {
		t.Fatal(err)
	}
	m := &walkModel{t: t, w: w, doc: doc}
	root := &walkElem{h: doc.RootHandle}
	top := m.add(root, "r")
	for i := 0; i < starts; i++ {
		m.add(top, "s")
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 3*starts; i++ {
		m.addP(rng, m.ss[rng.Intn(len(m.ss))])
	}
	randP := func() *walkElem {
		for {
			if s := m.ss[rng.Intn(len(m.ss))]; len(s.ps) > 0 {
				return s.ps[rng.Intn(len(s.ps))]
			}
		}
	}
	// A stretch of starts longer than a block loses every p.
	from := rng.Intn(starts / 2)
	for _, s := range m.ss[from : from+starts/3] {
		for len(s.ps) > 0 {
			m.removeP(s, len(s.ps)-1)
		}
	}
	for i := 0; i < 2*starts; i++ {
		switch p := randP(); rng.Intn(4) {
		case 0:
			m.add(m.add(p, "q"), "v")
		case 1:
			if p.attr == nil {
				m.addAttr(p, fmt.Sprint("a", rng.Intn(50)))
			}
		default:
			m.add(p, "v")
		}
	}
	var leaves []*walkElem
	for _, s := range m.ss {
		for _, p := range s.ps {
			leaves = append(leaves, p.vs...)
			for _, q := range p.qs {
				leaves = append(leaves, q.vs...)
			}
		}
	}
	for i := 0; i < len(leaves); i++ {
		v := leaves[rng.Intn(len(leaves))]
		for n := rng.Intn(4); n > 0; n-- { // some get none, some several
			m.addText(v, fmt.Sprint("t", rng.Intn(100)))
		}
		if rng.Intn(200) == 0 { // a record chained over several pages
			m.addText(v, strings.Repeat(fmt.Sprint("long", i), 9000))
		}
	}
	// A few single deletes after the texts.
	for i := 0; i < starts/10; i++ {
		if s := m.ss[rng.Intn(len(m.ss))]; len(s.ps) > 0 {
			m.removeP(s, rng.Intn(len(s.ps)))
		}
	}
	if err := VerifyDoc(w, doc); err != nil {
		t.Fatal(err)
	}
	sSn := doc.Schema.Root.Child(schema.KindElement, "r").Child(schema.KindElement, "s")
	pSn := sSn.Child(schema.KindElement, "p")
	if blocks, _ := m.blocks(sSn); blocks < 3 {
		t.Fatalf("the starts lie in %d blocks; the model must spread them over several", blocks)
	}
	if _, narrow := m.blocks(pSn); narrow == 0 {
		t.Fatal("no narrow block in the p list")
	}
	// An empty block after every block of the p and v lists: a list walk
	// steps over one, as viewDesc does.
	for _, sn := range []*schema.Node{pSn, pSn.Child(schema.KindElement, "v")} {
		for b := sn.FirstBlock; !b.IsNil(); {
			h, err := readNodeHeader(w, b)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := newNodeBlock(w, doc, sn, 0, b); err != nil {
				t.Fatal(err)
			}
			b = h.Next
		}
	}
	return m
}

// blocks counts the blocks of sn's list, and those narrower than sn's
// schema children.
func (m *walkModel) blocks(sn *schema.Node) (blocks, narrow int) {
	m.t.Helper()
	for b := sn.FirstBlock; !b.IsNil(); blocks++ {
		h, err := readNodeHeader(m.w, b)
		if err != nil {
			m.t.Fatal(err)
		}
		if h.ChildSlots < len(sn.Children) {
			narrow++
		}
		b = h.Next
	}
	return blocks, narrow
}

// walkChain is a chain of names from s, with the values the model gives it.
type walkChain struct {
	names  []string // "@a": the attribute
	text   bool
	values func(s *walkElem) []string
}

var walkChains = []walkChain{
	{[]string{"p", "v"}, true, func(s *walkElem) (out []string) {
		for _, p := range s.ps {
			for _, v := range p.vs {
				out = append(out, strings.Join(v.texts, ""))
			}
		}
		return out
	}},
	{[]string{"p", "q", "v"}, true, func(s *walkElem) (out []string) {
		for _, p := range s.ps {
			for _, q := range p.qs {
				for _, v := range q.vs {
					out = append(out, strings.Join(v.texts, ""))
				}
			}
		}
		return out
	}},
	{[]string{"p", "@a"}, false, func(s *walkElem) (out []string) {
		for _, p := range s.ps {
			if p.attr != nil {
				out = append(out, *p.attr)
			}
		}
		return out
	}},
	// p has no text child: each p's value is "".
	{[]string{"p"}, true, func(s *walkElem) (out []string) {
		return make([]string, len(s.ps))
	}},
}

// slots resolves a chain from the s schema node as the executor does.
func (m *walkModel) slots(c walkChain) []int {
	sn := m.doc.Schema.Root.Child(schema.KindElement, "r").Child(schema.KindElement, "s")
	var slots []int
	for _, name := range c.names {
		kind := schema.KindElement
		if strings.HasPrefix(name, "@") {
			kind, name = schema.KindAttribute, name[1:]
		}
		child := sn.Child(kind, name)
		if child == nil {
			m.t.Fatalf("no schema node %s", name)
		}
		slots, sn = append(slots, sn.ChildIndex(child)), child
	}
	if c.text {
		slots = append(slots, sn.ChildIndex(sn.Child(schema.KindText, "")))
	}
	return slots
}

// oneViewReader allows one page view at a time, as an updating transaction's
// reads must (a writer may re-point a page's frame): a view taken while
// another is held fails the test.
type oneViewReader struct {
	t    *testing.T
	w    *memWriter
	held bool
}

func (o *oneViewReader) ReadPage(p sas.XPtr, fn func([]byte) error) error {
	return o.w.ReadPage(p, fn)
}

func (o *oneViewReader) ViewPage(p sas.XPtr) ([]byte, any, error) {
	if o.held {
		o.t.Fatalf("view of %v while another view is held", p)
	}
	o.held = true
	return o.w.ViewPage(p)
}

func (o *oneViewReader) ReleasePage(any) { o.held = false }

// descs reads the starts' descriptors.
func descs(t *testing.T, r Reader, starts []*walkElem) []Desc {
	t.Helper()
	out := make([]Desc, len(starts))
	for i, s := range starts {
		var err error
		if out[i], err = DescOf(r, s.h); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// walkBatches walks the starts in batches of at most size, with visit
// recording every value it is handed and holding for the ones hold accepts;
// it returns the values in the order visited and the held flags.
func walkBatches(t *testing.T, r Reader, starts []Desc, slots []int, text bool, size int, hold func(string) bool) ([]string, []bool) {
	t.Helper()
	var vw ValueWalk
	var seen []string
	held := make([]bool, 0, len(starts))
	visit := func(v []byte) bool {
		seen = append(seen, string(v))
		return hold(string(v))
	}
	for len(starts) > 0 {
		n := min(size, len(starts))
		vw.Reset()
		for i := range starts[:n] {
			vw.Add(&starts[i], slots[0])
		}
		if _, err := vw.Run(r, slots, text, nil, visit); err != nil {
			t.Fatal(err)
		}
		for i := range n {
			held = append(held, vw.Held(i))
		}
		starts = starts[n:]
	}
	return seen, held
}

// TestValueWalkProperty walks random documents' value chains — one, two and
// three levels, element and attribute leaves, a leaf type without text, starts
// with no child in the first slot and with several — from
// every start, every other start and a random subset, in batches of 256, 7
// and 1, through a reader that holds its views (as a snapshot statement's
// does) and one that allows one view at a time (as an updating
// transaction's). Each start's values must be the model's, in document
// order, and a start that holds must be handed none of its later values.
func TestValueWalkProperty(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		m := buildWalkModel(t, seed, 600)
		rng := rand.New(rand.NewSource(seed))
		var odd, some []*walkElem
		for i, s := range m.ss {
			if i%2 == 1 {
				odd = append(odd, s)
			}
			if rng.Intn(5) == 0 {
				some = append(some, s)
			}
		}
		readers := map[string]Reader{"held views": m.w, "one view": &oneViewReader{t: t, w: m.w}}
		holds := map[string]func(string) bool{
			"none":  func(string) bool { return false },
			"7":     func(v string) bool { return strings.HasSuffix(v, "7") },
			"empty": func(v string) bool { return v == "" },
		}
		for ci, c := range walkChains {
			slots := m.slots(c)
			for sname, starts := range map[string][]*walkElem{"all": m.ss, "odd": odd, "some": some} {
				for hname, hold := range holds {
					var want []string
					var wantHeld []bool
					for _, s := range starts {
						h := false
						for _, v := range c.values(s) {
							want = append(want, v)
							if h = hold(v); h {
								break
							}
						}
						wantHeld = append(wantHeld, h)
					}
					for rname, r := range readers {
						for _, size := range []int{256, 7, 1} {
							got, gotHeld := walkBatches(t, r, descs(t, r, starts), slots, c.text, size, hold)
							if !slices.Equal(got, want) || !slices.Equal(gotHeld, wantHeld) {
								t.Fatalf("seed %d chain %d (%v), %s starts, hold %s, %s, batch %d: values or held flags differ from the model\ngot  %q\nwant %q",
									seed, ci, c.names, sname, hname, rname, size, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// valueWalkViews bounds the page views of one 256-start batch over p/v: the
// three levels' lists and the text records, each a few pages long, one view
// per page. Measured 7 when the bound was set, plus a quarter; the same
// starts walked one at a time take 1027, four per start.
const valueWalkViews = 8

// TestValueWalkViews counts the page views of a batch of 256 consecutive
// starts, each with one p, one v and one text, against valueWalkViews, and
// logs what the same starts cost walked one at a time.
func TestValueWalkViews(t *testing.T) {
	w := newMemWriter()
	doc, err := CreateDoc(w, 1, "views")
	if err != nil {
		t.Fatal(err)
	}
	m := &walkModel{t: t, w: w, doc: doc}
	top := m.add(&walkElem{h: doc.RootHandle}, "r")
	for i := 0; i < 600; i++ {
		m.addText(m.add(m.add(m.add(top, "s"), "p"), "v"), fmt.Sprint("t", i))
	}
	c := walkChains[0]
	slots := m.slots(c)
	starts := descs(t, w, m.ss[100:356])
	none := func(string) bool { return false }
	views := func(size int) int {
		v := w.views
		got, _ := walkBatches(t, w, starts, slots, c.text, size, none)
		if len(got) != len(starts) {
			t.Fatalf("%d values for %d starts", len(got), len(starts))
		}
		return w.views - v
	}
	batch, single := views(256), views(1)
	t.Logf("page views for %d starts: %d in one batch, %d one at a time (bound %d)", len(starts), batch, single, valueWalkViews)
	if batch > valueWalkViews {
		t.Fatalf("%d page views for a batch of %d starts, bound %d", batch, len(starts), valueWalkViews)
	}
}
