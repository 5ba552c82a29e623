// Package subtree implements the baseline storage strategy the paper
// contrasts with schema-driven clustering (§2): an XML document stored as
// depth-first-serialized subtrees, so an element is physically adjacent to
// its descendants. Retrieving a whole element (with sub-elements of all
// types) is a contiguous read; selecting only nodes of one name/predicate
// must visit every record, because records of different element types share
// pages. Experiment E1 measures both sides of that trade-off against the
// schema-driven store.
//
// The store uses the same page substrate (storage.Writer/Reader) as the
// main engine, so buffer-manager costs are comparable.
package subtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"sedna/internal/sas"
	"sedna/internal/storage"
	"sedna/internal/xmlscan"
)

// Page layout: kind(1) pad(1) used(2) next(8) = 12-byte header, then data.
const (
	pageKind   = 6
	phUsed     = 2
	phNext     = 4
	pageHeader = 12
	pageData   = sas.PageSize - pageHeader
)

// Record header: kind(1) nameLen(2) textLen(4) subtreeLen(4) = 11 bytes,
// then name bytes, then text bytes. subtreeLen is the total encoded length
// of the record and all its descendants, enabling contiguous subtree reads
// and subtree skips.
const recHeader = 11

// Node kinds.
const (
	KindElement = 1
	KindText    = 2
	KindAttr    = 3
)

// Store is one subtree-clustered document.
type Store struct {
	First sas.XPtr // first page
	Size  int64    // total encoded bytes
}

// writerStream appends bytes across chained pages.
type writerStream struct {
	w     storage.Writer
	first sas.XPtr
	cur   sas.XPtr
	used  int
	total int64
	buf   []byte // page-local buffer flushed on page switch
}

func newWriterStream(w storage.Writer) (*writerStream, error) {
	ws := &writerStream{w: w}
	if err := ws.newPage(); err != nil {
		return nil, err
	}
	ws.first = ws.cur
	return ws, nil
}

func (ws *writerStream) newPage() error {
	id, err := ws.w.AllocPage()
	if err != nil {
		return err
	}
	page := make([]byte, sas.PageSize)
	page[0] = pageKind
	if err := ws.w.WriteAt(id.Ptr(), page); err != nil {
		return err
	}
	if !ws.cur.IsNil() {
		if err := ws.flush(); err != nil {
			return err
		}
		var next [8]byte
		binary.LittleEndian.PutUint64(next[:], uint64(id.Ptr()))
		if err := ws.w.WriteAt(ws.cur.Add(phNext), next[:]); err != nil {
			return err
		}
	}
	ws.cur = id.Ptr()
	ws.used = 0
	ws.buf = ws.buf[:0]
	return nil
}

func (ws *writerStream) flush() error {
	if len(ws.buf) == 0 {
		return nil
	}
	off := pageHeader + ws.used - len(ws.buf)
	if err := ws.w.WriteAt(ws.cur.Add(uint32(off)), ws.buf); err != nil {
		return err
	}
	var used [2]byte
	binary.LittleEndian.PutUint16(used[:], uint16(ws.used))
	if err := ws.w.WriteAt(ws.cur.Add(phUsed), used[:]); err != nil {
		return err
	}
	ws.buf = ws.buf[:0]
	return nil
}

func (ws *writerStream) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if ws.used == pageData {
			if err := ws.newPage(); err != nil {
				return 0, err
			}
		}
		room := pageData - ws.used
		chunk := p
		if len(chunk) > room {
			chunk = chunk[:room]
		}
		ws.buf = append(ws.buf, chunk...)
		ws.used += len(chunk)
		ws.total += int64(len(chunk))
		p = p[len(chunk):]
	}
	return n, nil
}

// node is the in-memory build tree.
type node struct {
	kind     byte
	name     string
	text     string
	children []*node
}

func (n *node) encodedLen() int {
	total := recHeader + len(n.name) + len(n.text)
	for _, c := range n.children {
		total += c.encodedLen()
	}
	return total
}

func (n *node) encode(w io.Writer) error {
	var hdr [recHeader]byte
	hdr[0] = n.kind
	binary.LittleEndian.PutUint16(hdr[1:], uint16(len(n.name)))
	binary.LittleEndian.PutUint32(hdr[3:], uint32(len(n.text)))
	binary.LittleEndian.PutUint32(hdr[7:], uint32(n.encodedLen()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := io.WriteString(w, n.name); err != nil {
		return err
	}
	if _, err := io.WriteString(w, n.text); err != nil {
		return err
	}
	for _, c := range n.children {
		if err := c.encode(w); err != nil {
			return err
		}
	}
	return nil
}

// Load parses XML from r and stores it subtree-clustered: elements and
// attributes by local name, whitespace-only text dropped.
func Load(w storage.Writer, r io.Reader) (*Store, error) {
	sc := xmlscan.NewScanner(r)
	root := &node{kind: KindElement, name: "#document"}
	stack := []*node{root}
	for {
		kind, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("subtree: parse: %w", err)
		}
		top := stack[len(stack)-1]
		switch kind {
		case xmlscan.StartElement:
			n := &node{kind: KindElement, name: string(sc.Name().Local)}
			for _, a := range sc.Attrs() {
				n.children = append(n.children, &node{kind: KindAttr, name: string(a.Name.Local), text: string(a.Value)})
			}
			top.children = append(top.children, n)
			stack = append(stack, n)
		case xmlscan.EndElement:
			stack = stack[:len(stack)-1]
		case xmlscan.CharData:
			if len(bytes.TrimSpace(sc.Text())) == 0 {
				continue
			}
			top.children = append(top.children, &node{kind: KindText, text: string(sc.Text())})
		}
	}
	ws, err := newWriterStream(w)
	if err != nil {
		return nil, err
	}
	if err := root.encode(ws); err != nil {
		return nil, err
	}
	if err := ws.flush(); err != nil {
		return nil, err
	}
	return &Store{First: ws.first, Size: ws.total}, nil
}

// stream reads the byte stream back across chained pages.
type stream struct {
	r    storage.Reader
	cur  sas.XPtr
	off  int // offset into current page data
	used int
	next sas.XPtr
	pos  int64
}

func (s *Store) open(r storage.Reader) (*stream, error) {
	st := &stream{r: r, cur: s.First}
	if err := st.loadHeader(); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *stream) loadHeader() error {
	return st.r.ReadPage(st.cur, func(page []byte) error {
		if page[0] != pageKind {
			return fmt.Errorf("subtree: page %v has kind %d", st.cur, page[0])
		}
		st.used = int(binary.LittleEndian.Uint16(page[phUsed:]))
		st.next = sas.XPtr(binary.LittleEndian.Uint64(page[phNext:]))
		st.off = 0
		return nil
	})
}

func (st *stream) Read(p []byte) (int, error) {
	if st.off >= st.used {
		if st.next.IsNil() {
			return 0, io.EOF
		}
		st.cur = st.next
		if err := st.loadHeader(); err != nil {
			return 0, err
		}
		if st.used == 0 {
			return 0, io.EOF
		}
	}
	var n int
	err := st.r.ReadPage(st.cur, func(page []byte) error {
		data := page[pageHeader+st.off : pageHeader+st.used]
		n = copy(p, data)
		return nil
	})
	if err != nil {
		return 0, err
	}
	st.off += n
	st.pos += int64(n)
	return n, nil
}

// Rec is one decoded record header.
type Rec struct {
	Kind       byte
	Name       string
	Text       string
	SubtreeLen int
	Pos        int64 // stream position of the record start
}

// Scan visits every record in document order — the full-document scan that
// selective queries pay under subtree clustering. visit returning false
// stops.
func (s *Store) Scan(r storage.Reader, visit func(Rec) (bool, error)) error {
	st, err := s.open(r)
	if err != nil {
		return err
	}
	br := &byteReader{s: st}
	for {
		pos := st.pos - int64(br.buffered())
		var hdr [recHeader]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		nameLen := int(binary.LittleEndian.Uint16(hdr[1:]))
		textLen := int(binary.LittleEndian.Uint32(hdr[3:]))
		sub := int(binary.LittleEndian.Uint32(hdr[7:]))
		nb := make([]byte, nameLen+textLen)
		if _, err := io.ReadFull(br, nb); err != nil {
			return err
		}
		rec := Rec{
			Kind: hdr[0], Name: string(nb[:nameLen]), Text: string(nb[nameLen:]),
			SubtreeLen: sub, Pos: pos,
		}
		cont, err := visit(rec)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
	}
}

// ReadSubtreeBytes reads the full encoded subtree at stream position pos —
// the contiguous read that makes subtree clustering fast for whole-element
// retrieval.
func (s *Store) ReadSubtreeBytes(r storage.Reader, pos int64, subtreeLen int) ([]byte, error) {
	st, err := s.open(r)
	if err != nil {
		return nil, err
	}
	if err := skipN(st, pos); err != nil {
		return nil, err
	}
	out := make([]byte, subtreeLen)
	if _, err := io.ReadFull(st, out); err != nil {
		return nil, err
	}
	return out, nil
}

func skipN(r io.Reader, n int64) error {
	_, err := io.CopyN(io.Discard, r, n)
	return err
}

// byteReader adds small-read buffering over the page stream.
type byteReader struct {
	s   *stream
	buf [512]byte
	r   int
	n   int
}

func (b *byteReader) buffered() int { return b.n - b.r }

func (b *byteReader) Read(p []byte) (int, error) {
	if b.r == b.n {
		n, err := b.s.Read(b.buf[:])
		if err != nil {
			return 0, err
		}
		b.r, b.n = 0, n
	}
	n := copy(p, b.buf[b.r:b.n])
	b.r += n
	return n, nil
}
