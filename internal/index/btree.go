// Package index implements Sedna's value indexes: a B+tree keyed by a typed
// value (string or number) mapping to node handles (§4.1.2: "node handle is
// used to refer to an XML node from index structures" — handles stay valid
// when descriptors move). The tree lives in database pages accessed through
// the storage Writer/Reader interfaces, so index updates are WAL-logged,
// versioned for snapshots, and physically redone by recovery like all other
// page content.
//
// Keys are normalized to a fixed 24-byte prefix (strings truncated, numbers
// order-preservingly encoded); the node handle is the tiebreaker. Equal
// prefixes of distinct long strings make the index imprecise, so lookups
// must be rechecked against the actual value — the query executor does.
package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"sedna/internal/sas"
	"sedna/internal/storage"
)

// KeyPrefixSize is the fixed normalized-key size.
const KeyPrefixSize = 24

// Page kinds (continuing the storage block-kind space).
const (
	kindInternal = 4
	kindLeaf     = 5
)

// Entry layout:
//
//	leaf:     key[24] | handle(8)                    = 32 bytes
//	internal: key[24] | handle(8) | child(8)         = 40 bytes
//
// Internal entry i's child covers keys >= entry i's (key,handle) and < the
// next entry's; a separate leftmost child pointer covers smaller keys.
//
// Page header: kind(1) pad(1) count(2) next(8) leftmost(8) = 20 bytes.
const (
	hdrCount    = 2
	hdrNext     = 4 // leaf chain (leaves only)
	hdrLeftmost = 12
	headerSize  = 20
	leafEntry   = KeyPrefixSize + 8
	innerEntry  = KeyPrefixSize + 16
)

func leafCap() int  { return (sas.PageSize - headerSize) / leafEntry }
func innerCap() int { return (sas.PageSize - headerSize) / innerEntry }

// Key is a normalized index key.
type Key [KeyPrefixSize]byte

// StringKey normalizes a string value.
func StringKey(s string) Key {
	var k Key
	k[0] = 's'
	copy(k[1:], s)
	return k
}

// NumberKey normalizes a float64 with order-preserving encoding.
func NumberKey(f float64) Key {
	var k Key
	k[0] = 'n'
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits // negative numbers: flip everything
	} else {
		bits |= 1 << 63 // positive: flip the sign bit
	}
	binary.BigEndian.PutUint64(k[1:], bits)
	return k
}

// KeyFor normalizes a value according to the index type.
func KeyFor(typ string, value string, numeric float64) Key {
	if typ == "number" {
		return NumberKey(numeric)
	}
	return StringKey(value)
}

func keyLess(a Key, ah sas.XPtr, b Key, bh sas.XPtr) bool {
	if c := bytes.Compare(a[:], b[:]); c != 0 {
		return c < 0
	}
	return ah < bh
}

// Tree is a handle to a B+tree rooted at Root.
type Tree struct {
	Root sas.XPtr
}

// Create allocates an empty tree (a single empty leaf).
func Create(w storage.Writer) (*Tree, error) {
	id, err := w.AllocPage()
	if err != nil {
		return nil, err
	}
	page := make([]byte, sas.PageSize)
	page[0] = kindLeaf
	if err := w.WritePage(id, page); err != nil {
		return nil, err
	}
	return &Tree{Root: id.Ptr()}, nil
}

// readPage copies a page (small helper; index pages are modified wholesale).
func readPage(r storage.Reader, p sas.XPtr) ([]byte, error) {
	buf := make([]byte, sas.PageSize)
	err := r.ReadPage(p, func(page []byte) error {
		copy(buf, page)
		return nil
	})
	return buf, err
}

func count(page []byte) int       { return int(binary.LittleEndian.Uint16(page[hdrCount:])) }
func setCount(page []byte, n int) { binary.LittleEndian.PutUint16(page[hdrCount:], uint16(n)) }
func nextLeaf(page []byte) sas.XPtr {
	return sas.XPtr(binary.LittleEndian.Uint64(page[hdrNext:]))
}
func setNextLeaf(page []byte, p sas.XPtr) {
	binary.LittleEndian.PutUint64(page[hdrNext:], uint64(p))
}
func leftmost(page []byte) sas.XPtr {
	return sas.XPtr(binary.LittleEndian.Uint64(page[hdrLeftmost:]))
}
func setLeftmost(page []byte, p sas.XPtr) {
	binary.LittleEndian.PutUint64(page[hdrLeftmost:], uint64(p))
}

func leafKey(page []byte, i int) (Key, sas.XPtr) {
	off := headerSize + i*leafEntry
	var k Key
	copy(k[:], page[off:])
	return k, sas.XPtr(binary.LittleEndian.Uint64(page[off+KeyPrefixSize:]))
}

func setLeafEntry(page []byte, i int, k Key, h sas.XPtr) {
	off := headerSize + i*leafEntry
	copy(page[off:], k[:])
	binary.LittleEndian.PutUint64(page[off+KeyPrefixSize:], uint64(h))
}

func innerKey(page []byte, i int) (Key, sas.XPtr, sas.XPtr) {
	off := headerSize + i*innerEntry
	var k Key
	copy(k[:], page[off:])
	return k,
		sas.XPtr(binary.LittleEndian.Uint64(page[off+KeyPrefixSize:])),
		sas.XPtr(binary.LittleEndian.Uint64(page[off+KeyPrefixSize+8:]))
}

func setInnerEntry(page []byte, i int, k Key, h, child sas.XPtr) {
	off := headerSize + i*innerEntry
	copy(page[off:], k[:])
	binary.LittleEndian.PutUint64(page[off+KeyPrefixSize:], uint64(h))
	binary.LittleEndian.PutUint64(page[off+KeyPrefixSize+8:], uint64(child))
}

// Insert adds (key, handle) to the tree. The returned root may differ from
// the previous one when the root splits; the caller persists it in the
// catalog.
func (t *Tree) Insert(w storage.Writer, k Key, h sas.XPtr) error {
	newChild, splitKey, splitHandle, err := t.insertRec(w, t.Root, k, h)
	if err != nil {
		return err
	}
	if newChild.IsNil() {
		return nil
	}
	// Root split: new internal root.
	id, err := w.AllocPage()
	if err != nil {
		return err
	}
	page := make([]byte, sas.PageSize)
	page[0] = kindInternal
	setCount(page, 1)
	setLeftmost(page, t.Root)
	setInnerEntry(page, 0, splitKey, splitHandle, newChild)
	if err := w.WritePage(id, page); err != nil {
		return err
	}
	t.Root = id.Ptr()
	return nil
}

// insertRec inserts into the subtree at p; on split it returns the new
// right sibling and its separator.
func (t *Tree) insertRec(w storage.Writer, p sas.XPtr, k Key, h sas.XPtr) (sas.XPtr, Key, sas.XPtr, error) {
	page, err := readPage(w, p)
	if err != nil {
		return sas.NilPtr, Key{}, sas.NilPtr, err
	}
	n := count(page)
	if page[0] == kindLeaf {
		// Position: first entry >= (k,h).
		pos := 0
		for pos < n {
			ek, eh := leafKey(page, pos)
			if !keyLess(ek, eh, k, h) {
				if ek == k && eh == h {
					return sas.NilPtr, Key{}, sas.NilPtr, nil // duplicate
				}
				break
			}
			pos++
		}
		if n < leafCap() {
			copy(page[headerSize+(pos+1)*leafEntry:], page[headerSize+pos*leafEntry:headerSize+n*leafEntry])
			setLeafEntry(page, pos, k, h)
			setCount(page, n+1)
			return sas.NilPtr, Key{}, sas.NilPtr, w.WriteAt(p, page)
		}
		// Split the leaf.
		rid, err := w.AllocPage()
		if err != nil {
			return sas.NilPtr, Key{}, sas.NilPtr, err
		}
		right := make([]byte, sas.PageSize)
		right[0] = kindLeaf
		mid := n / 2
		for i := mid; i < n; i++ {
			ek, eh := leafKey(page, i)
			setLeafEntry(right, i-mid, ek, eh)
		}
		setCount(right, n-mid)
		setNextLeaf(right, nextLeaf(page))
		setCount(page, mid)
		setNextLeaf(page, rid.Ptr())
		// Insert into the proper half.
		sepK, sepH := leafKey(right, 0)
		if keyLess(k, h, sepK, sepH) {
			insertLeafInPlace(page, k, h)
		} else {
			insertLeafInPlace(right, k, h)
		}
		if err := w.WriteAt(p, page); err != nil {
			return sas.NilPtr, Key{}, sas.NilPtr, err
		}
		sk, sh := leafKey(right, 0)
		if err := w.WritePage(rid, right); err != nil {
			return sas.NilPtr, Key{}, sas.NilPtr, err
		}
		return rid.Ptr(), sk, sh, nil
	}

	// Internal node: find child.
	child := leftmost(page)
	pos := 0
	for pos < n {
		ek, eh, ch := innerKey(page, pos)
		if keyLess(k, h, ek, eh) {
			break
		}
		child = ch
		pos++
	}
	newChild, sk, sh, err := t.insertRec(w, child, k, h)
	if err != nil || newChild.IsNil() {
		return sas.NilPtr, Key{}, sas.NilPtr, err
	}
	if n < innerCap() {
		copy(page[headerSize+(pos+1)*innerEntry:], page[headerSize+pos*innerEntry:headerSize+n*innerEntry])
		setInnerEntry(page, pos, sk, sh, newChild)
		setCount(page, n+1)
		return sas.NilPtr, Key{}, sas.NilPtr, w.WriteAt(p, page)
	}
	// Split the internal node.
	rid, err := w.AllocPage()
	if err != nil {
		return sas.NilPtr, Key{}, sas.NilPtr, err
	}
	// Build the full entry list including the new one, then split around
	// the median.
	type entry struct {
		k     Key
		h     sas.XPtr
		child sas.XPtr
	}
	entries := make([]entry, 0, n+1)
	for i := 0; i < n; i++ {
		ek, eh, ch := innerKey(page, i)
		entries = append(entries, entry{ek, eh, ch})
	}
	entries = append(entries[:pos:pos], append([]entry{{sk, sh, newChild}}, entries[pos:]...)...)
	mid := len(entries) / 2
	sep := entries[mid]
	right := make([]byte, sas.PageSize)
	right[0] = kindInternal
	setLeftmost(right, sep.child)
	for i, en := range entries[mid+1:] {
		setInnerEntry(right, i, en.k, en.h, en.child)
	}
	setCount(right, len(entries)-mid-1)
	for i, en := range entries[:mid] {
		setInnerEntry(page, i, en.k, en.h, en.child)
	}
	setCount(page, mid)
	if err := w.WriteAt(p, page); err != nil {
		return sas.NilPtr, Key{}, sas.NilPtr, err
	}
	if err := w.WritePage(rid, right); err != nil {
		return sas.NilPtr, Key{}, sas.NilPtr, err
	}
	return rid.Ptr(), sep.k, sep.h, nil
}

func insertLeafInPlace(page []byte, k Key, h sas.XPtr) {
	n := count(page)
	pos := 0
	for pos < n {
		ek, eh := leafKey(page, pos)
		if !keyLess(ek, eh, k, h) {
			break
		}
		pos++
	}
	copy(page[headerSize+(pos+1)*leafEntry:], page[headerSize+pos*leafEntry:headerSize+n*leafEntry])
	setLeafEntry(page, pos, k, h)
	setCount(page, n+1)
}

// Delete removes (key, handle); missing entries are ignored. Pages are not
// merged on underflow (space is reclaimed when the index is dropped).
func (t *Tree) Delete(w storage.Writer, k Key, h sas.XPtr) error {
	p := t.Root
	for {
		page, err := readPage(w, p)
		if err != nil {
			return err
		}
		n := count(page)
		if page[0] == kindInternal {
			child := leftmost(page)
			for i := 0; i < n; i++ {
				ek, eh, ch := innerKey(page, i)
				if keyLess(k, h, ek, eh) {
					break
				}
				child = ch
			}
			p = child
			continue
		}
		for i := 0; i < n; i++ {
			ek, eh := leafKey(page, i)
			if ek == k && eh == h {
				copy(page[headerSize+i*leafEntry:], page[headerSize+(i+1)*leafEntry:headerSize+n*leafEntry])
				setCount(page, n-1)
				return w.WriteAt(p, page)
			}
		}
		return nil
	}
}

// Lookup returns the handles of all entries with exactly key k.
func (t *Tree) Lookup(r storage.Reader, k Key) ([]sas.XPtr, error) {
	var out []sas.XPtr
	err := t.Range(r, k, k, func(_ Key, h sas.XPtr) bool {
		out = append(out, h)
		return true
	})
	return out, err
}

// Range visits entries with lo <= key <= hi in key order.
func (t *Tree) Range(r storage.Reader, lo, hi Key, visit func(k Key, h sas.XPtr) bool) error {
	// Descend to the first leaf that may contain lo, then follow the leaf
	// chain. Every page is viewed in place: a lookup copies nothing.
	for p := t.Root; !p.IsNil(); {
		page, pin, err := r.ViewPage(p)
		if err != nil {
			return err
		}
		next := sas.NilPtr
		switch page[0] {
		case kindInternal:
			next = leftmost(page)
			for i, n := 0, count(page); i < n; i++ {
				ek, eh, ch := innerKey(page, i)
				if keyLess(lo, 0, ek, eh) {
					break
				}
				next = ch
			}
		case kindLeaf:
			next = nextLeaf(page)
			for i, n := 0, count(page); i < n; i++ {
				ek, eh := leafKey(page, i)
				if bytes.Compare(ek[:], lo[:]) < 0 {
					continue
				}
				if bytes.Compare(ek[:], hi[:]) > 0 || !visit(ek, eh) {
					next = sas.NilPtr
					break
				}
			}
		default:
			err = fmt.Errorf("index: page %v is not an index page", p)
		}
		r.ReleasePage(pin)
		if err != nil {
			return err
		}
		p = next
	}
	return nil
}

// FreeAll releases every page of the tree (DROP INDEX).
func (t *Tree) FreeAll(w storage.Writer) error {
	var rec func(p sas.XPtr) error
	rec = func(p sas.XPtr) error {
		page, err := readPage(w, p)
		if err != nil {
			return err
		}
		if page[0] == kindInternal {
			if err := rec(leftmost(page)); err != nil {
				return err
			}
			for i := 0; i < count(page); i++ {
				_, _, ch := innerKey(page, i)
				if err := rec(ch); err != nil {
					return err
				}
			}
		}
		return w.FreePage(sas.PageIDOf(p))
	}
	return rec(t.Root)
}

// Count returns the number of entries (full scan; tests and tools).
func (t *Tree) Count(r storage.Reader) (int, error) {
	n := 0
	var lo, hi Key
	for i := range hi {
		hi[i] = 0xFF
	}
	err := t.Range(r, lo, hi, func(Key, sas.XPtr) bool { n++; return true })
	return n, err
}
