package storage

import (
	"encoding/binary"
	"fmt"

	"sedna/internal/nid"
	"sedna/internal/sas"
)

// Block kinds, stored in the first byte of every page used by this package.
const (
	blockKindNode  = 1
	blockKindIndir = 2
	blockKindText  = 3
)

// Node-block header layout (48 bytes):
//
//	 0  kind        byte
//	 1  reserved    byte
//	 2  childSlots  uint16  child-pointer slots per descriptor in this block
//	 4  schemaID    uint32  owning schema node
//	 8  docID       uint32  owning document
//	12  count       uint16  live descriptors
//	14  descSize    uint16  bytes per descriptor
//	16  nextBlock   XPtr
//	24  prevBlock   XPtr
//	32  firstDesc   uint16  offset of the first descriptor in document order
//	34  lastDesc    uint16
//	36  freeHead    uint16  head of the freed-slot chain (0 = none)
//	38  slotTop     uint16  offset of never-used space
//	40  reserved    [8]byte
const (
	nbKind              = 0
	nbChildSlots        = 2
	nbSchemaID          = 4
	nbDocID             = 8
	nbCount             = 12
	nbDescSize          = 14
	nbNext              = 16
	nbPrev              = 24
	nbFirstDesc         = 32
	nbLastDesc          = 34
	nbFreeHead          = 36
	nbSlotTop           = 38
	nodeBlockHeaderSize = 48
)

// Node-descriptor layout (fixed part 68 bytes + 8 bytes per child slot):
//
//	 0  nidLen      uint16  prefix length (also when overflowed)
//	 2  nidDelim    byte
//	 3  flags       byte    bit0: nid prefix stored in text storage
//	 4  nid         [16]byte  inline prefix, or overflow XPtr in bytes 4..12
//	20  handle      XPtr    this node's indirection entry
//	28  parent      XPtr    indirection entry of the parent (indirect pointer)
//	36  leftSib     XPtr    direct pointer to the left sibling's descriptor
//	44  rightSib    XPtr
//	52  nextInBlock uint16  in-block document-order chain
//	54  prevInBlock uint16
//	56  text        XPtr    text-storage record (text-carrying kinds)
//	64  textLen     uint32
//	68  children    [childSlots]XPtr  first child per schema-child slot
const (
	dNidLen       = 0
	dNidDelim     = 2
	dFlags        = 3
	dNid          = 4
	dHandle       = 20
	dParent       = 28
	dLeftSib      = 36
	dRightSib     = 44
	dNextIn       = 52
	dPrevIn       = 54
	dText         = 56
	dTextLen      = 64
	dChildren     = 68
	descFixedSize = 68

	nidInlineCap    = 16
	flagNidOverflow = 0x01
)

// descSizeFor returns the descriptor size for a block with the given number
// of child slots.
func descSizeFor(childSlots int) int {
	return descFixedSize + 8*childSlots
}

// nodeBlockCapacity returns how many descriptors fit a node block with the
// given slot count.
func nodeBlockCapacity(childSlots int) int {
	return (sas.PageSize - nodeBlockHeaderSize) / descSizeFor(childSlots)
}

func getU16(b []byte, off int) uint16      { return binary.LittleEndian.Uint16(b[off:]) }
func putU16(b []byte, off int, v uint16)   { binary.LittleEndian.PutUint16(b[off:], v) }
func getU32(b []byte, off int) uint32      { return binary.LittleEndian.Uint32(b[off:]) }
func putU32(b []byte, off int, v uint32)   { binary.LittleEndian.PutUint32(b[off:], v) }
func getPtr(b []byte, off int) sas.XPtr    { return sas.XPtr(binary.LittleEndian.Uint64(b[off:])) }
func putPtr(b []byte, off int, p sas.XPtr) { binary.LittleEndian.PutUint64(b[off:], uint64(p)) }

// nodeBlockHeader is the decoded node-block header.
type nodeBlockHeader struct {
	ChildSlots int
	SchemaID   uint32
	DocID      uint32
	Count      int
	DescSize   int
	Next, Prev sas.XPtr
	FirstDesc  uint16
	LastDesc   uint16
	FreeHead   uint16
	SlotTop    uint16
}

func decodeNodeHeader(page []byte) (nodeBlockHeader, error) {
	if page[nbKind] != blockKindNode {
		return nodeBlockHeader{}, fmt.Errorf("storage: page is not a node block (kind %d)", page[nbKind])
	}
	return nodeBlockHeader{
		ChildSlots: int(getU16(page, nbChildSlots)),
		SchemaID:   getU32(page, nbSchemaID),
		DocID:      getU32(page, nbDocID),
		Count:      int(getU16(page, nbCount)),
		DescSize:   int(getU16(page, nbDescSize)),
		Next:       getPtr(page, nbNext),
		Prev:       getPtr(page, nbPrev),
		FirstDesc:  getU16(page, nbFirstDesc),
		LastDesc:   getU16(page, nbLastDesc),
		FreeHead:   getU16(page, nbFreeHead),
		SlotTop:    getU16(page, nbSlotTop),
	}, nil
}

// encodeNodeHeader writes the full header into a page-sized buffer.
func encodeNodeHeader(page []byte, h nodeBlockHeader) {
	page[nbKind] = blockKindNode
	putU16(page, nbChildSlots, uint16(h.ChildSlots))
	putU32(page, nbSchemaID, h.SchemaID)
	putU32(page, nbDocID, h.DocID)
	putU16(page, nbCount, uint16(h.Count))
	putU16(page, nbDescSize, uint16(h.DescSize))
	putPtr(page, nbNext, h.Next)
	putPtr(page, nbPrev, h.Prev)
	putU16(page, nbFirstDesc, h.FirstDesc)
	putU16(page, nbLastDesc, h.LastDesc)
	putU16(page, nbFreeHead, h.FreeHead)
	putU16(page, nbSlotTop, h.SlotTop)
}

// Desc is a decoded node descriptor together with the identity of the block
// that holds it. Label decoding of overflowed prefixes happens lazily in
// readDesc.
type Desc struct {
	Ptr sas.XPtr // address of the descriptor

	SchemaID   uint32
	DocID      uint32
	ChildSlots int

	Label    nid.Label
	Handle   sas.XPtr
	Parent   sas.XPtr // parent's node handle (indirect)
	LeftSib  sas.XPtr
	RightSib sas.XPtr

	NextInBlock sas.XPtr // resolved to full pointers (nil at chain ends)
	PrevInBlock sas.XPtr

	Text    sas.XPtr
	TextLen uint32

	// Resident is set only on the executor's entries for nodes of a
	// document's in-memory resident representation: the node's index there
	// plus one, so a step from the node needs no lookup by handle. 0 on
	// every descriptor read from a block.
	Resident int32

	Children ChildPtrs // one first-child pointer per schema-child slot
}

// ChildPtrs holds a descriptor's first-child pointers in their on-page form,
// eight little-endian bytes per schema-child slot. Keeping the bytes as read
// lets a decoded descriptor take its child pointers and its inline label from
// one allocation, and a reader decodes only the slot it follows.
type ChildPtrs []byte

// Len returns the number of child slots.
func (c ChildPtrs) Len() int { return len(c) / 8 }

// At returns the first-child pointer in slot i.
func (c ChildPtrs) At(i int) sas.XPtr { return getPtr(c, 8*i) }

// descVarLen returns how many bytes the variable-length parts of the
// descriptor b — its child pointers and an inline label — take once decoded.
func descVarLen(b []byte, h *nodeBlockHeader) int {
	n := 8 * h.ChildSlots
	if b[dFlags]&flagNidOverflow == 0 {
		n += int(getU16(b, dNidLen))
	}
	return n
}

// decodeDescAt decodes into d the descriptor at byte offset off of the node
// block page whose base pointer is base. The child pointers and an inline
// label are copied into buf (descVarLen bytes, supplied by the caller so that
// a run of descriptors shares one arena), so nothing in d aliases page. An
// overflowed label is left with a nil prefix: the caller resolves it with a
// text-storage read (overflowOf).
func decodeDescAt(d *Desc, page []byte, base sas.XPtr, off uint16, h *nodeBlockHeader, buf []byte) {
	b := page[off:]
	*d = Desc{
		Ptr:        base.Add(uint32(off)),
		SchemaID:   h.SchemaID,
		DocID:      h.DocID,
		ChildSlots: h.ChildSlots,
		Handle:     getPtr(b, dHandle),
		Parent:     getPtr(b, dParent),
		LeftSib:    getPtr(b, dLeftSib),
		RightSib:   getPtr(b, dRightSib),
		Text:       getPtr(b, dText),
		TextLen:    getU32(b, dTextLen),
	}
	if n := getU16(b, dNextIn); n != 0 {
		d.NextInBlock = base.Add(uint32(n))
	}
	if p := getU16(b, dPrevIn); p != 0 {
		d.PrevInBlock = base.Add(uint32(p))
	}
	d.Label.Delim = b[dNidDelim]
	kids := 8 * h.ChildSlots
	copy(buf, b[dChildren:dChildren+kids])
	d.Children = buf[:kids:kids]
	if len(buf) > kids {
		copy(buf[kids:], b[dNid:])
		d.Label.Prefix = buf[kids:]
	}
}

// overflowOf returns the text-storage pointer and length of the descriptor
// b's label when it overflowed the inline capacity (nil otherwise).
func overflowOf(b []byte) (sas.XPtr, uint32) {
	if b[dFlags]&flagNidOverflow == 0 {
		return sas.NilPtr, 0
	}
	return getPtr(b, dNid), uint32(getU16(b, dNidLen))
}

// encodeDesc writes the descriptor fields into buf (of the block's descSize)
// for a descriptor whose label fits inline or has been stored at
// overflowPtr (with prefix length ovLen). nextIn/prevIn are in-block
// offsets.
func encodeDesc(buf []byte, d *Desc, overflowPtr sas.XPtr, ovLen int, nextIn, prevIn uint16) {
	for i := range buf {
		buf[i] = 0
	}
	buf[dNidDelim] = d.Label.Delim
	if overflowPtr.IsNil() {
		putU16(buf, dNidLen, uint16(len(d.Label.Prefix)))
		copy(buf[dNid:dNid+nidInlineCap], d.Label.Prefix)
	} else {
		putU16(buf, dNidLen, uint16(ovLen))
		buf[dFlags] |= flagNidOverflow
		putPtr(buf, dNid, overflowPtr)
	}
	putPtr(buf, dHandle, d.Handle)
	putPtr(buf, dParent, d.Parent)
	putPtr(buf, dLeftSib, d.LeftSib)
	putPtr(buf, dRightSib, d.RightSib)
	putU16(buf, dNextIn, nextIn)
	putU16(buf, dPrevIn, prevIn)
	putPtr(buf, dText, d.Text)
	putU32(buf, dTextLen, d.TextLen)
	copy(buf[dChildren:], d.Children)
}

// Indirection-block header layout (32 bytes):
//
//	 0  kind     byte
//	 2  count    uint16
//	 4  freeHead uint16  offset of the first free entry (0 = none)
//	 6  slotTop  uint16  offset of never-used space
//	 8  next     XPtr    document indirection-block chain
//	16  prev     XPtr
const (
	ibCount              = 2
	ibFreeHead           = 4
	ibSlotTop            = 6
	ibNext               = 8
	ibPrev               = 16
	indirBlockHeaderSize = 32
	indirEntrySize       = 8
)

// freeEntryMarker tags free indirection entries: the layer field holds the
// marker and the offset field the next free entry's in-block offset.
const freeEntryMarker = 0xFFFFFFFF

// Text-block header layout (28 bytes):
//
//	 0  kind      byte
//	 2  slotCount uint16
//	 4  freeSlot  uint16  offset of first free slot entry (0 = none)
//	 6  dataStart uint16  lowest used data byte (data grows downward)
//	 8  freeBytes uint16  reclaimable fragmented bytes
//	12  next      XPtr    document text-block chain
//	20  prev      XPtr
//
// Slot entries (4 bytes: off uint16, len uint16) grow upward from the
// header; records grow downward from the page end. A record pointer is the
// XPtr of its slot entry, so in-page compaction never invalidates pointers.
// A free slot has len == 0xFFFF and off == next free slot offset.
const (
	tbSlotCount         = 2
	tbFreeSlot          = 4
	tbDataStart         = 6
	tbFreeBytes         = 8
	tbNext              = 12
	tbPrev              = 20
	textBlockHeaderSize = 28
	textSlotSize        = 4
	freeSlotLen         = 0xFFFF
)

// Text records are chunked: each record begins with an 8-byte pointer to the
// next chunk's slot (nil for the last chunk), followed by payload bytes.
const (
	textChunkHeader = 8
	// maxChunkPayload keeps every chunk well under a page so that even
	// unrestricted-length values (§4.1) chain across pages.
	maxChunkPayload = 8192
)
