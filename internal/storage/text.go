package storage

import (
	"encoding/binary"
	"fmt"

	"sedna/internal/sas"
)

// Text storage (§4.1): text values have unrestricted length, so they are
// kept apart from the fixed-size structural part in slotted pages. A value
// is a chain of chunks; each chunk lives in a slot of a text block, and the
// value's pointer is the XPtr of the first chunk's slot entry. Because
// pointers address slot entries rather than record bytes, in-page compaction
// moves records without invalidating any pointer.

// AllocText stores data in the document's text storage and returns the
// record pointer (nil for empty data, which is stored inline as length 0).
func AllocText(w Writer, doc *Doc, data []byte) (sas.XPtr, error) {
	if len(data) == 0 {
		return sas.NilPtr, nil
	}
	// Write chunks back to front so each chunk knows its successor.
	var next sas.XPtr
	for start := (len(data) - 1) / maxChunkPayload * maxChunkPayload; start >= 0; start -= maxChunkPayload {
		end := start + maxChunkPayload
		if end > len(data) {
			end = len(data)
		}
		slot, err := allocChunk(w, doc, next, data[start:end])
		if err != nil {
			return sas.NilPtr, err
		}
		next = slot
	}
	return next, nil
}

// FreeText releases the record chain starting at ptr.
func FreeText(w Writer, doc *Doc, ptr sas.XPtr) error {
	for !ptr.IsNil() {
		next, err := chunkNext(w, ptr)
		if err != nil {
			return err
		}
		if err := freeChunk(w, doc, ptr); err != nil {
			return err
		}
		ptr = next
	}
	return nil
}

// ReadText reads the full value of the record chain starting at ptr.
// totalLen is the descriptor's recorded length, used to presize the result.
func ReadText(r Reader, ptr sas.XPtr, totalLen uint32) ([]byte, error) {
	return AppendText(r, ptr, totalLen, make([]byte, 0, totalLen))
}

// AppendText appends the value of the record chain starting at ptr (nil: no
// value) to dst, so a caller that only looks at values can reuse one buffer.
func AppendText(r Reader, ptr sas.XPtr, totalLen uint32, dst []byte) ([]byte, error) {
	start := len(dst)
	for !ptr.IsNil() {
		page, pin, err := r.ViewPage(ptr)
		if err != nil {
			return nil, err
		}
		off, length, err := slotAt(page, ptr.PageOffset())
		if err != nil {
			r.ReleasePage(pin)
			return nil, err
		}
		ptr = sas.XPtr(binary.LittleEndian.Uint64(page[off:]))
		dst = append(dst, page[off+textChunkHeader:off+length]...)
		r.ReleasePage(pin)
	}
	if uint32(len(dst)-start) != totalLen {
		return nil, fmt.Errorf("storage: text length mismatch: chain has %d bytes, descriptor says %d", len(dst)-start, totalLen)
	}
	return dst, nil
}

// slotAt validates and decodes the slot entry at in-page offset slotOff.
func slotAt(page []byte, slotOff uint32) (off, length int, err error) {
	if page[0] != blockKindText {
		return 0, 0, fmt.Errorf("storage: text pointer into non-text block (kind %d)", page[0])
	}
	o := int(getU16(page, int(slotOff)))
	l := int(getU16(page, int(slotOff)+2))
	if l == freeSlotLen {
		return 0, 0, fmt.Errorf("storage: text pointer to freed slot")
	}
	return o, l, nil
}

// chunkNext reads the next-chunk pointer of the chunk at slot ptr.
func chunkNext(r Reader, ptr sas.XPtr) (sas.XPtr, error) {
	var next sas.XPtr
	err := r.ReadPage(ptr, func(page []byte) error {
		off, _, err := slotAt(page, ptr.PageOffset())
		if err != nil {
			return err
		}
		next = sas.XPtr(binary.LittleEndian.Uint64(page[off:]))
		return nil
	})
	return next, err
}

// allocChunk places one chunk (next pointer + payload) in the document's
// text storage and returns the slot pointer.
func allocChunk(w Writer, doc *Doc, next sas.XPtr, payload []byte) (sas.XPtr, error) {
	need := textChunkHeader + len(payload)
	block := doc.TextLast
	if !block.IsNil() {
		slot, ok, err := tryPlaceChunk(w, block, next, payload, need)
		if err != nil {
			return sas.NilPtr, err
		}
		if ok {
			return slot, nil
		}
	}
	block, err := newTextBlock(w, doc)
	if err != nil {
		return sas.NilPtr, err
	}
	slot, ok, err := tryPlaceChunk(w, block, next, payload, need)
	if err != nil {
		return sas.NilPtr, err
	}
	if !ok {
		return sas.NilPtr, fmt.Errorf("storage: chunk of %d bytes does not fit an empty text block", need)
	}
	return slot, nil
}

// tryPlaceChunk attempts to place the chunk in the given block, compacting
// first if fragmentation would make it fit.
func tryPlaceChunk(w Writer, block sas.XPtr, next sas.XPtr, payload []byte, need int) (sas.XPtr, bool, error) {
	var slotPtr sas.XPtr
	var ok bool
	// Read the current geometry.
	var slotCount, freeSlot, dataStart, freeBytes uint16
	err := w.ReadPage(block, func(page []byte) error {
		slotCount = getU16(page, tbSlotCount)
		freeSlot = getU16(page, tbFreeSlot)
		dataStart = getU16(page, tbDataStart)
		freeBytes = getU16(page, tbFreeBytes)
		return nil
	})
	if err != nil {
		return sas.NilPtr, false, err
	}
	slotEnd := textBlockHeaderSize + int(slotCount)*textSlotSize
	newSlot := freeSlot != 0
	extra := 0
	if !newSlot {
		extra = textSlotSize // a fresh slot entry must fit too
	}
	if slotEnd+extra+need > int(dataStart) {
		// Try compaction if enough reclaimable space exists.
		if int(freeBytes) >= need && slotEnd+extra+need <= int(dataStart)+int(freeBytes) {
			if err := compactTextBlock(w, block); err != nil {
				return sas.NilPtr, false, err
			}
			err = w.ReadPage(block, func(page []byte) error {
				freeSlot = getU16(page, tbFreeSlot)
				dataStart = getU16(page, tbDataStart)
				slotCount = getU16(page, tbSlotCount)
				return nil
			})
			if err != nil {
				return sas.NilPtr, false, err
			}
			slotEnd = textBlockHeaderSize + int(slotCount)*textSlotSize
			if slotEnd+extra+need > int(dataStart) {
				return sas.NilPtr, false, nil
			}
		} else {
			return sas.NilPtr, false, nil
		}
	}
	// Place the record.
	newDataStart := int(dataStart) - need
	rec := make([]byte, need)
	binary.LittleEndian.PutUint64(rec, uint64(next))
	copy(rec[textChunkHeader:], payload)
	if err := w.WriteAt(block.Add(uint32(newDataStart)), rec); err != nil {
		return sas.NilPtr, false, err
	}
	var slotOff int
	if freeSlot != 0 {
		slotOff = int(freeSlot)
		// Pop the free-slot chain: its off field holds the next free slot.
		nextFree, err := readU16At(w, block.Add(uint32(slotOff)))
		if err != nil {
			return sas.NilPtr, false, err
		}
		if err := writeU16At(w, block.Add(tbFreeSlot), nextFree); err != nil {
			return sas.NilPtr, false, err
		}
	} else {
		slotOff = slotEnd
		if err := writeU16At(w, block.Add(tbSlotCount), slotCount+1); err != nil {
			return sas.NilPtr, false, err
		}
	}
	var entry [4]byte
	binary.LittleEndian.PutUint16(entry[0:], uint16(newDataStart))
	binary.LittleEndian.PutUint16(entry[2:], uint16(need))
	if err := w.WriteAt(block.Add(uint32(slotOff)), entry[:]); err != nil {
		return sas.NilPtr, false, err
	}
	if err := writeU16At(w, block.Add(tbDataStart), uint16(newDataStart)); err != nil {
		return sas.NilPtr, false, err
	}
	slotPtr = block.Add(uint32(slotOff))
	ok = true
	return slotPtr, ok, err
}

// freeChunk releases a single chunk's slot, freeing the whole block when it
// was the last occupied slot.
func freeChunk(w Writer, doc *Doc, ptr sas.XPtr) error {
	block := ptr.PageBase()
	slotOff := ptr.PageOffset()
	var recLen uint16
	var anyUsed bool
	var freeSlot uint16
	var freeBytes uint16
	err := w.ReadPage(block, func(page []byte) error {
		if page[0] != blockKindText {
			return fmt.Errorf("storage: freeing text in non-text block")
		}
		recLen = getU16(page, int(slotOff)+2)
		if recLen == freeSlotLen {
			return fmt.Errorf("storage: double free of text slot %v", ptr)
		}
		freeSlot = getU16(page, tbFreeSlot)
		freeBytes = getU16(page, tbFreeBytes)
		slotCount := int(getU16(page, tbSlotCount))
		for i := 0; i < slotCount; i++ {
			off := textBlockHeaderSize + i*textSlotSize
			if uint32(off) == slotOff {
				continue
			}
			if getU16(page, off+2) != freeSlotLen {
				anyUsed = true
				break
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !anyUsed {
		return freeTextBlock(w, doc, block)
	}
	var entry [4]byte
	binary.LittleEndian.PutUint16(entry[0:], freeSlot)
	binary.LittleEndian.PutUint16(entry[2:], freeSlotLen)
	if err := w.WriteAt(ptr, entry[:]); err != nil {
		return err
	}
	if err := writeU16At(w, block.Add(tbFreeSlot), uint16(slotOff)); err != nil {
		return err
	}
	return writeU16At(w, block.Add(tbFreeBytes), freeBytes+recLen)
}

// compactTextBlock repacks all live records against the page end, resetting
// fragmentation. Slot entries keep their positions, so record pointers stay
// valid.
func compactTextBlock(w Writer, block sas.XPtr) error {
	newPage := make([]byte, sas.PageSize)
	err := w.ReadPage(block, func(page []byte) error {
		copy(newPage, page)
		slotCount := int(getU16(page, tbSlotCount))
		dst := sas.PageSize
		for i := 0; i < slotCount; i++ {
			off := textBlockHeaderSize + i*textSlotSize
			l := int(getU16(page, off+2))
			if l == freeSlotLen {
				continue
			}
			o := int(getU16(page, off))
			dst -= l
			copy(newPage[dst:dst+l], page[o:o+l])
			putU16(newPage, off, uint16(dst))
		}
		putU16(newPage, tbDataStart, uint16(dst))
		putU16(newPage, tbFreeBytes, 0)
		return nil
	})
	if err != nil {
		return err
	}
	return w.WriteAt(block, newPage)
}

// newTextBlock allocates a text block and appends it to the document's text
// chain.
func newTextBlock(w Writer, doc *Doc) (sas.XPtr, error) {
	id, err := w.AllocPage()
	if err != nil {
		return sas.NilPtr, err
	}
	base := id.Ptr()
	page := make([]byte, sas.PageSize)
	page[0] = blockKindText
	putU16(page, tbDataStart, sas.PageSize)
	putPtr(page, tbPrev, doc.TextLast)
	if err := w.WritePage(id, page); err != nil {
		return sas.NilPtr, err
	}
	oldFirst, oldLast := doc.TextFirst, doc.TextLast
	if !doc.TextLast.IsNil() {
		if err := writePtrAt(w, doc.TextLast.Add(tbNext), base); err != nil {
			return sas.NilPtr, err
		}
	} else {
		doc.TextFirst = base
	}
	doc.TextLast = base
	w.Defer(func() { doc.TextFirst, doc.TextLast = oldFirst, oldLast })
	w.NoteDocMeta(doc)
	return base, nil
}

// freeTextBlock unlinks the block from the document chain and releases its
// page.
func freeTextBlock(w Writer, doc *Doc, block sas.XPtr) error {
	var next, prev sas.XPtr
	err := w.ReadPage(block, func(page []byte) error {
		next = getPtr(page, tbNext)
		prev = getPtr(page, tbPrev)
		return nil
	})
	if err != nil {
		return err
	}
	if !prev.IsNil() {
		if err := writePtrAt(w, prev.Add(tbNext), next); err != nil {
			return err
		}
	}
	if !next.IsNil() {
		if err := writePtrAt(w, next.Add(tbPrev), prev); err != nil {
			return err
		}
	}
	oldFirst, oldLast := doc.TextFirst, doc.TextLast
	changed := false
	if doc.TextFirst == block {
		doc.TextFirst = next
		changed = true
	}
	if doc.TextLast == block {
		doc.TextLast = prev
		changed = true
	}
	if changed {
		w.Defer(func() { doc.TextFirst, doc.TextLast = oldFirst, oldLast })
		w.NoteDocMeta(doc)
	}
	return w.FreePage(sas.PageIDOf(block))
}
