package storage

import (
	"encoding/binary"
	"fmt"

	"sedna/internal/sas"
)

// Small typed read/write helpers over the Reader/Writer page interfaces.
// Reads copy out of the pinned page; writes go through WriteAt so that they
// are WAL-logged and versioned by the transaction layer.

// viewAt returns the n bytes at p inside its page; the caller releases pin.
func viewAt(r Reader, p sas.XPtr, n int) (b []byte, pin any, err error) {
	page, pin, err := r.ViewPage(p)
	if err != nil {
		return nil, nil, err
	}
	off := int(p.PageOffset())
	if off+n > len(page) {
		r.ReleasePage(pin)
		return nil, nil, fmt.Errorf("storage: read of %d bytes at %v crosses page end", n, p)
	}
	return page[off : off+n], pin, nil
}

func readU16At(r Reader, p sas.XPtr) (uint16, error) {
	b, pin, err := viewAt(r, p, 2)
	if err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint16(b)
	r.ReleasePage(pin)
	return v, nil
}

func readPtrAt(r Reader, p sas.XPtr) (sas.XPtr, error) {
	b, pin, err := viewAt(r, p, 8)
	if err != nil {
		return 0, err
	}
	v := sas.XPtr(binary.LittleEndian.Uint64(b))
	r.ReleasePage(pin)
	return v, nil
}

func writeU16At(w Writer, p sas.XPtr, v uint16) error {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	return w.WriteAt(p, b[:])
}

func writeU32At(w Writer, p sas.XPtr, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return w.WriteAt(p, b[:])
}

func writePtrAt(w Writer, p sas.XPtr, v sas.XPtr) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return w.WriteAt(p, b[:])
}

// readNodeHeader decodes the node-block header of the block containing p.
func readNodeHeader(r Reader, block sas.XPtr) (nodeBlockHeader, error) {
	page, pin, err := r.ViewPage(block)
	if err != nil {
		return nodeBlockHeader{}, err
	}
	h, err := decodeNodeHeader(page)
	r.ReleasePage(pin)
	return h, err
}
