package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sedna/internal/sas"
)

func openTemp(t *testing.T) *Log {
	t.Helper()
	l, err := Open(filepath.Join(t.TempDir(), "wal.log"), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func allRecordTypes() []*Record {
	return []*Record{
		{Type: RecBegin, Txn: 1},
		{Type: RecPageWrite, Txn: 1, Page: sas.PageID{Layer: 2, Page: 7}, Off: 100, Data: []byte{1, 2, 3}},
		{Type: RecAllocPage, Txn: 1, Page: sas.PageID{Layer: 1, Page: 9}},
		{Type: RecFreePage, Txn: 1, Page: sas.PageID{Layer: 1, Page: 4}},
		{Type: RecCreateDoc, Txn: 1, DocID: 3, Name: "books.xml"},
		{Type: RecDropDoc, Txn: 1, DocID: 4, Name: "old.xml"},
		{Type: RecAddSchemaNode, Txn: 1, DocID: 3, ParentID: 1, NodeID: 2, Kind: 2, Name: "library"},
		{Type: RecSchemaBlocks, Txn: 1, DocID: 3, NodeID: 2, Ptrs: [5]sas.XPtr{sas.MakePtr(1, 0), sas.MakePtr(1, 16384)}},
		{Type: RecDocMeta, Txn: 1, DocID: 3, Ptrs: [5]sas.XPtr{1, 2, 3, 4, 5}},
		{Type: RecCreateIndex, Txn: 1, DocID: 3, Name: "titles", Path: "/library/book/title"},
		{Type: RecDropIndex, Txn: 1, Name: "titles"},
		{Type: RecCommit, Txn: 1, CommitTS: 42},
		{Type: RecAbort, Txn: 2},
		{Type: RecCheckpoint},
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	l := openTemp(t)
	recs := allRecordTypes()
	// A whole-page write, appended before the checkpoint that closes the
	// first segment, is checked byte for byte below.
	page := make([]byte, sas.PageSize)
	for i := range page {
		page[i] = byte(i*31 + 7)
	}
	pageRec := &Record{Type: RecPageWrite, Txn: 3, Page: sas.PageID{Layer: 1, Page: 12}, Data: page}
	last := len(recs) - 1
	recs = append(recs[:last:last], pageRec, recs[last])
	var lsns []uint64
	for _, r := range recs {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []*Record
	var gotLSNs []uint64
	err := l.Scan(0, func(lsn uint64, r *Record) error {
		got = append(got, r)
		gotLSNs = append(gotLSNs, lsn)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !reflect.DeepEqual(normalize(recs[i]), normalize(got[i])) {
			t.Fatalf("record %d mismatch:\nwant %+v\ngot  %+v", i, recs[i], got[i])
		}
		if gotLSNs[i] != lsns[i] {
			t.Fatalf("record %d LSN %d, want %d", i, gotLSNs[i], lsns[i])
		}
	}

	// The page write's frame as the format defines it: length and CRC of a
	// payload of type, txn, page, offset, data length and data.
	payload := []byte{byte(RecPageWrite)}
	payload = binary.LittleEndian.AppendUint64(payload, pageRec.Txn)
	payload = binary.LittleEndian.AppendUint32(payload, pageRec.Page.Layer)
	payload = binary.LittleEndian.AppendUint32(payload, pageRec.Page.Page)
	payload = binary.LittleEndian.AppendUint32(payload, 0)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(page)))
	payload = append(payload, page...)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	seg, err := os.ReadFile(segmentPath(l.path, 0))
	if err != nil {
		t.Fatal(err)
	}
	at := lsns[last]
	if uint64(len(seg)) < at+uint64(len(frame)) || !bytes.Equal(seg[at:at+uint64(len(frame))], frame) {
		t.Fatal("the 16 KiB page write on disk differs from the frame built by hand")
	}
}

// normalize maps nil and empty Data to the same representation.
func normalize(r *Record) Record {
	c := *r
	if len(c.Data) == 0 {
		c.Data = nil
	}
	return c
}

func TestScanFromMiddle(t *testing.T) {
	l := openTemp(t)
	l.Append(&Record{Type: RecBegin, Txn: 1})
	mid, _ := l.Append(&Record{Type: RecCheckpoint})
	l.Append(&Record{Type: RecCommit, Txn: 1, CommitTS: 7})
	l.Flush()
	var types []RecType
	if err := l.Scan(mid, func(_ uint64, r *Record) error {
		types = append(types, r.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(types) != 2 || types[0] != RecCheckpoint || types[1] != RecCommit {
		t.Fatalf("types = %v", types)
	}
}

func TestAppendAfterScan(t *testing.T) {
	l := openTemp(t)
	l.Append(&Record{Type: RecBegin, Txn: 1})
	l.Flush()
	if err := l.Scan(0, func(uint64, *Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	l.Append(&Record{Type: RecCommit, Txn: 1, CommitTS: 1})
	l.Flush()
	count := 0
	if err := l.Scan(0, func(uint64, *Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2 (append position broken after scan)", count)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(&Record{Type: RecBegin, Txn: 1})
	lsn2, _ := l.Append(&Record{Type: RecCommit, Txn: 1, CommitTS: 1})
	l.Flush()
	l.Close()

	// Simulate a torn write: append garbage half-record to the live segment.
	f, err := os.OpenFile(segmentPath(path, 0), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{200, 0, 0, 0, 1, 2}) // claims 200-byte payload, truncated
	f.Close()

	l2, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	count := 0
	if err := l2.Scan(0, func(uint64, *Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	// New appends land after the valid prefix.
	lsn3, _ := l2.Append(&Record{Type: RecAbort, Txn: 9})
	if lsn3 <= lsn2 {
		t.Fatalf("append LSN %d not after %d", lsn3, lsn2)
	}
}

func TestReopenContinuesLSN(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(&Record{Type: RecBegin, Txn: 1})
	l.Flush()
	end := l.NextLSN()
	l.Close()

	l2, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.NextLSN() != end {
		t.Fatalf("NextLSN after reopen = %d, want %d", l2.NextLSN(), end)
	}
}

func TestLargePageWriteRecord(t *testing.T) {
	l := openTemp(t)
	data := make([]byte, sas.PageSize)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := l.Append(&Record{Type: RecPageWrite, Txn: 1, Page: sas.PageID{Layer: 1, Page: 1}, Data: data}); err != nil {
		t.Fatal(err)
	}
	l.Flush()
	var got *Record
	l.Scan(0, func(_ uint64, r *Record) error { got = r; return nil })
	if got == nil || len(got.Data) != sas.PageSize || got.Data[5000] != data[5000] {
		t.Fatal("full-page record round trip failed")
	}
}
