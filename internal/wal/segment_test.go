package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sedna/internal/metrics"
	"sedna/internal/sas"
)

// sampleRecords is a log of three segments: two checkpoint records each
// start one.
func sampleRecords() []*Record {
	page := make([]byte, 300)
	for i := range page {
		page[i] = byte(i * 7)
	}
	return []*Record{
		{Type: RecBegin, Txn: 1},
		{Type: RecCreateDoc, Txn: 1, DocID: 1, Name: "a"},
		{Type: RecPageWrite, Txn: 1, Page: sas.PageID{Layer: 1, Page: 2}, Off: 16, Data: page},
		{Type: RecCommit, Txn: 1, CommitTS: 1},
		{Type: RecCheckpoint},
		{Type: RecBegin, Txn: 2},
		{Type: RecPageWrite, Txn: 2, Page: sas.PageID{Layer: 1, Page: 3}, Data: page[:40]},
		{Type: RecCommit, Txn: 2, CommitTS: 2},
		{Type: RecCheckpoint},
		{Type: RecBegin, Txn: 3},
		{Type: RecAllocPage, Txn: 3, Page: sas.PageID{Layer: 1, Page: 4}},
		{Type: RecCommit, Txn: 3, CommitTS: 3},
	}
}

// writeLog appends recs to a new log at path and closes it, returning each
// record's LSN.
func writeLog(t testing.TB, path string, recs []*Record) []uint64 {
	t.Helper()
	l, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	lsns := make([]uint64, len(recs))
	for i, r := range recs {
		if lsns[i], err = l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return lsns
}

func scanAll(t testing.TB, l *Log, from uint64) ([]*Record, []uint64, error) {
	t.Helper()
	var recs []*Record
	var lsns []uint64
	err := l.Scan(from, func(lsn uint64, r *Record) error {
		recs = append(recs, r.Clone())
		lsns = append(lsns, lsn)
		return nil
	})
	return recs, lsns, err
}

func TestCheckpointStartsSegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	recs := sampleRecords()
	lsns := writeLog(t, path, recs)
	l, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	segs := l.Segments()
	if len(segs) != 3 || segs[0].Base != 0 || segs[1].Base != lsns[4] || segs[2].Base != lsns[8] {
		t.Fatalf("segments = %+v, want bases 0, %d, %d", segs, lsns[4], lsns[8])
	}
	got, gotLSNs, err := scanAll(t, l, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) || !reflect.DeepEqual(gotLSNs, lsns) {
		t.Fatalf("scanned %d records at %v, want %d at %v", len(got), gotLSNs, len(recs), lsns)
	}
	// The type-restricted scan decodes only commits.
	var commits []uint64
	if err := l.ScanType(0, RecCommit, func(_ uint64, r *Record) error {
		if r.Type != RecCommit {
			return fmt.Errorf("ScanType delivered type %d", r.Type)
		}
		commits = append(commits, r.CommitTS)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(commits, []uint64{1, 2, 3}) {
		t.Fatalf("commit timestamps = %v", commits)
	}
}

// TestReaderCrossesSegmentRoll tails a log through a roll: the reader
// follows into the new segment and the LSNs stay continuous.
func TestReaderCrossesSegmentRoll(t *testing.T) {
	l := openTemp(t)
	rd, err := l.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var want []uint64
	var got []uint64
	pos := uint64(0)
	drain := func() {
		for {
			data, next, cnt, err := rd.ReadRecords(pos, 64)
			if err != nil {
				t.Fatal(err)
			}
			if cnt == 0 {
				return
			}
			if err := ScanBytes(pos, data, func(lsn uint64, _ *Record, _ int) error {
				got = append(got, lsn)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			pos = next
		}
	}
	for i, r := range sampleRecords() {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, lsn)
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			drain() // read part-way through each segment
		}
	}
	drain()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reader LSNs %v, want %v", got, want)
	}
	if n := len(l.Segments()); n != 3 {
		t.Fatalf("%d segments, want 3", n)
	}
}

func TestOpenRejectsMissingMiddleSegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	lsns := writeLog(t, path, sampleRecords())
	if err := os.Remove(segmentPath(path, lsns[4])); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{NoSync: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with a missing middle segment: %v, want ErrCorrupt", err)
	}
}

func TestOpenRejectsShortSealedSegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	lsns := writeLog(t, path, sampleRecords())
	if err := os.Truncate(segmentPath(path, 0), int64(lsns[4]-1)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{NoSync: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with a short sealed segment: %v, want ErrCorrupt", err)
	}
}

// TestLegacyFileIsBaseZero reads a headerless log named path itself as the
// segment at LSN 0, rolls past it and retires it.
func TestLegacyFileIsBaseZero(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	recs := sampleRecords()[:4]
	lsns := writeLog(t, path, recs)
	if err := os.Rename(segmentPath(path, 0), path); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got, gotLSNs, err := scanAll(t, l, 0)
	if err != nil || len(got) != len(recs) || !reflect.DeepEqual(gotLSNs, lsns) {
		t.Fatalf("legacy scan: %d records at %v (%v), want %v", len(got), gotLSNs, err, lsns)
	}
	ckpt, err := l.Append(&Record{Type: RecCheckpoint})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Retire(ckpt); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("legacy file survived the retire (stat: %v)", err)
	}
	if l.OldestLSN() != ckpt {
		t.Fatalf("oldest LSN %d, want the checkpoint %d", l.OldestLSN(), ckpt)
	}
}

// TestRetireKeepsHeldSegments checks the retention rule: a segment goes
// once it ends at or below both the checkpoint and every hold; reads below
// the oldest retained LSN fail with ErrRetired.
func TestRetireKeepsHeldSegments(t *testing.T) {
	reg := metrics.NewRegistry()
	path := filepath.Join(t.TempDir(), "wal.log")
	lsns := writeLog(t, path, sampleRecords())
	l, err := Open(path, Options{NoSync: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	first, second := lsns[4], lsns[8] // the two segment boundaries
	replica, err := l.Hold(HoldReplica, lsns[2])
	if err != nil {
		t.Fatal(err)
	}
	backup, err := l.Hold(HoldBackup, lsns[6])
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Retire(second); err != nil {
		t.Fatal(err)
	}
	if l.OldestLSN() != 0 {
		t.Fatalf("oldest %d: the replica hold inside the first segment must keep it", l.OldestLSN())
	}
	g := reg.Snapshot().Gauges
	if g["wal.segments"] != 3 || g["wal.replica_held_bytes"] != int64(second) || g["wal.backup_held_bytes"] != int64(second-first) {
		t.Fatalf("gauges %v; want 3 segments, replica holding %d bytes, backup %d", g, second, second-first)
	}
	replica.Move(first)
	if err := l.Retire(second); err != nil {
		t.Fatal(err)
	}
	if l.OldestLSN() != first {
		t.Fatalf("oldest %d, want %d once the replica moved to the boundary", l.OldestLSN(), first)
	}
	if _, _, err := scanAll(t, l, 0); !errors.Is(err, ErrRetired) {
		t.Fatalf("scan below the oldest LSN: %v, want ErrRetired", err)
	}
	if _, err := l.Hold(HoldReplica, 0); !errors.Is(err, ErrRetired) {
		t.Fatalf("hold below the oldest LSN: %v, want ErrRetired", err)
	}
	rd, _ := l.OpenReader()
	defer rd.Close()
	if _, _, _, err := rd.ReadRecords(0, 1<<10); !errors.Is(err, ErrRetired) {
		t.Fatalf("read below the oldest LSN: %v, want ErrRetired", err)
	}
	replica.Release()
	backup.Release()
	if err := l.Retire(second); err != nil {
		t.Fatal(err)
	}
	if l.OldestLSN() != second || len(l.Segments()) != 1 {
		t.Fatalf("oldest %d with %d segments, want only the live one at %d", l.OldestLSN(), len(l.Segments()), second)
	}
	if l.Size() != l.NextLSN()-second {
		t.Fatalf("Size %d, want %d", l.Size(), l.NextLSN()-second)
	}
	g = reg.Snapshot().Gauges
	if g["wal.segments"] != 1 || g["wal.replica_held_bytes"] != 0 || g["wal.backup_held_bytes"] != 0 {
		t.Fatalf("gauges %v after release", g)
	}
}

// TestConcurrentRollRetireTail runs an appender that checkpoints and
// retires every few records against a tailing reader whose hold follows
// what it has read, with the gauges read alongside: the reader sees every
// record exactly once at continuous LSNs, and the log never retires what
// the hold still covers.
func TestConcurrentRollRetireTail(t *testing.T) {
	reg := metrics.NewRegistry()
	l, err := Open(filepath.Join(t.TempDir(), "wal.log"), Options{NoSync: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	hold, err := l.Hold(HoldReplica, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Release()
	const n = 2000
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= n; i++ {
			if _, err := l.Append(&Record{Type: RecCreateDoc, Txn: uint64(i), Name: "d"}); err != nil {
				done <- err
				return
			}
			if i%50 == 0 {
				lsn, err := l.Append(&Record{Type: RecCheckpoint})
				if err == nil {
					err = l.Flush()
				}
				if err == nil {
					err = l.Retire(lsn)
				}
				if err != nil {
					done <- err
					return
				}
			}
			if err := l.Flush(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	stopGauges := make(chan struct{})
	gaugesDone := make(chan struct{})
	go func() {
		defer close(gaugesDone)
		for {
			select {
			case <-stopGauges:
				return
			default:
				reg.Snapshot()
			}
		}
	}()
	rd, _ := l.OpenReader()
	defer rd.Close()
	var pos uint64
	seen := 0
	for seen < n {
		data, next, cnt, err := rd.ReadRecords(pos, 512)
		if err != nil {
			t.Fatal(err)
		}
		if cnt == 0 {
			continue
		}
		if err := ScanBytes(pos, data, func(_ uint64, r *Record, _ int) error {
			if r.Type == RecCreateDoc {
				seen++
				if r.Txn != uint64(seen) {
					return fmt.Errorf("record %d read as number %d", r.Txn, seen)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		pos = next
		hold.Move(pos)
	}
	close(stopGauges)
	<-gaugesDone
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Caught up: the next checkpoint retires everything but the live
	// segment.
	hold.Move(l.DurableLSN())
	lsn, err := l.Append(&Record{Type: RecCheckpoint})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Retire(lsn); err != nil {
		t.Fatal(err)
	}
	if segs := len(l.Segments()); segs != 1 {
		t.Fatalf("%d segments left with the reader caught up", segs)
	}
}
