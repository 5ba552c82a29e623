package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// FuzzOpenLog damages a valid three-segment log — fuzzed bytes appended to
// the last segment, the logical log cut at a fuzzed LSN (in whichever
// segment holds it), one segment dropped — and opens it. Open must not
// panic: it either reports ErrCorrupt, or returns a log whose Scan from its
// first base yields, in order and at their LSNs, exactly the appended
// records that lie wholly inside what is left. Records the scan finds past
// the end of the appended ones come from the fuzzed bytes (they framed and
// checksummed) and are allowed. The seed corpus is in testdata/fuzz.
func FuzzOpenLog(f *testing.F) {
	recs := sampleRecords()
	f.Fuzz(func(t *testing.T, tail []byte, cut uint32, drop uint8) {
		path := filepath.Join(t.TempDir(), "wal.log")
		lsns := writeLog(t, path, recs)
		bases := []uint64{0, lsns[4], lsns[8]}
		last := segmentPath(path, bases[2])
		fl, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fl.Write(tail); err != nil {
			t.Fatal(err)
		}
		if err := fl.Close(); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(last)
		if err != nil {
			t.Fatal(err)
		}
		logEnd := bases[2] + uint64(info.Size())
		appendedEnd := logEnd - uint64(len(tail))
		at := uint64(cut) % (logEnd + 1)
		for i := len(bases) - 1; i >= 0; i-- {
			if at >= bases[i] {
				if err := os.Truncate(segmentPath(path, bases[i]), int64(at-bases[i])); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		dropped := int(drop) % (len(bases) + 1)
		if dropped < len(bases) {
			if err := os.Remove(segmentPath(path, bases[dropped])); err != nil {
				t.Fatal(err)
			}
		}
		// Where the damaged log's bytes stop: the end of the last segment
		// left, or the cut if it fell inside that segment. (A cut inside an
		// earlier segment that is still there must make Open fail.)
		lastLeft := len(bases) - 1
		end := logEnd
		if dropped == lastLeft {
			lastLeft--
			end = bases[lastLeft+1]
		}
		if at >= bases[lastLeft] && at < end {
			end = at
		}

		l, err := Open(path, Options{NoSync: true})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open: %v, want nil or ErrCorrupt", err)
			}
			return
		}
		defer l.Close()
		oldest := l.OldestLSN()
		var want []uint64
		for i, lsn := range lsns {
			next := appendedEnd
			if i+1 < len(lsns) {
				next = lsns[i+1]
			}
			if lsn >= oldest && next <= end {
				want = append(want, lsn)
			}
		}
		got, gotLSNs, err := scanAll(t, l, oldest)
		var appended []uint64
		for i, lsn := range gotLSNs {
			if lsn >= appendedEnd {
				break
			}
			appended = append(appended, lsn)
			j := indexOf(lsns, lsn)
			if j < 0 || !reflect.DeepEqual(normalize(got[i]), normalize(recs[j])) {
				t.Fatalf("record at LSN %d is not the one appended there", lsn)
			}
		}
		// A scan error is allowed only in the fuzzed bytes, after every
		// appended record was delivered.
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Scan: %v", err)
		}
		if !slices.Equal(appended, want) {
			t.Fatalf("scan from %d delivered appended records at %v, want %v (cut at %d, dropped %d, scan error %v)",
				oldest, appended, want, at, dropped, err)
		}
	})
}

func indexOf(s []uint64, v uint64) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}
