package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sedna/internal/metrics"
)

// The log is a sequence of segment files named path.<base LSN as 16 hex
// digits>. LSNs stay logical byte offsets: segment i holds the bytes
// [base_i, base_{i+1}) and the last segment is the live one appends go to.
// A checkpoint record always starts a new segment (Append rolls first), so
// the records a restart needs begin at a segment boundary, and once a
// checkpoint is published every older segment can be deleted — unless a
// hold (a connected replica, the last backup) still needs it. A legacy
// headerless file named path itself is read as the segment at base 0.

// Segment is one retained segment file. It covers the log from Base up to
// the next segment's Base; the live (last) segment is readable up to the
// durable LSN.
type Segment struct {
	Base uint64
	Path string
}

// segmentPath names the segment of the log at path starting at base.
func segmentPath(path string, base uint64) string {
	return fmt.Sprintf("%s.%016x", path, base)
}

// SegmentBase reports whether file (a base name) is a segment of the log
// named logName (a base name such as "data.wal"), and at which LSN it
// starts. The legacy file logName itself is the segment at base 0.
func SegmentBase(logName, file string) (uint64, bool) {
	if file == logName {
		return 0, true
	}
	rest, ok := strings.CutPrefix(file, logName+".")
	if !ok || len(rest) != 16 {
		return 0, false
	}
	base, err := strconv.ParseUint(rest, 16, 64)
	return base, err == nil
}

// SegmentFileName is the base name of the segment of the log named logName
// that starts at base.
func SegmentFileName(logName string, base uint64) string {
	return filepath.Base(segmentPath(logName, base))
}

// listSegments finds the segments of the log at path, oldest first, and
// checks they are contiguous: every segment but the last must end exactly
// where the next begins. A gap, an overlap or a short sealed segment is
// ErrCorrupt — never a silently shorter log. A missing first segment is
// indistinguishable from retirement and is not an error.
func listSegments(path string) ([]Segment, error) {
	dir, name := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var segs []Segment
	sizes := map[uint64]int64{}
	for _, e := range entries {
		base, ok := SegmentBase(name, e.Name())
		if !ok || !e.Type().IsRegular() {
			continue
		}
		if _, dup := sizes[base]; dup {
			return nil, fmt.Errorf("%w: two segments start at LSN %d", ErrCorrupt, base)
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("wal: list segments: %w", err)
		}
		sizes[base] = info.Size()
		segs = append(segs, Segment{Base: base, Path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Base < segs[j].Base })
	for i := 0; i+1 < len(segs); i++ {
		if end := segs[i].Base + uint64(sizes[segs[i].Base]); end != segs[i+1].Base {
			return nil, fmt.Errorf("%w: segment %s ends at LSN %d, the next begins at %d",
				ErrCorrupt, filepath.Base(segs[i].Path), end, segs[i+1].Base)
		}
	}
	return segs, nil
}

// segmentIndex returns the index of the segment holding lsn (the last one
// starting at or below it). The caller holds mu and has checked lsn is not
// below the oldest base.
func (l *Log) segmentIndex(lsn uint64) int {
	return sort.Search(len(l.segs), func(i int) bool { return l.segs[i].Base > lsn }) - 1
}

// rollLocked seals the live segment and starts a new one at the next LSN:
// it flushes and fsyncs the old segment, creates the new file and fsyncs
// the directory, so a new segment never exists on disk ahead of the bytes
// before it. An empty live segment is kept (the record will be its first).
// The caller holds mu.
func (l *Log) rollLocked() error {
	for l.syncing {
		l.cond.Wait()
	}
	if l.nextLSN == l.segs[len(l.segs)-1].Base {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if !l.noSync && l.flushed < l.nextLSN {
		start := time.Now()
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
		l.met.fsyncs.Inc()
		l.met.fsyncNs.Observe(time.Since(start))
	}
	seg := Segment{Base: l.nextLSN, Path: segmentPath(l.path, l.nextLSN)}
	f, err := os.OpenFile(seg.Path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: new segment: %w", err)
	}
	if err := l.syncDir(); err != nil {
		f.Close()
		os.Remove(seg.Path)
		return err
	}
	if err := l.f.Close(); err != nil {
		f.Close()
		return fmt.Errorf("wal: close segment: %w", err)
	}
	l.f = f
	l.w.Reset(f)
	l.segs = append(l.segs, seg)
	if l.flushed < l.nextLSN {
		l.flushed = l.nextLSN
		l.notifyDurableLocked()
	}
	return nil
}

// syncDir fsyncs the log's directory, making segment creations and
// deletions durable.
func (l *Log) syncDir() error {
	if l.noSync {
		return nil
	}
	d, err := os.Open(filepath.Dir(l.path))
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// Segments lists the retained segments, oldest first.
func (l *Log) Segments() []Segment {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Segment(nil), l.segs...)
}

// Retire deletes, oldest first, every segment that ends at or below the
// cutoff — the checkpoint LSN just published in the master page, lowered to
// the LSN of any hold — then fsyncs the directory. The live segment is
// never deleted. Call it only once the checkpoint is durable.
func (l *Log) Retire(checkpoint uint64) error {
	l.mu.Lock()
	l.checkpoint = checkpoint
	cutoff := checkpoint
	for _, h := range l.holds {
		cutoff = min(cutoff, h.lsn.Load())
	}
	var gone []Segment
	for len(l.segs) > 1 && l.segs[1].Base <= cutoff {
		gone = append(gone, l.segs[0])
		l.segs = l.segs[1:]
	}
	l.mu.Unlock()
	if len(gone) == 0 {
		return nil
	}
	// Deleting a large file takes tens of milliseconds; appenders need not
	// wait for it. Oldest first, so a crash midway leaves a contiguous log.
	for _, s := range gone {
		if err := os.Remove(s.Path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("wal: retire: %w", err)
		}
	}
	return l.syncDir()
}

// HoldKind says who a hold keeps log for.
type HoldKind int

// Hold kinds.
const (
	HoldReplica HoldKind = iota // a connected replica's restart LSN
	HoldBackup                  // the LSN the last backup copied the log up to
)

// Hold keeps every segment ending above its LSN from being retired.
type Hold struct {
	l    *Log
	kind HoldKind
	lsn  atomic.Uint64
}

// Hold registers a hold at lsn. It fails with ErrRetired when lsn is below
// the oldest retained LSN: that log is already gone.
func (l *Log) Hold(kind HoldKind, lsn uint64) (*Hold, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if oldest := l.segs[0].Base; lsn < oldest {
		return nil, fmt.Errorf("%w: LSN %d is below the oldest retained LSN %d", ErrRetired, lsn, oldest)
	}
	h := &Hold{l: l, kind: kind}
	h.lsn.Store(lsn)
	l.holds = append(l.holds, h)
	return h, nil
}

// Move advances the hold to lsn; it never moves backwards.
func (h *Hold) Move(lsn uint64) {
	for {
		cur := h.lsn.Load()
		if lsn <= cur || h.lsn.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// Release drops the hold; the next Retire may delete what it kept.
func (h *Hold) Release() {
	l := h.l
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, o := range l.holds {
		if o == h {
			l.holds = append(l.holds[:i], l.holds[i+1:]...)
			return
		}
	}
}

// bindGauges publishes the retention gauges, computed when read:
// wal.segments and wal.retained_bytes describe what is on disk;
// wal.replica_held_bytes and wal.backup_held_bytes are the bytes kept
// beyond the last checkpoint because of each kind of hold, so the larger
// one names what keeps the oldest segment.
func (l *Log) bindGauges(reg *metrics.Registry) {
	reg.GaugeFunc("wal.segments", func() int64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return int64(len(l.segs))
	})
	reg.GaugeFunc("wal.retained_bytes", func() int64 { return int64(l.Size()) })
	reg.GaugeFunc("wal.replica_held_bytes", func() int64 { return l.heldBytes(HoldReplica) })
	reg.GaugeFunc("wal.backup_held_bytes", func() int64 { return l.heldBytes(HoldBackup) })
}

// heldBytes sums the sealed segments the last checkpoint would have retired
// but a hold of the given kind keeps.
func (l *Log) heldBytes(kind HoldKind) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n uint64
	for _, h := range l.holds {
		if h.kind != kind {
			continue
		}
		at := h.lsn.Load()
		var held uint64
		for i := 0; i+1 < len(l.segs); i++ {
			if end := l.segs[i+1].Base; end <= l.checkpoint && end > at {
				held += end - l.segs[i].Base
			}
		}
		n = max(n, held)
	}
	return int64(n)
}
