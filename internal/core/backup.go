package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sedna/internal/wal"
)

// Hot backup (§6.5). A full backup checkpoints the database and copies the
// data file, the catalog snapshot and the write-ahead log segments from that
// checkpoint on; an incremental backup copies only the log bytes appended
// since the previous backup (plus the current catalog snapshots), which is
// cheap when the update rate is low. Restoring copies the base files and
// places each chosen incremental file as the log segment starting where it
// starts, so replaying fewer of them gives point-in-time recovery; the
// regular two-step recovery then brings the restored database to a
// consistent state.
//
// The log an incremental backup needs is kept by a hold at the LSN the last
// backup copied up to (wal.HoldBackup). It is persisted with the catalog
// snapshot; losing an advance in a crash only keeps more log.
//
// The paper solves the "split-block problem" (copying a page while it is
// concurrently rewritten) with additional logging; this reproduction copies
// under the quiescing latch instead, which excludes concurrent flushes for
// the duration of the copy. The behavioural contract — online backup without
// stopping the database process — is preserved: sessions resume as soon as
// the copy finishes.

// BackupManifest records what a backup directory contains.
type BackupManifest struct {
	MetaGen      uint64          // catalog generation of the base backup
	WalSize      uint64          // log end at base-backup time (where the first incremental starts)
	DurableLSN   uint64          // exact durable LSN the backup's log ends at
	Incrementals []BackupSegment // ordered incremental log segments
}

// BackupSegment is one incremental log copy.
type BackupSegment struct {
	File string
	From uint64 // log offset range [From, To)
	To   uint64
}

const (
	manifestName = "backup.json"
	logName      = "data.wal"
)

// Backup takes a full hot backup into destDir (created if needed). The log
// from the backup's position on is kept for incremental backups.
func (db *Database) Backup(destDir string) error { return db.backup(destDir, true) }

// SeedBackup takes a full hot backup to seed a replica. Unlike Backup it
// leaves the backup hold where it is: the seed directory is discarded once
// shipped, and the replica's stream holds the log it needs.
func (db *Database) SeedBackup(destDir string) error { return db.backup(destDir, false) }

func (db *Database) backup(destDir string, holdLog bool) error {
	if err := os.MkdirAll(destDir, 0o755); err != nil {
		return err
	}
	db.quiesce.Lock()
	defer db.quiesce.Unlock()
	if holdLog {
		// Before the checkpoint: it persists the new position with the
		// catalog snapshot and retires what the previous backup held.
		if err := db.holdBackupLog(db.log.NextLSN()); err != nil {
			return err
		}
	}
	if err := db.checkpointLocked(); err != nil {
		return err
	}
	master := db.pf.Master()
	if err := copyFile(filepath.Join(db.dir, "data.sdb"), filepath.Join(destDir, "data.sdb")); err != nil {
		return err
	}
	metaFileName := fmt.Sprintf("meta.%d", master.MetaGen)
	if err := copyFile(filepath.Join(db.dir, metaFileName), filepath.Join(destDir, metaFileName)); err != nil {
		return err
	}
	// Restore redoes from the checkpoint, so the log is copied from it on,
	// up to the durable LSN, which under the quiesce latch after a
	// checkpoint is the end of the log. Replication seeds a replica from
	// this backup and resumes streaming at exactly that LSN.
	// A segment of an older backup in destDir would be restored with it.
	if err := removeSegments(destDir); err != nil {
		return err
	}
	durable := db.log.DurableLSN()
	dst := filepath.Join(destDir, wal.SegmentFileName(logName, master.CheckpointLSN))
	if err := copyLogRange(db.log.Segments(), dst, master.CheckpointLSN, durable); err != nil {
		return err
	}
	m := BackupManifest{MetaGen: master.MetaGen, WalSize: durable, DurableLSN: durable}
	return writeManifest(destDir, &m)
}

// holdBackupLog moves the backup position to lsn and the log hold with it.
// A position below the oldest retained LSN holds from the oldest: the log
// below it is already gone. The caller holds the quiesce latch exclusively
// (or is recovery).
func (db *Database) holdBackupLog(lsn uint64) error {
	db.backupLSN = lsn
	if db.backupHold != nil {
		db.backupHold.Move(lsn)
		return nil
	}
	h, err := db.log.Hold(wal.HoldBackup, max(lsn, db.log.OldestLSN()))
	if err != nil {
		return err
	}
	db.backupHold = h
	return nil
}

// BackupIncremental copies the log bytes written since the last backup (or
// last incremental) into a new file of the backup directory. The database
// stays fully available; only the log tail is fixated and copied. It fails,
// naming the gap, when part of that log was already retired — another
// backup moved the hold past this one — and a full backup is needed.
func (db *Database) BackupIncremental(destDir string) error {
	m, err := readManifest(destDir)
	if err != nil {
		return fmt.Errorf("core: incremental backup requires a full backup first: %w", err)
	}
	db.quiesce.Lock()
	defer db.quiesce.Unlock()
	// Fixate the log (§6.5: "log is fixated and its files are copied").
	if err := db.log.Flush(); err != nil {
		return err
	}
	from := m.WalSize
	for _, seg := range m.Incrementals {
		if seg.To > from {
			from = seg.To
		}
	}
	to := db.log.DurableLSN()
	if to <= from {
		return nil // nothing new
	}
	if oldest := db.log.OldestLSN(); from < oldest {
		return fmt.Errorf("core: incremental backup needs the log from LSN %d, but it is retired up to LSN %d; take a full backup", from, oldest)
	}
	name := fmt.Sprintf("incr-%03d.wal", len(m.Incrementals)+1)
	if err := copyLogRange(db.log.Segments(), filepath.Join(destDir, name), from, to); err != nil {
		return err
	}
	// The newest catalog snapshot may have advanced past the base; copy any
	// meta generations not yet present.
	master := db.pf.Master()
	metaFileName := fmt.Sprintf("meta.%d", master.MetaGen)
	if _, err := os.Stat(filepath.Join(destDir, metaFileName)); os.IsNotExist(err) {
		if err := copyFile(filepath.Join(db.dir, metaFileName), filepath.Join(destDir, metaFileName)); err != nil {
			return err
		}
	}
	m.Incrementals = append(m.Incrementals, BackupSegment{File: name, From: from, To: to})
	if err := writeManifest(destDir, m); err != nil {
		return err
	}
	return db.holdBackupLog(to)
}

// copyLogRange writes the log bytes [from, to) of the given segments into
// one new file at dst; to must not pass the durable LSN.
func copyLogRange(segs []wal.Segment, dst string, from, to uint64) error {
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer out.Close()
	for i, seg := range segs {
		lo, hi := max(from, seg.Base), to
		if i+1 < len(segs) {
			hi = min(hi, segs[i+1].Base)
		}
		if lo >= hi {
			continue
		}
		if lo != from {
			return fmt.Errorf("core: log is retired up to LSN %d, want it from %d", lo, from)
		}
		if err := appendRange(out, seg.Path, int64(lo-seg.Base), int64(hi-lo)); err != nil {
			return err
		}
		from = hi
	}
	if from != to {
		return fmt.Errorf("core: log ends at LSN %d, before %d", from, to)
	}
	if err := out.Sync(); err != nil {
		return err
	}
	return out.Close()
}

// Restore materializes a database directory from a backup. upto selects how
// many incremental segments to apply (-1 = all), giving point-in-time
// restore at incremental-segment granularity. The restored directory is
// opened with Open, which runs recovery.
func Restore(backupDir, destDir string, upto int) error {
	m, err := readManifest(backupDir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(destDir, 0o755); err != nil {
		return err
	}
	// The restored log is exactly the segments placed below: a segment
	// left over from an older database (or an earlier restore with more
	// incrementals) would be adopted by Open if contiguous and replayed.
	if err := removeSegments(destDir); err != nil {
		return err
	}
	if err := copyFile(filepath.Join(backupDir, "data.sdb"), filepath.Join(destDir, "data.sdb")); err != nil {
		return err
	}
	// Copy every catalog snapshot and base log segment present in the
	// backup. A backup taken before the log was segmented holds one
	// data.wal, which the log reads as the segment at LSN 0.
	entries, err := os.ReadDir(backupDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		var gen uint64
		_, isMeta := fmt.Sscanf(e.Name(), "meta.%d", &gen)
		if _, isSeg := wal.SegmentBase(logName, e.Name()); isMeta == nil || isSeg {
			if err := copyFile(filepath.Join(backupDir, e.Name()), filepath.Join(destDir, e.Name())); err != nil {
				return err
			}
		}
	}
	// Each chosen incremental file is the segment starting at its From.
	segs := m.Incrementals
	if upto >= 0 && upto < len(segs) {
		segs = segs[:upto]
	}
	for _, seg := range segs {
		dst := filepath.Join(destDir, wal.SegmentFileName(logName, seg.From))
		if err := copyFile(filepath.Join(backupDir, seg.File), dst); err != nil {
			return err
		}
	}
	return nil
}

// removeSegments deletes every log segment file in dir.
func removeSegments(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if _, isSeg := wal.SegmentBase(logName, e.Name()); isSeg {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeManifest(dir string, m *BackupManifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, manifestName))
}

// ReadBackupManifest loads the manifest of a backup directory. Replication
// uses it to learn the durable LSN a seed transfer ends at.
func ReadBackupManifest(dir string) (*BackupManifest, error) {
	return readManifest(dir)
}

func readManifest(dir string) (*BackupManifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var m BackupManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

func copyFile(src, dst string) error {
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := appendRange(out, src, 0, -1); err != nil {
		return err
	}
	if err := out.Sync(); err != nil {
		return err
	}
	return out.Close()
}

// appendRange copies n bytes of src from offset off (n < 0: to its end)
// onto dst.
func appendRange(dst *os.File, src string, off, n int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	if _, err := in.Seek(off, io.SeekStart); err != nil {
		return err
	}
	var r io.Reader = in
	if n >= 0 {
		r = io.LimitReader(in, n)
	}
	copied, err := io.Copy(dst, r)
	if err != nil {
		return err
	}
	if n >= 0 && copied != n {
		return fmt.Errorf("core: %s holds %d bytes from offset %d, want %d", src, copied, off, n)
	}
	return nil
}
