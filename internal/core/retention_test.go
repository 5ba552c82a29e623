package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sedna/internal/wal"
	"sedna/internal/xmlgen"
)

// loadDoc loads a small document in its own transaction.
func loadDoc(t *testing.T, db *Database, name, xml string) {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LoadXML(name, strings.NewReader(xml)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// docState renders every document of db, in name order, as one string.
func docState(t *testing.T, db *Database) string {
	t.Helper()
	names := db.Catalog().DocNames()
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "%s=%s\n", n, serialize(t, db, n))
	}
	return sb.String()
}

// logFiles lists the log segment files in dir.
func logFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if _, ok := wal.SegmentBase(logName, e.Name()); ok {
			out = append(out, e.Name())
		}
	}
	return out
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestCheckpointBoundsDisk loads a 3 MB document: after a checkpoint the
// directory holds the data file, the snapshot area and the catalog snapshot,
// and at most 64 KiB besides — the load's log is gone.
func TestCheckpointBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	xml := xmlgen.AuctionString(4500, 4500, 4, 1)
	if len(xml) < 3<<20 {
		t.Fatalf("document is %d bytes, want at least 3 MB", len(xml))
	}
	loadDoc(t, db, "auction", xml)
	if db.LogSize() < uint64(len(xml)) {
		t.Fatalf("log holds %d bytes before the checkpoint, less than the %d loaded", db.LogSize(), len(xml))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	total := dirSize(t, dir)
	meta := fmt.Sprintf("meta.%d", db.pf.Master().MetaGen)
	kept := fileSize(t, filepath.Join(dir, "data.sdb")) + fileSize(t, filepath.Join(dir, "data.snap")) +
		fileSize(t, filepath.Join(dir, meta))
	if extra := total - kept; extra > 64<<10 {
		t.Fatalf("directory holds %d bytes beyond data, snapshot area and %s (log files %v)", extra, meta, logFiles(t, dir))
	}
	if n := db.LogSize(); n > 64<<10 {
		t.Fatalf("LogSize after the checkpoint = %d", n)
	}
	s := db.Metrics().Snapshot()
	if s.Gauges["wal.segments"] != 1 || s.Gauges["wal.retained_bytes"] != int64(db.LogSize()) {
		t.Fatalf("wal.segments = %d, wal.retained_bytes = %d, LogSize %d",
			s.Gauges["wal.segments"], s.Gauges["wal.retained_bytes"], db.LogSize())
	}
}

// TestCrashWithNewSegmentBeforeMaster crashes between a checkpoint's new
// segment and its master page: the new segment exists — empty, torn or with
// the whole checkpoint record — while the master still names the old
// checkpoint. Recovery must redo across the segments to the exact state.
func TestCrashWithNewSegmentBeforeMaster(t *testing.T) {
	// A checkpoint record's bytes, taken from a scratch log.
	scratch := filepath.Join(t.TempDir(), logName)
	l, err := wal.Open(scratch, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&wal.Record{Type: wal.RecCheckpoint}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(l.Segments()[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range [][]byte{nil, ckpt[:5], ckpt[:len(ckpt)-1], ckpt} {
		t.Run(fmt.Sprintf("tail%d", len(tail)), func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			loadDoc(t, db, "a", "<a>before</a>")
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			loadDoc(t, db, "b", "<b>after</b>")
			want := docState(t, db)
			end := db.log.NextLSN()
			db.closeFilesForCrash()
			seg := filepath.Join(dir, wal.SegmentFileName(logName, end))
			if err := os.WriteFile(seg, tail, 0o644); err != nil {
				t.Fatal(err)
			}
			db2, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if got := docState(t, db2); got != want {
				t.Fatalf("state after recovery:\n%s\nwant:\n%s", got, want)
			}
			if files := logFiles(t, dir); len(files) != 1 {
				t.Fatalf("log files after recovery = %v, want the one live segment", files)
			}
		})
	}
}

// TestCrashAfterMasterBeforeRetire crashes after a checkpoint's master page
// is written but before the old segments are deleted: they are present at
// the next open, recovery ignores them, and its checkpoint retires them.
func TestCrashAfterMasterBeforeRetire(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	loadDoc(t, db, "a", "<a>one</a>")
	loadDoc(t, db, "b", "<b>two</b>")
	saved := map[string][]byte{}
	for _, name := range logFiles(t, dir) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		saved[name] = b
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	loadDoc(t, db, "c", "<c>three</c>")
	want := docState(t, db)
	db.closeFilesForCrash()
	// Put back what the checkpoint retired, as if it never got to delete.
	for name, b := range saved {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if files := logFiles(t, dir); len(files) < 2 {
		t.Fatalf("log files before reopen = %v, want the retired ones back", files)
	}
	db2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := docState(t, db2); got != want {
		t.Fatalf("state after recovery:\n%s\nwant:\n%s", got, want)
	}
	if files := logFiles(t, dir); len(files) != 1 {
		t.Fatalf("log files after recovery = %v, want one", files)
	}
}

// TestLegacyLogRetiredAtFirstCheckpoint opens a database whose log is one
// headerless data.wal, as written before the log was segmented: it is read
// as the segment at LSN 0 and deleted by the first checkpoint.
func TestLegacyLogRetiredAtFirstCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	loadDoc(t, db, "a", "<a>legacy</a>")
	want := docState(t, db)
	db.closeFilesForCrash()
	files := logFiles(t, dir)
	if len(files) != 1 || files[0] != wal.SegmentFileName(logName, 0) {
		t.Fatalf("log files = %v, want the one segment at LSN 0", files)
	}
	if err := os.Rename(filepath.Join(dir, files[0]), filepath.Join(dir, logName)); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := docState(t, db2); got != want {
		t.Fatalf("state after recovery from data.wal:\n%s\nwant:\n%s", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, logName)); !os.IsNotExist(err) {
		t.Fatalf("legacy data.wal still present after the recovery checkpoint (stat: %v)", err)
	}
}

// TestBackupRestoreAfterRetirement takes a full backup and two incrementals
// with checkpoints between them (each retiring the log the previous copy
// read), then restores every prefix.
func TestBackupRestoreAfterRetirement(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(filepath.Join(dir, "db"), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	backupDir := filepath.Join(dir, "backup")
	var want []string
	loadDoc(t, db, "a", "<a>base</a>")
	if err := db.Backup(backupDir); err != nil {
		t.Fatal(err)
	}
	want = append(want, docState(t, db))
	for i, name := range []string{"b", "c"} {
		loadDoc(t, db, name, fmt.Sprintf("<%s>era %d</%s>", name, i+1, name))
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		loadDoc(t, db, name+"2", fmt.Sprintf("<x>after checkpoint %d</x>", i+1))
		if err := db.BackupIncremental(backupDir); err != nil {
			t.Fatal(err)
		}
		want = append(want, docState(t, db))
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if files := logFiles(t, db.dir); len(files) != 1 {
			t.Fatalf("log files after incremental %d and a checkpoint = %v, want one", i+1, files)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for upto := range want {
		restored := filepath.Join(dir, fmt.Sprintf("restored%d", upto))
		if err := Restore(backupDir, restored, upto); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(restored, Options{NoSync: true})
		if err != nil {
			t.Fatalf("open restore of %d incrementals: %v", upto, err)
		}
		got := docState(t, db2)
		db2.Close()
		if got != want[upto] {
			t.Fatalf("restore of %d incrementals:\n%s\nwant:\n%s", upto, got, want[upto])
		}
	}

	// Restoring a shorter prefix over a fuller restore replays only the
	// prefix: the later incremental's segment, still contiguous, must not
	// be left in place for recovery to adopt.
	twice := filepath.Join(dir, "twice")
	if err := Restore(backupDir, twice, -1); err != nil {
		t.Fatal(err)
	}
	if err := Restore(backupDir, twice, 1); err != nil {
		t.Fatal(err)
	}
	db3, err := Open(twice, Options{NoSync: true})
	if err != nil {
		t.Fatalf("open second restore into one directory: %v", err)
	}
	got := docState(t, db3)
	db3.Close()
	if got != want[1] {
		t.Fatalf("restore of 1 incremental over a restore of all:\n%s\nwant:\n%s", got, want[1])
	}
}

// TestBackupHoldSurvivesRestart checks the backup position is persisted
// with the catalog snapshot: after a restart and a checkpoint the log since
// the backup is still there for the incremental.
func TestBackupHoldSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	dbDir := filepath.Join(dir, "db")
	db, err := Open(dbDir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	backupDir := filepath.Join(dir, "backup")
	loadDoc(t, db, "a", "<a/>")
	if err := db.Backup(backupDir); err != nil {
		t.Fatal(err)
	}
	loadDoc(t, db, "b", "<b/>")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dbDir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if held := db.Metrics().Snapshot().Gauges["wal.backup_held_bytes"]; held == 0 {
		t.Fatal("wal.backup_held_bytes = 0 with the log since the backup kept")
	}
	if err := db.BackupIncremental(backupDir); err != nil {
		t.Fatal(err)
	}
	want := docState(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if held := db.Metrics().Snapshot().Gauges["wal.backup_held_bytes"]; held != 0 {
		t.Fatalf("wal.backup_held_bytes = %d after the incremental caught up", held)
	}
	restored := filepath.Join(dir, "restored")
	if err := Restore(backupDir, restored, -1); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(restored, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := docState(t, db2); got != want {
		t.Fatalf("restored state:\n%s\nwant:\n%s", got, want)
	}
}

// TestIncrementalFailsOnRetiredLog: a later full backup into another
// directory moves the hold, a checkpoint retires what the first directory's
// incremental would need, and that incremental fails naming the gap instead
// of copying bytes from the wrong offsets.
func TestIncrementalFailsOnRetiredLog(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(filepath.Join(dir, "db"), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadDoc(t, db, "a", "<a/>")
	first := filepath.Join(dir, "first")
	if err := db.Backup(first); err != nil {
		t.Fatal(err)
	}
	loadDoc(t, db, "b", "<b/>")
	if err := db.Backup(filepath.Join(dir, "second")); err != nil {
		t.Fatal(err)
	}
	loadDoc(t, db, "c", "<c/>")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m, err := ReadBackupManifest(first)
	if err != nil {
		t.Fatal(err)
	}
	err = db.BackupIncremental(first)
	if err == nil {
		t.Fatal("incremental over a retired log succeeded")
	}
	for _, lsn := range []uint64{m.WalSize, db.log.OldestLSN()} {
		if !strings.Contains(err.Error(), fmt.Sprint(lsn)) {
			t.Fatalf("error %q does not name LSN %d", err, lsn)
		}
	}
	if m2, _ := ReadBackupManifest(first); len(m2.Incrementals) != 0 {
		t.Fatalf("failed incremental recorded in the manifest: %+v", m2.Incrementals)
	}
}

// TestLegacyBackupRestores restores a backup laid out before the log was
// segmented: one data.wal from LSN 0 plus an incremental file.
func TestLegacyBackupRestores(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(filepath.Join(dir, "db"), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	loadDoc(t, db, "a", "<a/>")
	backupDir := filepath.Join(dir, "backup")
	if err := db.Backup(backupDir); err != nil {
		t.Fatal(err)
	}
	loadDoc(t, db, "b", "<b/>")
	if err := db.BackupIncremental(backupDir); err != nil {
		t.Fatal(err)
	}
	want := docState(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Rewrite the base log as the old layout: one data.wal from LSN 0,
	// zero-filled below the checkpoint (recovery never reads there).
	files := logFiles(t, backupDir)
	if len(files) != 1 {
		t.Fatalf("backup log files = %v, want one", files)
	}
	base, _ := wal.SegmentBase(logName, files[0])
	seg, err := os.ReadFile(filepath.Join(backupDir, files[0]))
	if err != nil {
		t.Fatal(err)
	}
	legacy := append(make([]byte, base), seg...)
	if err := os.WriteFile(filepath.Join(backupDir, logName), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(backupDir, files[0])); err != nil {
		t.Fatal(err)
	}
	restored := filepath.Join(dir, "restored")
	if err := Restore(backupDir, restored, -1); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(restored, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := docState(t, db2); got != want {
		t.Fatalf("restored state:\n%s\nwant:\n%s", got, want)
	}
}
