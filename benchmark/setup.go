package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sedna"
	"sedna/internal/bench"
	"sedna/internal/metrics"
	"sedna/internal/server"
)

// openDB opens a database with default sedna.Options: 2048 buffer pages
// (32 MiB), fsync on every commit with group commit, resident switch off and
// residency advisor on, QueryWorkers 0, PrefetchDepth 0, BulkLoadAuto. The
// only field set is the metrics registry the harness reads.
func openDB(dir string, reg *metrics.Registry) (*sedna.DB, error) {
	return sedna.Open(dir, &sedna.Options{Metrics: reg})
}

// instance is one set-up database of a wire workload, with what its set-up
// cost.
type instance struct {
	dir string
	reg *metrics.Registry
	db  *sedna.DB
	srv *server.Server

	xmlBytes         int
	load, checkpoint time.Duration
	// recover is sedna.Open → first correct query after a crash that follows
	// the load and index builds, so it redoes this corpus from the log alone.
	recover time.Duration
	// setup is everything above except recover.
	setup                time.Duration
	diskBytes, dataBytes int64
	walBytes             int64
	nodes                uint64
}

// setUp builds the database of a wire workload in dir: generate the XML,
// load it, build the value indexes, crash and recover, ANALYZE, checkpoint
// and listen on loopback. It returns the generated XML for the oracle.
func setUp(w wireWorkload, dir string, seed int64) (*instance, []string, error) {
	in := &instance{dir: dir, reg: metrics.NewRegistry()}
	start := time.Now()
	xml := make([]string, len(w.docs))
	for i, d := range w.docs {
		xml[i] = d.generate(seed*1000 + int64(i))
		in.xmlBytes += len(xml[i])
	}

	db, err := openDB(dir, in.reg)
	if err != nil {
		return nil, nil, err
	}
	t := time.Now()
	for i, d := range w.docs {
		if err := db.LoadXMLString(d.name, xml[i]); err != nil {
			return nil, nil, fmt.Errorf("load %s: %w", d.name, err)
		}
	}
	in.load = time.Since(t)
	for _, ddl := range w.indexes {
		if _, err := db.Execute(ddl); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", ddl, err)
		}
	}

	// A real crash takes the process and its buffer pool with it; here the
	// abandoned pool is garbage in this process, so collect it before the
	// reopen allocates the next one, outside the timed recovery.
	db.Internal().CrashForTesting()
	settle()
	t = time.Now()
	if db, err = openDB(dir, in.reg); err != nil {
		return nil, nil, fmt.Errorf("reopen after crash: %w", err)
	}
	if err := expect(db, primeStmt(w.docs[0].name)); err != nil {
		return nil, nil, fmt.Errorf("first query after recovery: %w", err)
	}
	in.recover = time.Since(t)
	if got := len(db.Documents()); got != len(w.docs) {
		return nil, nil, fmt.Errorf("recovered %d documents, loaded %d", got, len(w.docs))
	}

	for _, d := range w.docs {
		if d.analyze {
			if _, err := db.Execute(fmt.Sprintf(`ANALYZE doc("%s")`, d.name)); err != nil {
				return nil, nil, fmt.Errorf("analyze %s: %w", d.name, err)
			}
		}
	}
	t = time.Now()
	if err := db.Checkpoint(); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	in.checkpoint = time.Since(t)
	srv, err := server.Listen(db.Internal(), "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	in.db, in.srv = db, srv
	in.setup = time.Since(start) - in.recover

	if in.diskBytes, err = dirBytes(dir); err != nil {
		return nil, nil, err
	}
	in.dataBytes, in.walBytes = fileSize(filepath.Join(dir, "data.sdb")), fileSize(filepath.Join(dir, "data.wal"))
	for _, d := range w.docs {
		_, n, err := bench.SchemaStats(db, d.name)
		if err != nil {
			return nil, nil, err
		}
		in.nodes += n
	}
	return in, xml, nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// tearDown stops the server, closes the database and deletes its files; it
// returns how long Close took.
func (in *instance) tearDown() (time.Duration, error) {
	in.srv.Close()
	t := time.Now()
	err := in.db.Close()
	d := time.Since(t)
	if rerr := os.RemoveAll(in.dir); err == nil {
		err = rerr
	}
	return d, err
}

// expect runs a read statement on the embedded API and checks its answer.
func expect(db *sedna.DB, s stmt) error {
	res, err := db.Query(s.src)
	if err != nil {
		return fmt.Errorf("%s: %w", s.src, err)
	}
	if res.Data != s.want {
		return fmt.Errorf("%s: got %q, oracle says %q", s.src, clip(res.Data), clip(s.want))
	}
	return nil
}

func clip(s string) string {
	if len(s) > 120 {
		return s[:120] + "…"
	}
	return s
}
