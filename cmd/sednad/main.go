// Command sednad runs the Sedna-Go database server: it opens (or creates)
// a database directory and serves client sessions over TCP — the governor /
// connection / transaction process architecture of the paper's Figure 1.
//
// Usage:
//
//	sednad -dir data/mydb -addr 127.0.0.1:5050
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"sedna/internal/core"
	"sedna/internal/repl"
	"sedna/internal/server"
)

func main() {
	dir := flag.String("dir", "sedna-data", "database directory")
	addr := flag.String("addr", "127.0.0.1:5050", "listen address")
	metricsAddr := flag.String("metrics-addr", "", "serve metrics, the slow-query log and pprof over HTTP on this address (empty = off)")
	bufPages := flag.Int("buffer-pages", 2048, "buffer pool size in 16KiB pages")
	noSync := flag.Bool("nosync", false, "disable fsync (unsafe; benchmarks only)")
	traceOn := flag.Bool("trace", false, "record a span trace for every statement")
	slowThreshold := flag.Duration("slow-query-threshold", 0, "log statements at or above this duration to the slow-query log (0 = off; runtime-settable via SLOWLOG)")
	slowLog := flag.String("slow-log", "", "slow-query log path (default <dir>/slowlog.jsonl)")
	queryWorkers := flag.Int("query-workers", 0, "intra-query parallelism cap per statement (0 = GOMAXPROCS, 1 = serial; runtime-settable via WORKERS)")
	replicaOf := flag.String("replica-of", "", "run as a read replica of the primary sednad at this host:port (an empty directory seeds itself over the wire; PROMOTE makes the node writable)")
	flag.Parse()

	opts := core.Options{
		BufferPages:        *bufPages,
		NoSync:             *noSync,
		TraceEnabled:       *traceOn,
		SlowQueryThreshold: *slowThreshold,
		SlowLogPath:        *slowLog,
		QueryWorkers:       *queryWorkers,
	}
	var db *core.Database
	var rep *repl.Replica
	if *replicaOf != "" {
		var err error
		rep, err = repl.Start(*dir, *replicaOf, opts)
		if err != nil {
			log.Fatalf("sednad: start replica: %v", err)
		}
		db = rep.DB()
		log.Printf("sednad: replicating from %s", *replicaOf)
	} else {
		var err error
		db, err = core.Open(*dir, opts)
		if err != nil {
			log.Fatalf("sednad: open: %v", err)
		}
	}
	if *slowThreshold > 0 {
		log.Printf("sednad: slow-query threshold %s", slowThreshold.String())
	}
	log.Printf("sednad: query workers %d", db.QueryWorkers())
	srv, err := server.Listen(db, *addr)
	if err != nil {
		db.Close()
		log.Fatalf("sednad: listen: %v", err)
	}
	if rep != nil {
		srv.Governor().SetReplica(rep)
	}
	log.Printf("sednad: serving database %q on %s", *dir, srv.Addr())
	var ms *server.MetricsServer
	if *metricsAddr != "" {
		ms, err = server.ListenMetrics(db.Metrics(), db.Tracer(), srv.Governor(), *metricsAddr)
		if err != nil {
			srv.Close()
			db.Close()
			log.Fatalf("sednad: metrics listen: %v", err)
		}
		log.Printf("sednad: metrics on http://%s/metrics (?format=prometheus), sessions on /sessions, slow-query log on /slowlog, profiles on /debug/pprof/", ms.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("sednad: shutting down")
	if ms != nil {
		if err := ms.Close(); err != nil {
			log.Printf("sednad: close metrics endpoint: %v", err)
		}
	}
	if err := srv.Close(); err != nil {
		log.Printf("sednad: close server: %v", err)
	}
	if rep != nil {
		rep.Stop()
	}
	if err := db.Close(); err != nil {
		log.Printf("sednad: close database: %v", err)
	}
}
