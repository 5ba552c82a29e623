package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"sedna/client"
	"sedna/internal/core"
	"sedna/internal/metrics"
	"sedna/internal/server"
)

// longKillQuery runs millions of cheap FLWOR iterations — long enough to be
// observed and killed, with a cancellation checkpoint at every iteration.
const longKillQuery = `for $i in 1 to 4000 for $j in 1 to 4000 where $i + $j = 0 return 1`

// TestSessionsVisibility is the acceptance-criteria test: a second
// connection's in-flight statement shows up in SESSIONS with its query text,
// and sessions that did storage work show non-zero page-fault and exec-time
// counters.
func TestSessionsVisibility(t *testing.T) {
	srv := startServer(t)
	worker, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	watcher, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()

	// Storage work first, so the worker session accumulates faults.
	if _, err := worker.Execute(`CREATE DOCUMENT "d"`); err != nil {
		t.Fatal(err)
	}
	if _, err := worker.Execute(`UPDATE insert <r><x>1</x><x>2</x></r> into doc("d")`); err != nil {
		t.Fatal(err)
	}
	if _, err := worker.Execute(`count(doc("d")//x)`); err != nil {
		t.Fatal(err)
	}

	// Fire the long statement and catch it in flight from the watcher.
	done := make(chan error, 1)
	go func() {
		_, err := worker.Execute(longKillQuery)
		done <- err
	}()
	var running *server.SessionInfo
	deadline := time.Now().Add(5 * time.Second)
	for running == nil && time.Now().Before(deadline) {
		infos, err := watcher.Sessions()
		if err != nil {
			t.Fatal(err)
		}
		for i := range infos {
			if infos[i].Statement != nil && infos[i].Statement.Query == longKillQuery {
				running = &infos[i]
			}
		}
		if running == nil {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if running == nil {
		t.Fatal("in-flight statement never appeared in SESSIONS")
	}
	if running.Statement.Ordinal == 0 || running.Statement.ElapsedNs <= 0 {
		t.Fatalf("statement view incomplete: %+v", running.Statement)
	}
	if running.Stats.Statements < 3 {
		t.Fatalf("worker session stats = %+v, want ≥ 3 statements", running.Stats)
	}
	if running.Stats.BufferFaults == 0 {
		t.Fatalf("worker session shows no buffer faults: %+v", running.Stats)
	}
	if running.Stats.ExecNs <= 0 || running.Stats.Nodes == 0 {
		t.Fatalf("worker session shows no exec time or no nodes: %+v", running.Stats)
	}
	if running.Client == "" {
		t.Fatal("session has no client address")
	}

	// KILL it and require prompt termination with a clean abort.
	killedAt := time.Now()
	if err := watcher.Kill(running.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "killed") {
			t.Fatalf("killed statement returned %v, want killed error", err)
		}
		if lat := time.Since(killedAt); lat > 100*time.Millisecond {
			t.Fatalf("kill-to-termination took %s, want < 100ms", lat)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("killed statement did not terminate")
	}

	// The worker session survives its killed statement.
	res, err := worker.Execute(`count(doc("d")//x)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data != "2" {
		t.Fatalf("post-kill query = %q, want 2", res.Data)
	}
	kills := srv.Governor().Metrics().Counter("server.kills").Value()
	if kills != 1 {
		t.Fatalf("server.kills = %d, want 1", kills)
	}
}

// TestKillAbortsExplicitTransaction: a statement killed inside BEGIN…COMMIT
// rolls the whole transaction back — partial update effects must not
// survive.
func TestKillAbortsExplicitTransaction(t *testing.T) {
	srv := startServer(t)
	worker, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	watcher, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()

	if _, err := worker.Execute(`CREATE DOCUMENT "d"`); err != nil {
		t.Fatal(err)
	}
	if _, err := worker.Execute(`UPDATE insert <r/> into doc("d")`); err != nil {
		t.Fatal(err)
	}
	if err := worker.Begin(false); err != nil {
		t.Fatal(err)
	}
	if _, err := worker.Execute(`UPDATE insert <gone/> into doc("d")/r`); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := worker.Execute(longKillQuery)
		done <- err
	}()
	if err := killWhenRunning(watcher, longKillQuery); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "killed") {
		t.Fatalf("got %v, want killed error", err)
	}
	// The transaction was aborted server-side: COMMIT has nothing to commit
	// and the in-transaction update is gone.
	if err := worker.Commit(); err == nil {
		t.Fatal("COMMIT succeeded after kill, want no-open-transaction error")
	}
	res, err := worker.Execute(`count(doc("d")/r/gone)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data != "0" {
		t.Fatalf("killed transaction leaked an update: count = %q", res.Data)
	}
}

// killWhenRunning polls SESSIONS until query is in flight, then kills its
// session.
func killWhenRunning(watcher *client.Conn, query string) error {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		infos, err := watcher.Sessions()
		if err != nil {
			return err
		}
		for _, in := range infos {
			if in.Statement != nil && in.Statement.Query == query {
				return watcher.Kill(in.ID)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("statement %q never appeared", query)
}

// TestKillRacesNormalCompletion hammers the window where KILL arrives as
// the statement completes on its own: the kill either lands (killed error)
// or reports the session idle / the statement finished — never anything
// else, and the session keeps working either way. Run under -race.
func TestKillRacesNormalCompletion(t *testing.T) {
	srv := startServer(t)
	worker, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	watcher, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()

	// Find the worker's session id (the one that is not the watcher's: the
	// watcher session is the one executing SESSIONS... simplest to take both
	// and kill the one whose id differs from the watcher's own hello id).
	infos, err := watcher.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("sessions = %d, want 2", len(infos))
	}

	for i := 0; i < 40; i++ {
		var wg sync.WaitGroup
		wg.Add(1)
		var execErr error
		go func() {
			defer wg.Done()
			_, execErr = worker.Execute(`count(for $i in 1 to 500 return $i)`)
		}()
		// Kill both sessions with no synchronization; errors about idle
		// sessions or finished statements are expected.
		for _, in := range infos {
			if err := watcher.Kill(in.ID); err != nil {
				msg := err.Error()
				if !strings.Contains(msg, "idle") && !strings.Contains(msg, "finished") {
					t.Fatalf("iteration %d: unexpected kill error %q", i, msg)
				}
			}
		}
		wg.Wait()
		if execErr != nil && !strings.Contains(execErr.Error(), "killed") {
			t.Fatalf("iteration %d: unexpected execute error %v", i, execErr)
		}
	}
	// The worker session still works.
	if _, err := worker.Execute(`1 + 1`); err != nil {
		t.Fatal(err)
	}
}

// TestKillStatementOrdinalFence: killing a specific finished statement
// ordinal fails instead of cancelling an innocent successor.
func TestKillStatementOrdinalFence(t *testing.T) {
	srv := startServer(t)
	worker, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	watcher, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	if _, err := worker.Execute(`1 + 1`); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := worker.Execute(longKillQuery)
		done <- err
	}()
	// Catch the long statement's ordinal, then try to kill its predecessor.
	deadline := time.Now().Add(5 * time.Second)
	var sessID, ord uint64
	for ord == 0 && time.Now().Before(deadline) {
		infos, err := watcher.Sessions()
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range infos {
			if in.Statement != nil && in.Statement.Query == longKillQuery {
				sessID, ord = in.ID, in.Statement.Ordinal
			}
		}
	}
	if ord < 2 {
		t.Fatalf("long statement ordinal = %d, want ≥ 2", ord)
	}
	if err := watcher.KillStatement(sessID, ord-1); err == nil || !strings.Contains(err.Error(), "finished") {
		t.Fatalf("stale-ordinal kill returned %v, want finished error", err)
	}
	// The fenced kill with the right ordinal lands.
	if err := watcher.KillStatement(sessID, ord); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "killed") {
		t.Fatalf("got %v, want killed error", err)
	}
}

// TestKillErrors covers the error paths: unknown session, idle session,
// missing session id.
func TestKillErrors(t *testing.T) {
	srv := startServer(t)
	c, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Kill(99999); err == nil || !strings.Contains(err.Error(), "no session") {
		t.Fatalf("unknown session: %v", err)
	}
	infos, err := c.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Client == "" {
		t.Fatalf("sessions = %+v, want this connection's alone, with its address", infos)
	}
	// Our own session is idle while serving SESSIONS/KILL verbs.
	if err := c.Kill(infos[0].ID); err == nil || !strings.Contains(err.Error(), "idle") {
		t.Fatalf("idle session: %v", err)
	}
	if err := c.Kill(0); err == nil {
		t.Fatal("kill without a session id succeeded")
	}
}

// TestSessionsHTTP exercises GET /sessions and both /metrics formats, with
// concurrent scrapes racing live counter writers (run under -race).
func TestSessionsHTTP(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := server.Listen(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ms, err := server.ListenMetrics(db.Metrics(), db.Tracer(), srv.Governor(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	c, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute(`CREATE DOCUMENT "d"`); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + ms.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	// /sessions returns the connected session as JSON.
	code, body := get("/sessions")
	if code != http.StatusOK {
		t.Fatalf("/sessions status = %d", code)
	}
	var infos []server.SessionInfo
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatalf("/sessions not JSON: %v\n%s", err, body)
	}
	if len(infos) != 1 || infos[0].Stats.Statements == 0 {
		t.Fatalf("/sessions = %+v", infos)
	}

	// Default /metrics format unchanged (no HELP/TYPE lines), prometheus
	// format parses and carries build info + histogram families.
	code, body = get("/metrics")
	if code != http.StatusOK || strings.Contains(body, "# TYPE") {
		t.Fatalf("/metrics default format changed (status %d):\n%.300s", code, body)
	}
	if !strings.Contains(body, "server.sessions_active 1") {
		t.Fatalf("/metrics missing sessions_active:\n%.300s", body)
	}
	code, body = get("/metrics?format=prometheus")
	if code != http.StatusOK {
		t.Fatalf("prometheus format status = %d", code)
	}
	fams, err := metrics.ParsePrometheusText(strings.NewReader(body))
	if err != nil {
		t.Fatalf("prometheus output malformed: %v\n%s", err, body)
	}
	for _, want := range []string{"sedna_sedna_build_info", "sedna_server_uptime_seconds", "sedna_query_ddl_ns"} {
		if fams[want] == nil {
			t.Fatalf("prometheus output missing family %s", want)
		}
	}
	if fams["sedna_query_ddl_ns"].Type != "histogram" {
		t.Fatalf("ddl_ns type = %q, want histogram", fams["sedna_query_ddl_ns"].Type)
	}
	if code, _ := get("/metrics?format=wat"); code != http.StatusBadRequest {
		t.Fatalf("unknown format status = %d, want 400", code)
	}

	// Concurrent scrapes racing live counter writers.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg := db.Metrics()
			c := reg.Counter("scrape.race")
			h := reg.Histogram("scrape.race_ns")
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.ObserveNs(7)
				}
			}
		}()
	}
	for i := 0; i < 25; i++ {
		if code, _ := get("/metrics"); code != http.StatusOK {
			t.Fatalf("scrape %d: status %d", i, code)
		}
		code, body := get("/metrics?format=prometheus")
		if code != http.StatusOK {
			t.Fatalf("scrape %d: status %d", i, code)
		}
		if _, err := metrics.ParsePrometheusText(strings.NewReader(body)); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		if code, _ := get("/sessions"); code != http.StatusOK {
			t.Fatalf("scrape %d: /sessions status %d", i, code)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSlowlogSessionEnrichment: slowlog entries carry the session id and
// client address of the statement's origin, joinable against SESSIONS.
func TestSlowlogSessionEnrichment(t *testing.T) {
	srv := startServer(t)
	c, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetSlowThreshold(1); err != nil { // 1ns: everything is slow
		t.Fatal(err)
	}
	if _, err := c.Execute(`CREATE DOCUMENT "d"`); err != nil {
		t.Fatal(err)
	}
	traces, err := c.SlowLog(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("no slow traces retained")
	}
	tr := traces[0]
	if tr.SessionID == 0 || tr.Client == "" {
		t.Fatalf("slow trace not enriched: session_id=%d client=%q", tr.SessionID, tr.Client)
	}
	infos, err := c.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if infos[0].ID != tr.SessionID || infos[0].Client != tr.Client {
		t.Fatalf("slowlog/sessions mismatch: trace %d/%q vs session %d/%q",
			tr.SessionID, tr.Client, infos[0].ID, infos[0].Client)
	}
}
