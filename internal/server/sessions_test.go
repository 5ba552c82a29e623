package server_test

import (
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sedna/client"
	"sedna/internal/core"
	"sedna/internal/server"
)

// longKillQuery runs millions of cheap FLWOR iterations — long enough to be
// observed and killed, with a cancellation checkpoint at every iteration.
const longKillQuery = `for $i in 1 to 4000 for $j in 1 to 4000 where $i + $j = 0 return 1`

// TestSessionsVisibility is the acceptance-criteria test: a second
// connection's in-flight statement shows up in doc("$sessions") with its
// query text,
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
	var running *sessionView
	deadline := time.Now().Add(5 * time.Second)
	for running == nil && time.Now().Before(deadline) {
		if running, err = runningSession(watcher, longKillQuery); err != nil {
			t.Fatal(err)
		}
		if running == nil {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if running == nil {
		t.Fatal("in-flight statement never appeared in doc(\"$sessions\")")
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

// sessionView is one <session> element of doc("$sessions").
type sessionView struct {
	ID     uint64 `xml:"id,attr"`
	Client string `xml:"client,attr"`
	Stats  struct {
		Statements   uint64 `xml:"statements,attr"`
		Nodes        uint64 `xml:"nodes,attr"`
		BufferFaults uint64 `xml:"buffer_faults,attr"`
		ExecNs       int64  `xml:"exec_ns,attr"`
	} `xml:"stats"`
	Statement *struct {
		Ordinal   uint64 `xml:"ordinal,attr"`
		Query     string `xml:"query,attr"`
		ElapsedNs int64  `xml:"elapsed_ns,attr"`
	} `xml:"statement"`
}

// runningSession returns the session doc("$sessions") shows executing q
// (which holds no apostrophe), or nil.
func runningSession(c *client.Conn, q string) (*sessionView, error) {
	res, err := c.Execute(fmt.Sprintf(`doc("$sessions")/sessions/session[statement/@query = '%s']`, q))
	if err != nil || res.Data == "" {
		return nil, err
	}
	var s sessionView
	if err := xml.Unmarshal([]byte(res.Data), &s); err != nil {
		return nil, fmt.Errorf("%w: %s", err, res.Data)
	}
	return &s, nil
}

// killWhenRunning polls doc("$sessions") until query is in flight, then
// kills its session.
func killWhenRunning(watcher *client.Conn, query string) error {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s, err := runningSession(watcher, query)
		if err != nil {
			return err
		}
		if s != nil {
			return watcher.Kill(s.ID)
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

	// Both session ids, the watcher's own included.
	var ids []uint64
	for _, f := range strings.Fields(result(t, watcher, `data(doc("$sessions")/sessions/session/@id)`)) {
		id, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if len(ids) != 2 {
		t.Fatalf("sessions = %d, want 2", len(ids))
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
		for _, id := range ids {
			if err := watcher.Kill(id); err != nil {
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
		s, err := runningSession(watcher, longKillQuery)
		if err != nil {
			t.Fatal(err)
		}
		if s != nil {
			sessID, ord = s.ID, s.Statement.Ordinal
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
	own := result(t, c, `doc("$sessions")/sessions/session`)
	var s sessionView
	if err := xml.Unmarshal([]byte(own), &s); err != nil || strings.Count(own, "<session ") != 1 || s.Client == "" {
		t.Fatalf("sessions = %s, want this connection's alone, with its address (%v)", own, err)
	}
	// Our own session is idle while serving the KILL verb.
	if err := c.Kill(s.ID); err == nil || !strings.Contains(err.Error(), "idle") {
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
	// The families and the histogram type, by their # TYPE lines; the
	// exposition's full structure is internal/metrics' to check.
	for _, want := range []string{
		"# TYPE sedna_sedna_build_info ",
		"# TYPE sedna_server_uptime_seconds ",
		"# TYPE sedna_query_ddl_ns histogram\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prometheus output missing %q", want)
		}
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
		if code != http.StatusOK || !strings.Contains(body, "# TYPE sedna_query_ddl_ns histogram\n") {
			t.Fatalf("scrape %d: status %d", i, code)
		}
		if code, _ := get("/sessions"); code != http.StatusOK {
			t.Fatalf("scrape %d: /sessions status %d", i, code)
		}
	}
	close(stop)
	wg.Wait()
}

// traceView is one <trace> element of doc("$slowlog").
type traceView struct {
	Query     string `xml:"query,attr"`
	DurNs     int64  `xml:"dur_ns,attr"`
	SessionID uint64 `xml:"session,attr"`
	Client    string `xml:"client,attr"`
	Counters  []struct {
		Name  string `xml:"name,attr"`
		Value uint64 `xml:"value,attr"`
	} `xml:"counter"`
	Root *spanView `xml:"span"`
}

// spanView is one <span> element of a trace or an in-flight statement.
type spanView struct {
	Name     string      `xml:"name,attr"`
	Children []*spanView `xml:"span"`
}

// slowTraces decodes the <trace> elements a statement returns.
func slowTraces(t *testing.T, c *client.Conn, q string) []traceView {
	t.Helper()
	var doc struct {
		Traces []traceView `xml:"trace"`
	}
	if err := xml.Unmarshal([]byte("<r>"+result(t, c, q)+"</r>"), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Traces
}

// TestSlowlogSessionEnrichment: slowlog entries carry the session id and
// client address of the statement's origin, joinable against
// doc("$sessions").
func TestSlowlogSessionEnrichment(t *testing.T) {
	srv := startServerWith(t, core.Options{NoSync: true, SlowQueryThreshold: 1}) // 1ns: everything is slow
	c, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute(`CREATE DOCUMENT "d"`); err != nil {
		t.Fatal(err)
	}
	traces := slowTraces(t, c, `doc("$slowlog")/slowlog/trace`)
	if len(traces) == 0 {
		t.Fatal("no slow traces retained")
	}
	tr := traces[0]
	if tr.SessionID == 0 || tr.Client == "" {
		t.Fatalf("slow trace not enriched: session_id=%d client=%q", tr.SessionID, tr.Client)
	}
	var s sessionView
	if err := xml.Unmarshal([]byte(result(t, c, `doc("$sessions")/sessions/session`)), &s); err != nil {
		t.Fatal(err)
	}
	if s.ID != tr.SessionID || s.Client != tr.Client {
		t.Fatalf("slowlog/sessions mismatch: trace %d/%q vs session %d/%q",
			tr.SessionID, tr.Client, s.ID, s.Client)
	}
}
