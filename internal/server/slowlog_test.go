package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sedna/client"
	"sedna/internal/core"
	"sedna/internal/server"
	"sedna/internal/trace"
)

// TestSlowLogEndToEnd drives slow statements through the wire protocol and
// checks they appear in the /slowlog HTTP endpoint, the JSONL file and
// doc("$slowlog"), with their full traces.
func TestSlowLogEndToEnd(t *testing.T) {
	// 1ns threshold: every statement qualifies as slow.
	srv := startServerWith(t, core.Options{NoSync: true, SlowQueryThreshold: time.Nanosecond})
	c, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Execute(`CREATE DOCUMENT "s"`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(`UPDATE insert <r><x>1</x><x>2</x></r> into doc("s")`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(`count(doc("s")//x)`); err != nil {
		t.Fatal(err)
	}

	// The traces over HTTP, newest first.
	ms, err := server.ListenMetrics(srv.Governor().Metrics(), srv.Governor().Tracer(), srv.Governor(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/slowlog", ms.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/slowlog status = %d", resp.StatusCode)
	}
	var httpTraces []*trace.Trace
	if err := json.NewDecoder(resp.Body).Decode(&httpTraces); err != nil {
		t.Fatal(err)
	}
	if len(httpTraces) != 3 || httpTraces[0].Query != `count(doc("s")//x)` || !httpTraces[0].Slow {
		t.Fatalf("/slowlog returned %d traces, first %+v", len(httpTraces), httpTraces[0])
	}

	// And on disk as JSONL in the database directory.
	data, err := os.ReadFile(filepath.Join(srv.Governor().DB().Dir(), "slowlog.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("slowlog.jsonl has %d lines, want 3", len(lines))
	}
	var logged trace.Trace
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &logged); err != nil {
		t.Fatal(err)
	}
	if logged.Query != `count(doc("s")//x)` || logged.Root == nil {
		t.Fatalf("logged trace = %+v", logged)
	}

	// The same traces in doc("$slowlog"): the statement reading it is logged
	// only once it finishes.
	traces := slowTraces(t, c, `doc("$slowlog")/slowlog/trace`)
	if len(traces) != 3 {
		t.Fatalf("slow log has %d traces, want 3", len(traces))
	}
	tr := traces[0]
	if tr.Query != `count(doc("s")//x)` {
		t.Fatalf("newest slow trace = %+v", tr)
	}
	if tr.Root == nil || tr.DurNs <= 0 {
		t.Fatalf("trace has no span tree: %+v", tr)
	}
	var spanNames []string
	var walk func(s *spanView)
	walk = func(s *spanView) {
		spanNames = append(spanNames, s.Name)
		for _, ch := range s.Children {
			walk(ch)
		}
	}
	walk(tr.Root)
	joined := strings.Join(spanNames, " ")
	for _, want := range []string{"statement", "parse", "analyze", "rewrite", "execute"} {
		if !strings.Contains(joined, want) {
			t.Errorf("slow trace missing %q span: %v", want, spanNames)
		}
	}
	// The update's trace captured the auto-commit WAL activity.
	appends := result(t, c, `string(doc("$slowlog")/slowlog/trace[@query = 'UPDATE insert <r><x>1</x><x>2</x></r> into doc("s")']/counter[@name = "wal.appends"]/@value)`)
	if appends == "" || appends == "0" {
		t.Errorf("update trace has no wal.appends delta: %q", appends)
	}

	// A positional predicate bounds the answer: the newest trace now is the
	// statement before this one.
	if traces = slowTraces(t, c, `doc("$slowlog")/slowlog/trace[1]`); len(traces) != 1 || !strings.Contains(traces[0].Query, "wal.appends") {
		t.Fatalf("trace[1] = %+v", traces)
	}
}

// TestHTTPEndpointHygiene covers the non-GET guard, the index page, 404s on
// unknown paths and the pprof mount.
func TestHTTPEndpointHygiene(t *testing.T) {
	srv := startServer(t)
	ms, err := server.ListenMetrics(srv.Governor().Metrics(), srv.Governor().Tracer(), srv.Governor(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	base := "http://" + ms.Addr()

	resp, err := http.Post(base+"/metrics", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Get(base + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET / status = %d", resp.StatusCode)
	}
	for _, want := range []string{"/metrics", "/slowlog", "/debug/pprof/"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("index page missing %q:\n%s", want, body)
		}
	}

	resp, err = http.Get(base + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope status = %d, want 404", resp.StatusCode)
	}
	if !strings.Contains(string(body), "/metrics") {
		t.Errorf("404 body is not the index page:\n%s", body)
	}

	resp, err = http.Get(base + "/slowlog?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /slowlog?n=bogus status = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("GET /debug/pprof/ status = %d body:\n%.200s", resp.StatusCode, body)
	}
}
