package server_test

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"

	"sedna/client"
	"sedna/internal/server"
	"sedna/internal/wire"
)

// metricFamilies are the subsystem prefixes every exposure path must cover.
var metricFamilies = []string{"buffer.", "pagefile.", "wal.", "txn.", "lock.", "query.", "server."}

func execSome(t *testing.T, c *client.Conn) {
	t.Helper()
	if _, err := c.Execute(`CREATE DOCUMENT "m"`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(`UPDATE insert <r><x>1</x></r> into doc("m")`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(`count(doc("m")//x)`); err != nil {
		t.Fatal(err)
	}
}

// result runs one statement and returns its serialized result.
func result(t *testing.T, c *client.Conn, q string) string {
	t.Helper()
	res, err := c.Execute(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res.Data
}

func TestMetricsCommand(t *testing.T) {
	srv := startServer(t)
	c, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	execSome(t, c)

	// The statement that reads doc("$metrics") is counted once it finishes.
	q := `let $m := doc("$metrics")/metrics
	      return concat($m/gauge[@name = "server.sessions_active"]/@value, " ",
	                    $m/counter[@name = "query.statements"]/@value)`
	if got := result(t, c, q); got != "1 3" {
		t.Errorf("sessions_active and statements = %q, want \"1 3\"", got)
	}
	if text := result(t, c, `doc("$metrics")`); !strings.HasPrefix(text, "<metrics><counter ") {
		t.Fatalf("doc(\"$metrics\") = %.200q", text)
	}
	for _, fam := range metricFamilies {
		q := fmt.Sprintf(`count(doc("$metrics")/metrics/*[starts-with(@name, "%s")])`, fam)
		if got := result(t, c, q); got == "0" {
			t.Errorf("doc(\"$metrics\") has no %q family", fam)
		}
	}
	if got := result(t, c, `count(doc("$metrics")/metrics/query[@kind = "query"])`); got == "0" {
		t.Error("doc(\"$metrics\") has no recent query")
	}
}

func TestMetricsHTTPEndpoint(t *testing.T) {
	srv := startServer(t)
	c, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	execSome(t, c)

	ms, err := server.ListenMetrics(srv.Governor().Metrics(), srv.Governor().Tracer(), srv.Governor(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", ms.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, fam := range metricFamilies {
		if !strings.Contains(text, fam) {
			t.Errorf("HTTP snapshot missing %q family", fam)
		}
	}
	// doc("$metrics") and the HTTP snapshot come from the same registry.
	snap := result(t, c, `count(doc("$metrics")/metrics/counter[@name = "buffer.hits"])`)
	if snap != "1" || !strings.Contains(text, "buffer.hits") {
		t.Error("doc(\"$metrics\") and the HTTP snapshot disagree on buffer.hits presence")
	}
}

// TestUnknownVerbIsError covers a type no server ever knew and the retired
// verbs 7, 8, 9, 10, 12, 14, 16 and 17 alike.
func TestUnknownVerbIsError(t *testing.T) {
	srv := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, verb := range []byte{42, 7, 8, 9, 10, 12, 14, 16, 17} {
		if err := wire.WriteRequest(conn, verb, &server.Request{}); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		typ, err := wire.ReadResponse(conn, &resp)
		if err != nil {
			t.Fatal(err)
		}
		if typ != server.MsgError {
			t.Fatalf("verb %d: reply type = %d, want MsgError", verb, typ)
		}
		if !strings.Contains(resp.Error, "unknown message type") {
			t.Fatalf("verb %d: error = %q", verb, resp.Error)
		}
		// The session survives a protocol error.
		if err := wire.WriteRequest(conn, server.MsgHello, &server.Request{}); err != nil {
			t.Fatal(err)
		}
		if typ, err := wire.ReadResponse(conn, &resp); err != nil || typ != server.MsgOK {
			t.Fatalf("session dead after verb %d: type=%d err=%v", verb, typ, err)
		}
	}
}

func TestOversizedMessageIsError(t *testing.T) {
	srv := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Hand-craft a frame header declaring a body far beyond maxMessage.
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], 1<<30)
	hdr[4] = server.MsgExecute
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	typ, err := wire.ReadResponse(conn, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if typ != server.MsgError {
		t.Fatalf("reply type = %d, want MsgError", typ)
	}
	if !strings.Contains(resp.Error, "exceeds size limit") {
		t.Fatalf("error = %q", resp.Error)
	}
	// After an oversized header the stream is unparseable; the server
	// closes the connection.
	if _, err := wire.ReadResponse(conn, &resp); err == nil {
		t.Fatal("connection still open after oversized message")
	}
}

func TestOversizedClientRead(t *testing.T) {
	// The client-side ReadResponse applies the same bound.
	r := strings.NewReader(string([]byte{0xff, 0xff, 0xff, 0xff, server.MsgOK}))
	_, err := wire.ReadResponse(r, new(wire.Response))
	if err == nil || !strings.Contains(err.Error(), "exceeds size limit") {
		t.Fatalf("err = %v", err)
	}
}
