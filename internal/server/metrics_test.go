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

func TestMetricsCommand(t *testing.T) {
	srv := startServer(t)
	c, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	execSome(t, c)

	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if text == "" {
		t.Fatal("METRICS returned an empty snapshot")
	}
	for _, fam := range metricFamilies {
		if !strings.Contains(text, fam) {
			t.Errorf("snapshot missing %q family:\n%s", fam, text)
		}
	}
	for _, want := range []string{
		"server.sessions_active 1",
		"query.statements 3",
		"# recent queries",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("snapshot missing %q:\n%s", want, text)
		}
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
	// The wire snapshot and the HTTP snapshot come from the same registry.
	wire, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(wire, "buffer.hits") || !strings.Contains(text, "buffer.hits") {
		t.Error("wire and HTTP snapshots disagree on buffer.hits presence")
	}
}

// TestUnknownVerbIsError covers a type no server ever knew and the retired
// verbs 10 and 17 alike.
func TestUnknownVerbIsError(t *testing.T) {
	srv := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, verb := range []byte{42, 10, 17} {
		if err := server.WriteMsg(conn, verb, &server.Request{}); err != nil {
			t.Fatal(err)
		}
		var resp server.Response
		typ, err := server.ReadMsg(conn, &resp)
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
		if err := server.WriteMsg(conn, server.MsgHello, &server.Request{}); err != nil {
			t.Fatal(err)
		}
		if typ, err := server.ReadMsg(conn, &resp); err != nil || typ != server.MsgOK {
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
	var resp server.Response
	typ, err := server.ReadMsg(conn, &resp)
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
	if _, err := server.ReadMsg(conn, &resp); err == nil {
		t.Fatal("connection still open after oversized message")
	}
}

func TestOversizedClientRead(t *testing.T) {
	// The client-side ReadMsg applies the same bound.
	r := strings.NewReader(string([]byte{0xff, 0xff, 0xff, 0xff, server.MsgOK}))
	_, err := server.ReadMsg(r, nil)
	if err == nil || !strings.Contains(err.Error(), "exceeds size limit") {
		t.Fatalf("err = %v", err)
	}
}
