package server_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"sedna/client"
	"sedna/internal/core"
	"sedna/internal/server"
)

func startServer(t *testing.T) *server.Server {
	t.Helper()
	return startServerWith(t, core.Options{NoSync: true})
}

func startServerWith(t *testing.T, opts core.Options) *server.Server {
	t.Helper()
	db, err := core.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.Listen(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return srv
}

func TestClientServerRoundTrip(t *testing.T) {
	srv := startServer(t)
	c, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Execute(`CREATE DOCUMENT "d"`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(`UPDATE insert <r><x>1</x><x>2</x></r> into doc("d")`); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(`count(doc("d")/r/x)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data != "2" {
		t.Fatalf("count = %q", res.Data)
	}
	res, err = c.Execute(`doc("d")/r`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data != "<r><x>1</x><x>2</x></r>" {
		t.Fatalf("serialize = %q", res.Data)
	}
}

func TestExplicitTransactionCommitRollback(t *testing.T) {
	srv := startServer(t)
	c, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Execute(`CREATE DOCUMENT "d"`)
	c.Execute(`UPDATE insert <r/> into doc("d")`)

	// Rolled-back transaction leaves no trace.
	if err := c.Begin(false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(`UPDATE insert <gone/> into doc("d")/r`); err != nil {
		t.Fatal(err)
	}
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}
	res, _ := c.Execute(`count(doc("d")/r/gone)`)
	if res.Data != "0" {
		t.Fatalf("rollback leaked: %s", res.Data)
	}

	// Committed transaction persists.
	if err := c.Begin(false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(`UPDATE insert <kept/> into doc("d")/r`); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	res, _ = c.Execute(`count(doc("d")/r/kept)`)
	if res.Data != "1" {
		t.Fatalf("commit lost: %s", res.Data)
	}
}

func TestErrorsDoNotKillSession(t *testing.T) {
	srv := startServer(t)
	c, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute(`syntax error here(`); err == nil {
		t.Fatal("expected error")
	}
	if _, err := c.Execute(`doc("missing")`); err == nil {
		t.Fatal("expected error for missing document")
	}
	// Session still alive.
	res, err := c.Execute(`1 + 1`)
	if err != nil || res.Data != "2" {
		t.Fatalf("session dead after errors: %v %v", res, err)
	}
}

func TestConcurrentSessions(t *testing.T) {
	srv := startServer(t)
	setup, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	setup.Execute(`CREATE DOCUMENT "d"`)
	setup.Execute(`UPDATE insert <r><n>0</n></r> into doc("d")`)
	setup.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Connect(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				if i%2 == 0 {
					if _, err := c.Execute(`count(doc("d")//n)`); err != nil {
						errs <- err
						return
					}
				} else {
					if _, err := c.Execute(`UPDATE insert <n>x</n> into doc("d")/r`); err != nil {
						errs <- err
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	res, err := check.Execute(`count(doc("d")//n)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data != "41" { // 1 initial + 4 writers × 10
		t.Fatalf("final count = %s, want 41", res.Data)
	}
}

func TestGovernorTracksSessions(t *testing.T) {
	srv := startServer(t)
	if n := srv.Governor().SessionCount(); n != 0 {
		t.Fatalf("sessions = %d", n)
	}
	c, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(`1`)
	if err != nil || res.Data != "1" {
		t.Fatal(err)
	}
	if n := srv.Governor().SessionCount(); n != 1 {
		t.Fatalf("sessions = %d, want 1", n)
	}
	if srv.Governor().TxnsStarted() == 0 {
		t.Fatal("governor did not count transactions")
	}
	c.Close()
}

func TestLargeResult(t *testing.T) {
	srv := startServer(t)
	c, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Execute(`CREATE DOCUMENT "big"`)
	var sb strings.Builder
	sb.WriteString(`UPDATE insert <r>`)
	for i := 0; i < 3000; i++ {
		sb.WriteString("<item>some moderately long content here</item>")
	}
	sb.WriteString(`</r> into doc("big")`)
	if _, err := c.Execute(sb.String()); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(`doc("big")/r`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) < 3000*20 {
		t.Fatalf("large result truncated: %d bytes", len(res.Data))
	}
}

// TestOversizedResultKeepsSession checks that a result over the frame limit
// is answered with an error and leaves the connection in step: the next
// statement on the same Conn works.
func TestOversizedResultKeepsSession(t *testing.T) {
	srv := startServer(t)
	c, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	kib := strings.Repeat("abcdefgh", 128)
	_, err = c.Execute(`string-join(for $i in 1 to 66000 return "` + kib + `", "")`)
	if err == nil || !strings.Contains(err.Error(), "exceeds the 64 MiB message limit") {
		t.Fatalf("oversized result: err = %v", err)
	}
	res, err := c.Execute(`1 + 1`)
	if err != nil || res.Data != "2" {
		t.Fatalf("statement after an oversized result: %v, %v", res, err)
	}
}

// TestMarkupDenseResultBytes checks that a result full of escaped markup
// arrives byte-identical and costs the wire exactly its frame: a 5-byte
// header, three one-byte fields (Updated, Message and Error lengths) and the
// result itself.
func TestMarkupDenseResultBytes(t *testing.T) {
	srv := startServer(t)
	c, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute(`CREATE DOCUMENT "d"`); err != nil {
		t.Fatal(err)
	}
	text := strings.Repeat("x&lt;", 60000)
	if _, err := c.Execute(`UPDATE insert <r>` + text + `</r> into doc("d")`); err != nil {
		t.Fatal(err)
	}
	// The server counts a write after it returns, which can be after the
	// client has read the bytes: read the counter once it has settled.
	out := srv.Governor().Metrics().Counter("server.bytes_out")
	settled := func() uint64 {
		for {
			v := out.Value()
			time.Sleep(20 * time.Millisecond)
			if out.Value() == v {
				return v
			}
		}
	}
	before := settled()
	res, err := c.Execute(`doc("d")/r`)
	if err != nil {
		t.Fatal(err)
	}
	if want := "<r>" + text + "</r>"; res.Data != want {
		t.Fatalf("result differs: %d bytes, want %d", len(res.Data), len(want))
	}
	if got, want := settled()-before, uint64(5+3+len(res.Data)); got != want {
		t.Fatalf("server.bytes_out grew by %d, want %d", got, want)
	}
}
