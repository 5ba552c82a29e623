// Command sedna is the interactive client shell. It connects to a sednad
// server and executes XQuery queries, XUpdate statements and DDL.
//
//	sedna -addr 127.0.0.1:5050
//
// Statements are terminated by a line ending in ';' (the ';' is removed).
// Shell commands:
//
//	\begin [ro]   start an explicit (read-only) transaction
//	\commit       commit it
//	\rollback     abort it
//	\load FILE NAME   bulk-load an XML file as document NAME
//	\metrics      print the server's metrics snapshot
//	\slowlog [N]  print the last N retained slow-query traces (default all)
//	\slowthreshold DUR   set the slow-query threshold (e.g. 50ms; 0 = off)
//	\replicas     show the replication topology (role, replicas, lag)
//	\promote      promote a replica server to a writable primary
//	\sessions     list live sessions with accounting and in-flight statements
//	\kill SESSION [STMT]   cancel a session's running statement (optionally
//	              fenced to per-session statement ordinal STMT)
//	\q            quit
//
// EXPLAIN <stmt>, PROFILE <stmt> and ANALYZE doc("name") are regular
// statements — end them with ';' like any query. ANALYZE collects the value
// histograms the cost-based optimizer plans from; EXPLAIN then shows the
// costed alternatives per step and PROFILE the estimated vs actual rows.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sedna/client"
	"sedna/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:5050", "server address")
	flag.Parse()

	c, err := client.Connect(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sedna: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()
	fmt.Printf("connected to %s; end statements with ';', \\q to quit\n", *addr)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var stmt strings.Builder
	prompt := "sedna> "
	for {
		fmt.Print(prompt)
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if stmt.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if !command(c, trimmed) {
				return
			}
			continue
		}
		stmt.WriteString(line)
		stmt.WriteString("\n")
		if strings.HasSuffix(trimmed, ";") {
			src := strings.TrimSpace(stmt.String())
			src = strings.TrimSuffix(src, ";")
			stmt.Reset()
			prompt = "sedna> "
			run(c, src)
		} else {
			prompt = "   ... "
		}
	}
}

func run(c *client.Conn, src string) {
	if strings.TrimSpace(src) == "" {
		return
	}
	res, err := c.Execute(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	if res.Data != "" {
		fmt.Println(res.Data)
	}
	if res.Message != "" {
		fmt.Println(res.Message)
	}
}

func command(c *client.Conn, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case `\q`, `\quit`:
		return false
	case `\begin`:
		ro := len(fields) > 1 && fields[1] == "ro"
		if err := c.Begin(ro); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		} else {
			fmt.Println("transaction started")
		}
	case `\commit`:
		if err := c.Commit(); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		} else {
			fmt.Println("committed")
		}
	case `\rollback`:
		if err := c.Rollback(); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		} else {
			fmt.Println("rolled back")
		}
	case `\metrics`:
		text, err := c.Metrics()
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		} else {
			fmt.Print(text)
		}
	case `\slowlog`:
		n := 0
		if len(fields) > 1 {
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				fmt.Fprintln(os.Stderr, `usage: \slowlog [N]`)
				return true
			}
			n = v
		}
		traces, err := c.SlowLog(n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return true
		}
		if len(traces) == 0 {
			fmt.Println("slow-query log is empty")
			return true
		}
		for _, tr := range traces {
			fmt.Print(tr.Text())
		}
	case `\slowthreshold`:
		if len(fields) != 2 {
			fmt.Fprintln(os.Stderr, `usage: \slowthreshold DUR (e.g. 50ms; 0 = off)`)
			return true
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return true
		}
		if err := c.SetSlowThreshold(d); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		} else {
			fmt.Printf("slow-query threshold set to %s\n", d)
		}
	case `\replicas`:
		t, err := c.ReplStatus()
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return true
		}
		fmt.Printf("role: %s\n", t.Role)
		if t.Self != nil {
			fmt.Printf("upstream %s  state=%s  lag=%d LSNs  applied=%d\n",
				t.Self.Primary, t.Self.State, t.Self.LagLSNs, t.Self.CommitLSN)
			if t.Self.LastError != "" {
				fmt.Printf("last error: %s\n", t.Self.LastError)
			}
		}
		if len(t.Replicas) == 0 {
			fmt.Println("no replicas connected")
		}
		for _, r := range t.Replicas {
			fmt.Printf("replica %s  state=%s  lag=%d LSNs  acked=%d  connected=%ds\n",
				r.Addr, r.State, r.LagLSNs, r.AckedLSN, r.Seconds)
		}
	case `\promote`:
		msg, err := c.Promote()
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		} else {
			fmt.Println(msg)
		}
	case `\sessions`:
		infos, err := c.Sessions()
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return true
		}
		for _, in := range infos {
			printSession(in)
		}
	case `\kill`:
		if len(fields) < 2 || len(fields) > 3 {
			fmt.Fprintln(os.Stderr, `usage: \kill SESSION [STMT]`)
			return true
		}
		sess, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, `usage: \kill SESSION [STMT]`)
			return true
		}
		var ord uint64
		if len(fields) == 3 {
			if ord, err = strconv.ParseUint(fields[2], 10, 64); err != nil {
				fmt.Fprintln(os.Stderr, `usage: \kill SESSION [STMT]`)
				return true
			}
		}
		if err := c.KillStatement(sess, ord); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		} else {
			fmt.Printf("killed session %d\n", sess)
		}
	case `\load`:
		if len(fields) != 3 {
			fmt.Fprintln(os.Stderr, `usage: \load FILE NAME`)
			return true
		}
		loadFile(c, fields[1], fields[2])
	default:
		fmt.Fprintf(os.Stderr, "unknown command %s\n", fields[0])
	}
	return true
}

// printSession renders one session's introspection view: a summary line, a
// stats line, and — when a statement is executing — what it is and for how
// long.
func printSession(in server.SessionInfo) {
	state := "idle"
	if in.Statement != nil {
		state = "running"
	}
	fmt.Printf("session %d  client=%s  connected=%s  tx_open=%v  %s\n",
		in.ID, in.Client,
		time.Since(time.Unix(0, in.ConnectedUnixNs)).Round(time.Second), in.TxOpen, state)
	st := in.Stats
	fmt.Printf("  stmts=%d errors=%d nodes=%d faults=%d reads=%d writes=%d wal_bytes=%d lock_wait=%s exec=%s\n",
		st.Statements, st.Errors, st.Nodes, st.BufferFaults, st.PagesRead, st.PagesWritten,
		st.WALBytes, time.Duration(st.LockWaitNs), time.Duration(st.ExecNs))
	if in.Statement != nil {
		q := in.Statement.Query
		if len(q) > 120 {
			q = q[:117] + "..."
		}
		fmt.Printf("  statement %d  elapsed=%s  %s\n",
			in.Statement.Ordinal, time.Duration(in.Statement.ElapsedNs).Round(time.Millisecond), q)
	}
}

// loadFile bulk-loads by creating the document and streaming its content as
// one insert statement. Large documents should be loaded server-side; this
// keeps the shell dependency-free.
func loadFile(c *client.Conn, path, name string) {
	content, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	if _, err := c.Execute(fmt.Sprintf("CREATE DOCUMENT %q", name)); err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	stmt := fmt.Sprintf("UPDATE insert %s into doc(%q)", string(content), name)
	if _, err := c.Execute(stmt); err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	fmt.Printf("loaded %s as %q\n", path, name)
}
