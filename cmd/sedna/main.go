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
//	\load FILE NAME   load an XML file as document NAME, in a transaction
//	              of its own: the file is spliced into an insert statement
//	\metrics      print doc("$metrics"): every metric and the recent queries
//	\slowlog      print doc("$slowlog"): the retained slow-query traces
//	\sessions     print doc("$sessions"): live sessions with accounting and
//	              in-flight statements
//	\replicas     print doc("$replication"): role, replicas and their lag
//	\promote      promote a replica server to a writable primary
//	\kill SESSION [STMT]   cancel a session's running statement (optionally
//	              fenced to per-session statement ordinal STMT)
//	\q            quit
//
// The four printing commands are shorthands for queries: a statement can
// filter the same system documents, e.g.
// doc("$sessions")//session[statement]/@id;
//
// EXPLAIN <stmt>, PROFILE <stmt> and ANALYZE doc("name") are regular
// statements — end them with ';' like any query. ANALYZE collects the value
// histograms the cost-based optimizer plans from; EXPLAIN then shows the
// costed alternatives per step and PROFILE the estimated vs actual rows.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sedna/client"
	"sedna/internal/xmlscan"
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

// aliases are the shell commands that print a system document.
var aliases = map[string]string{
	`\metrics`:  `doc("$metrics")`,
	`\slowlog`:  `doc("$slowlog")`,
	`\sessions`: `doc("$sessions")`,
	`\replicas`: `doc("$replication")`,
}

func command(c *client.Conn, cmd string) bool {
	fields := strings.Fields(cmd)
	if q, ok := aliases[fields[0]]; ok {
		run(c, q)
		return true
	}
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
	case `\promote`:
		msg, err := c.Promote()
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		} else {
			fmt.Println(msg)
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
		if err := loadFile(c, fields[1], fields[2]); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		} else {
			fmt.Printf("loaded %s as %q\n", fields[1], fields[2])
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown command %s\n", fields[0])
	}
	return true
}

// loadFile loads an XML file as document name: CREATE DOCUMENT, then an
// insert of the file's content spliced into the statement text (the wire
// protocol has no load verb, and the shell adds none), both in one explicit
// transaction, so a file the insert refuses leaves no document behind. A
// file with no element is refused before anything is created.
func loadFile(c *client.Conn, path, name string) error {
	content, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := hasElement(content); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := c.Begin(false); err != nil {
		return err
	}
	for _, stmt := range []string{
		fmt.Sprintf("CREATE DOCUMENT %q", name),
		fmt.Sprintf("UPDATE insert %s into doc(%q)", content, name),
	} {
		if _, err := c.Execute(stmt); err != nil {
			return errors.Join(err, c.Rollback())
		}
	}
	return c.Commit()
}

// hasElement returns nil when content holds an element before any syntax
// error.
func hasElement(content []byte) error {
	s := xmlscan.NewScanner(bytes.NewReader(content))
	for {
		k, err := s.Next()
		switch {
		case err == io.EOF:
			return errors.New("no element")
		case err != nil:
			return err
		case k == xmlscan.StartElement:
			return nil
		}
	}
}
