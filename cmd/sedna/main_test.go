package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sedna/client"
	"sedna/internal/core"
	"sedna/internal/server"
)

// TestLoadIsAtomic loads files through a server: an empty file, one with no
// element and a malformed one each leave no document behind, and the session
// stays usable, so a good file then loads.
func TestLoadIsAtomic(t *testing.T) {
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
	c, err := client.Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dir := t.TempDir()
	file := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, bad := range []struct{ name, content string }{
		{"empty", ""},
		{"comment", "  <!-- no element -->\n"},
		{"malformed", "<a><b>1</a>"},
	} {
		if err := loadFile(c, file(bad.name+".xml", bad.content), bad.name); err == nil {
			t.Errorf("%s file loaded", bad.name)
		}
		if _, err := c.Execute(`count(doc("` + bad.name + `"))`); err == nil {
			t.Errorf("%s file left document %q behind", bad.name, bad.name)
		}
	}
	if err := loadFile(c, file("good.xml", "<a><b>1</b><b>2</b></a>"), "good"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(`count(doc("good")/a/b)`)
	if err != nil || strings.TrimSpace(res.Data) != "2" {
		t.Fatalf("count of the loaded document: %v, %v", res, err)
	}
}
