package query

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sedna/internal/core"
	"sedna/internal/xmlgen"
)

// longQuery is a deliberately long statement (a cross join with an
// unsatisfiable where) whose execution consists of millions of cheap FLWOR
// iterations — each one a cancellation checkpoint.
const longQuery = `for $i in 1 to 3000 for $j in 1 to 3000 where $i + $j = 0 return 1`

// TestKillLongFLWOR starts the long statement, kills it mid-flight and
// checks it terminates promptly with ErrKilled.
func TestKillLongFLWOR(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	ctx := NewExecCtx(tx)

	done := make(chan error, 1)
	go func() {
		_, err := Execute(ctx, longQuery)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it get deep into the loop
	killedAt := time.Now()
	ctx.Kill()
	select {
	case err := <-done:
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("got %v, want ErrKilled", err)
		}
		if lat := time.Since(killedAt); lat > 100*time.Millisecond {
			t.Fatalf("kill took %s, want < 100ms", lat)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("killed statement did not terminate")
	}
	if !ctx.Killed() {
		t.Fatal("Killed() = false after Kill")
	}
}

// TestKillLongScan kills a statement stuck in a stored-node descendant scan
// (the mergeStreams path).
func TestKillLongScan(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true, BufferPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tx0, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx0.LoadXML("cat", strings.NewReader(xmlgen.SectionsString(8, 200, 1))); err != nil {
		t.Fatal(err)
	}
	if err := tx0.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	ctx := NewExecCtx(tx)
	// Quadratic predicate over the scan keeps one statement busy long
	// enough to kill: every //item re-counts all //item descendants.
	src := `count(doc("cat")//item[count(doc("cat")//item) > 0])`
	done := make(chan error, 1)
	go func() {
		_, err := Execute(ctx, src)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	ctx.Kill()
	select {
	case err := <-done:
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("got %v, want ErrKilled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("killed scan did not terminate")
	}
}

// TestKillRacesCompletion hammers the window where KILL lands as the
// statement finishes on its own: both outcomes (clean result, ErrKilled) are
// legal; anything else — another error, a hang, a race report — is not.
func TestKillRacesCompletion(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var killedWins, completeWins atomic.Int64
	for i := 0; i < 60; i++ {
		tx, err := db.BeginReadOnly()
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewExecCtx(tx)
		done := make(chan error, 1)
		go func() {
			_, err := Execute(ctx, `count(for $i in 1 to 400 return $i)`)
			done <- err
		}()
		// No sleep: Kill races the whole execution, from parse to return.
		ctx.Kill()
		select {
		case err := <-done:
			switch {
			case err == nil:
				completeWins.Add(1)
			case errors.Is(err, ErrKilled):
				killedWins.Add(1)
			default:
				t.Fatalf("iteration %d: unexpected error %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: statement hung", i)
		}
		tx.Rollback()
	}
	t.Logf("killed=%d completed=%d", killedWins.Load(), completeWins.Load())
}

// TestKillBeforeExecute: a context killed before the statement starts
// refuses to run it at the first checkpoint.
func TestKillBeforeExecute(t *testing.T) {
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tx, err := db.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	ctx := NewExecCtx(tx)
	ctx.Kill()
	if _, err := Execute(ctx, `for $i in 1 to 10 return $i`); !errors.Is(err, ErrKilled) {
		t.Fatalf("got %v, want ErrKilled", err)
	}
}
