package query

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sedna/internal/core"
)

// roQuery is the goroutine-safe variant of q: it returns errors instead of
// failing the test.
func roQuery(db *core.Database, src string) (string, error) {
	tx, err := db.BeginReadOnly()
	if err != nil {
		return "", err
	}
	defer tx.Rollback()
	res, err := Execute(NewExecCtx(tx), src)
	if err != nil {
		return "", err
	}
	return res.String()
}

// TestResidentMatchesPaged is the resident-mode property test: the whole
// parallel property corpus — descendant fan-out, predicates, FLWORs,
// aggregates, attributes — must serialize byte-identically whether served
// from block chains or from the resident arrays, serial or fanned out.
func TestResidentMatchesPaged(t *testing.T) {
	lowerScanGate(t)
	db := parallelDB(t)
	paged := make([]string, len(parallelPropertyQueries))
	for i, src := range parallelPropertyQueries {
		paged[i] = q(t, db, src)
	}
	db.SetResident(true)
	defer db.SetResident(false)
	for i, src := range parallelPropertyQueries {
		if got := q(t, db, src); got != paged[i] {
			t.Errorf("resident result diverges for %s\n got: %.200s\nwant: %.200s", src, got, paged[i])
		}
		if got := qw(t, db, src, 4); got != paged[i] {
			t.Errorf("resident parallel result diverges for %s\n got: %.200s\nwant: %.200s", src, got, paged[i])
		}
	}
	if db.ResidentCache().Len() == 0 {
		t.Fatal("no document went resident during the corpus run")
	}
	m := db.Metrics().Snapshot()
	if m.Counters["resident.builds"] == 0 || m.Counters["resident.hits"] == 0 {
		t.Fatalf("resident cache unused: builds=%d hits=%d",
			m.Counters["resident.builds"], m.Counters["resident.hits"])
	}
}

// TestStringValueInterleaved pins the string value of stored elements whose
// text is nested and interleaved with child elements, comments and
// processing instructions, against the value the generator defines — on the
// paged backend (one range scan per context element) and the resident one.
func TestStringValueInterleaved(t *testing.T) {
	db := parallelDB(t)
	check := func(backend string) {
		t.Helper()
		got := strings.Split(q(t, db, `for $p in doc("mixed")/m/p[@n] return concat(string($p), "|")`), "|")
		if len(got) != 61 {
			t.Fatalf("%s: %d paragraphs, want 60", backend, len(got)-1)
		}
		for i := 0; i < 60; i++ {
			if strings.TrimSpace(got[i]) != mixedContentValue(i) {
				t.Fatalf("%s: string value of paragraph %d = %q, want %q", backend, i, got[i], mixedContentValue(i))
			}
		}
		if got := q(t, db, `string(doc("mixed")/m/q)`); got != "onlynested" {
			t.Fatalf("%s: nested same-name elements: %q", backend, got)
		}
		if got := q(t, db, `count(doc("mixed")/m/p[. = ""])`); got != "9" {
			t.Fatalf("%s: empty paragraphs: %s, want 9", backend, got)
		}
	}
	check("paged")
	db.SetResident(true)
	defer db.SetResident(false)
	check("resident")
	if !db.ResidentCache().Contains("mixed") {
		t.Fatal("mixed did not go resident")
	}
}

// stopGateClock stops the resident cache's clock: builds then take no time,
// so the admission gate admits the rebuild right after a commit instead of
// serving the read paged (which would turn a resident-vs-paged comparison
// into paged-vs-paged).
func stopGateClock(db *core.Database) {
	epoch := time.Now()
	db.ResidentCache().SetClockForTesting(func() time.Time { return epoch })
}

func residentBuilds(db *core.Database) uint64 {
	return db.Metrics().Snapshot().Counters["resident.builds"]
}

// TestResidentUpdateInvalidation pins the lifecycle: an update drops the
// cached representation, and the rebuilt one is byte-identical to paged
// access of the new content.
func TestResidentUpdateInvalidation(t *testing.T) {
	db := testDB(t)
	db.SetResident(true)
	defer db.SetResident(false)
	stopGateClock(db)
	checks := []string{
		`doc("lib")/library/book/title`,
		`count(doc("lib")//author)`,
		`doc("lib")//author[text() = "Codd"]`,
	}
	for _, src := range checks {
		q(t, db, src) // warm the cache
	}
	if !db.ResidentCache().Contains("lib") {
		t.Fatal("lib not resident after warm-up")
	}
	before := db.Metrics().Snapshot().Counters["resident.invalidations"]
	upd(t, db, `UPDATE insert <author>Stonebraker</author> into doc("lib")/library/paper`)
	if db.ResidentCache().Contains("lib") {
		t.Fatal("update did not invalidate the resident copy")
	}
	if after := db.Metrics().Snapshot().Counters["resident.invalidations"]; after <= before {
		t.Fatalf("invalidations counter did not move: %d -> %d", before, after)
	}
	// Results after the rebuild must match paged access byte for byte.
	// Switching the mode off flushes the cache, so every check rebuilds.
	for _, src := range append(checks, `count(doc("lib")//author[text() = "Stonebraker"])`) {
		builds := residentBuilds(db)
		got := q(t, db, src)
		if residentBuilds(db) != builds+1 {
			t.Fatalf("%s was not served from a rebuilt resident copy", src)
		}
		db.SetResident(false)
		want := q(t, db, src)
		db.SetResident(true)
		if got != want {
			t.Errorf("post-update divergence for %s\n got: %s\nwant: %s", src, got, want)
		}
	}
	// A node replacement must also invalidate.
	q(t, db, `string(doc("lib")//publisher)`)
	upd(t, db, `UPDATE replace $p in doc("lib")//publisher with <publisher>MIT Press</publisher>`)
	builds := residentBuilds(db)
	if got := q(t, db, `string(doc("lib")//publisher)`); got != "MIT Press" {
		t.Fatalf("replace served stale resident copy: %q", got)
	}
	if residentBuilds(db) != builds+1 {
		t.Fatal("read after the replace was not served from a rebuilt resident copy")
	}
}

// TestResidentPrefetchSuppression: a statement served entirely resident
// turns chain readahead off for its transaction; a paged statement keeps the
// configured depth.
func TestResidentPrefetchSuppression(t *testing.T) {
	db := testDB(t)
	db.SetPrefetchDepth(6)
	defer db.SetPrefetchDepth(0)
	run := func() int {
		tx, err := db.BeginReadOnly()
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Rollback()
		if _, err := Execute(NewExecCtx(tx), `count(doc("lib")//author)`); err != nil {
			t.Fatal(err)
		}
		return tx.PrefetchDepth()
	}
	if d := run(); d != 6 {
		t.Fatalf("paged statement left prefetch depth %d, want 6", d)
	}
	db.SetResident(true)
	defer db.SetResident(false)
	if d := run(); d != 0 {
		t.Fatalf("resident statement left prefetch depth %d, want 0 (suppressed)", d)
	}
}

// TestResidentExplainProfileStorage pins the plan annotations: EXPLAIN
// predicts the storage backend, PROFILE reports the one actually used.
func TestResidentExplainProfileStorage(t *testing.T) {
	db := testDB(t)
	out := q(t, db, `EXPLAIN doc("lib")//author`)
	if strings.Contains(out, "storage:") {
		t.Errorf("EXPLAIN mentions storage with resident mode off:\n%s", out)
	}
	out = q(t, db, `PROFILE doc("lib")//author`)
	if !strings.Contains(out, "storage=paged") {
		t.Errorf("PROFILE missing storage=paged with resident off:\n%s", out)
	}
	db.SetResident(true)
	defer db.SetResident(false)
	out = q(t, db, `EXPLAIN doc("lib")//author`)
	if !strings.Contains(out, "storage: resident") {
		t.Errorf("EXPLAIN missing storage: resident:\n%s", out)
	}
	if !strings.Contains(out, "storage=resident") {
		t.Errorf("EXPLAIN step missing storage=resident flag:\n%s", out)
	}
	out = q(t, db, `PROFILE doc("lib")//author`)
	if !strings.Contains(out, "storage=resident") {
		t.Errorf("PROFILE missing storage=resident:\n%s", out)
	}
	// An update statement always predicts paged.
	out = q(t, db, `EXPLAIN UPDATE delete doc("lib")//paper`)
	if !strings.Contains(out, "storage: paged") {
		t.Errorf("EXPLAIN of update missing storage: paged:\n%s", out)
	}
}

// TestResidentConcurrentReadsAndUpdates races snapshot readers against
// updates that invalidate and rebuild the resident copy; meant for the
// -race gate. Every read must see a consistent count.
func TestResidentConcurrentReadsAndUpdates(t *testing.T) {
	db := testDB(t)
	db.SetResident(true)
	defer db.SetResident(false)
	const readers, reads, writes = 4, 40, 10
	errs := make(chan error, readers+1)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				got, err := roQuery(db, `count(doc("lib")//author)`)
				if err != nil {
					errs <- err
					return
				}
				if n, err := strconv.Atoi(got); err != nil || n < 5 || n > 5+writes {
					errs <- fmt.Errorf("inconsistent author count %q", got)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			tx, err := db.Begin()
			if err != nil {
				errs <- err
				return
			}
			src := fmt.Sprintf(`UPDATE insert <author>w%d</author> into doc("lib")/library/paper`, i)
			if _, err := Execute(NewExecCtx(tx), src); err != nil {
				tx.Rollback()
				errs <- err
				return
			}
			if err := tx.Commit(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestResidentEvictionChurn gives the cache room for only one of two
// documents and races readers over both: constant build/evict churn must
// never corrupt results. Also meant for the -race gate.
func TestResidentEvictionChurn(t *testing.T) {
	dir := t.TempDir()
	db, err := core.Open(dir, core.Options{NoSync: true, Resident: true})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if _, err := tx.LoadXML(name, strings.NewReader(libraryXML)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	q(t, db, `count(doc("a")//author)`) // warm one doc to measure its footprint
	size := db.ResidentCache().TotalBytes()
	if size == 0 {
		t.Fatal("warm-up did not cache")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = core.Open(dir, core.Options{NoSync: true, Resident: true, ResidentBudget: int64(size + 64)})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := func(name string) string { return q(t, db, `count(doc("`+name+`")//author)`) }
	wantA, wantB := want("a"), want("b")
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			names := []string{"a", "b"}
			for i := 0; i < 30; i++ {
				name := names[(r+i)%2]
				got, err := roQuery(db, `count(doc("`+name+`")//author)`)
				if err != nil {
					errs <- err
					return
				}
				exp := wantA
				if name == "b" {
					exp = wantB
				}
				if got != exp {
					errs <- fmt.Errorf("doc %s: got %q want %q", name, got, exp)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if ev := db.Metrics().Snapshot().Counters["resident.evictions"]; ev == 0 {
		t.Error("no evictions under a one-document budget")
	}
}

// TestResidentDeferredAnnotation: a read whose resident build the cache put
// off is served paged, says so in PROFILE, and counts in resident.deferred
// (not in resident.fallbacks) on every metrics surface.
func TestResidentDeferredAnnotation(t *testing.T) {
	db := testDB(t)
	db.SetResident(true)
	defer db.SetResident(false)
	// The warm-up build "takes" a minute on a clock that ticks a minute per
	// reading; then the clock stops, so the update lands less than a build
	// time before the next read and the gate is closed for it.
	now := time.Now()
	db.ResidentCache().SetClockForTesting(func() time.Time {
		now = now.Add(time.Minute)
		return now
	})
	q(t, db, `count(doc("lib")//author)`)
	stopGateClock(db)
	upd(t, db, `UPDATE insert <author>Gray</author> into doc("lib")/library/paper`)

	out := q(t, db, `PROFILE doc("lib")//author`)
	if !strings.Contains(out, "storage=paged") || !strings.Contains(out, "resident=deferred") {
		t.Errorf("PROFILE of a deferred read lacks storage=paged resident=deferred:\n%s", out)
	}
	snap := db.Metrics().Snapshot()
	if snap.Counters["resident.deferred"] == 0 || snap.Counters["resident.fallbacks"] != 0 {
		t.Fatalf("deferred=%d fallbacks=%d, want >0 / 0", snap.Counters["resident.deferred"], snap.Counters["resident.fallbacks"])
	}
	var prom strings.Builder
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sedna_resident_deferred ", "sedna_resident_fallbacks "} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus exposition lacks %q", want)
		}
	}
	// An un-deferred paged read carries no resident annotation.
	db.SetResident(false)
	if out := q(t, db, `PROFILE doc("lib")//author`); strings.Contains(out, "resident=") {
		t.Errorf("PROFILE with resident mode off mentions resident=:\n%s", out)
	}
}
