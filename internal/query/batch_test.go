package query

import (
	"fmt"
	"strings"
	"testing"

	"sedna/internal/core"
	"sedna/internal/schema"
	"sedna/internal/xmlgen"
)

// forceBatchCap sets the batch capacity for the rest of the test.
func forceBatchCap(t *testing.T, n int) {
	t.Helper()
	old := batchCap
	batchCap = n
	t.Cleanup(func() { batchCap = old })
}

// TestBatchCapacityIdentity re-runs the shared corpus tests — the optimizer
// on and off, the rewriter on and off, and the where-clause shapes with the
// rewriter on against off — with every batch cut to one node and
// to three (so runs, merges and predicates cross a batch boundary at every
// node) and at the default capacity: the corpus must serialize to its
// recorded answers at each.
func TestBatchCapacityIdentity(t *testing.T) {
	for _, capacity := range []int{1, 3, batchCap} {
		t.Run(fmt.Sprint("capacity=", capacity), func(t *testing.T) {
			forceBatchCap(t, capacity)
			t.Run("optimized", TestOptimizedCorpusIdentity)
			t.Run("in-place off", TestInPlaceOffCorpusIdentity)
			t.Run("strings", TestStringValueInterleaved)
			t.Run("rewriter on and off", TestRewrittenAndNaiveAgree)
		})
	}
}

// allocDB holds two Auction documents, the second four times the first.
func allocDB(t *testing.T) *core.Database {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{NoSync: true, BufferPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"small": 150, "large": 600} {
		if _, err := tx.LoadXML(name, strings.NewReader(xmlgen.AuctionString(n, n, 2, 3))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestOperatorAllocations bounds what each batch operator allocates per node:
// the statement runs over a document and over one four times its size, and
// the extra heap allocations are divided by the extra context nodes. A child step, a merged descendant scan and count() allocate per
// batch, not per node (slab chunks, the result slice doubling), and a value
// predicate, one or two child steps deep, compares in place and allocates
// nothing per node either.
func TestOperatorAllocations(t *testing.T) {
	const extra = 600 - 150
	operators := []struct {
		name, path string
		perNode    float64
	}{
		{"child step", `doc("%s")/site/people/person/name`, 0.1},
		{"merged descendant scan", `count(doc("%s")//item)`, 0.1},
		{"count", `count(doc("%s")//person)`, 0.1},
		{"value predicate", `count(doc("%s")//person[profile/age > 40])`, 0.1},
		{"leaf atomization", `count(doc("%s")/site/people/person[name = "nobody"])`, 0.1},
		{"where clause", `count(for $p in doc("%s")/site/people/person where $p/profile/age > 40 return $p)`, 0.1},
	}
	db := allocDB(t)
	for _, op := range operators {
		allocs := func(doc string) float64 {
			src := fmt.Sprintf(op.path, doc)
			run := func() {
				tx, err := db.BeginReadOnly()
				if err != nil {
					t.Fatal(err)
				}
				defer tx.Rollback()
				if _, err := Execute(NewExecCtx(tx), src); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the pool
			return testing.AllocsPerRun(20, run)
		}
		small, large := allocs("small"), allocs("large")
		perNode := (large - small) / extra
		t.Logf("%s: %.0f → %.0f allocations, %.3f per extra node", op.name, small, large, perNode)
		if perNode > op.perNode {
			t.Errorf("%s: %.3f allocations per node (%.0f → %.0f), want ≤ %.1f", op.name, perNode, small, large, op.perNode)
		}
	}
}

// TestLiteralPositionStopsProducer pins the literal positional predicate: it
// selects what the general predicate path selects, and the child producer
// stops at the position instead of building the whole list.
func TestLiteralPositionStopsProducer(t *testing.T) {
	db := allocDB(t)
	pages := func(src string) (uint64, string) {
		tx, err := db.BeginReadOnly()
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Rollback()
		ctx := NewExecCtx(tx)
		res, err := Execute(ctx, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		s, err := res.String()
		if err != nil {
			t.Fatal(err)
		}
		return ctx.Profile.PagesTouched, s
	}
	for _, c := range [][2]string{
		{`doc("large")/site/people/person[7]/name`, `doc("large")/site/people/person[position() = 7]/name`},
		{`doc("large")//person[profile/age > 30][2]/name`, `(doc("large")//person[profile/age > 30])[2]/name`},
		{`doc("large")/site/people/person[601]`, `doc("large")/site/people/person[position() = 601]`},
		{`doc("large")/site/people/person[last()]/name`, `doc("large")/site/people/person[600]/name`},
		{`doc("large")/site/regions/*/item[2]/name`, `doc("large")/site/regions/*/item[position() = 2]/name`},
	} {
		_, got := pages(c[0])
		if _, want := pages(c[1]); got != want {
			t.Errorf("%s = %q, but %s = %q", c[0], got, c[1], want)
		}
	}
	// The person list spans several blocks and person[7] lies in the first: a
	// producer that ran on past it would view every block, as person[600]
	// does. (The statement holds its views, so each block is one view
	// however many batches it fills.)
	doc, _ := db.Catalog().Doc("large")
	el := func(n *schema.Node, name string) *schema.Node { return n.Child(schema.KindElement, name) }
	blocks := uint64(el(el(el(doc.Schema.Root, "site"), "people"), "person").BlockCount)
	if blocks < 4 {
		t.Fatalf("the person list has %d blocks; the test needs several", blocks)
	}
	early, _ := pages(`doc("large")/site/people/person[7]/name`)
	late, _ := pages(`doc("large")/site/people/person[600]/name`)
	if late-early < blocks/2 {
		t.Fatalf("person[7] viewed %d pages, person[600] %d, over a list of %d blocks: the producer did not stop at the position", early, late, blocks)
	}
}

// TestAttributeEscapingRoundTrip loads attribute values holding every
// character XML does not allow literally in one, serializes them from storage
// and from a constructor, and loads the output again: it must be well-formed
// and hold the same values. Values without such characters serialize to the
// bytes they always did.
func TestAttributeEscapingRoundTrip(t *testing.T) {
	const v, w = `x & "y" <z`, "tab\tnl\ncr\rend"
	src := `<r><a v="x &amp; &quot;y&quot; &lt;z" w="tab&#9;nl&#10;cr&#13;end" plain="1.5 'ok' &gt;">t</a></r>`
	db := testDB(t)
	load := func(name, xml string) {
		t.Helper()
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.LoadXML(name, strings.NewReader(xml)); err != nil {
			t.Fatalf("load %s: %v\n%s", name, err, xml)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(doc, path string) {
		t.Helper()
		if got := q(t, db, fmt.Sprintf(`string(doc(%q)%s/@v)`, doc, path)); got != v {
			t.Errorf("%s: @v = %q, want %q", doc, got, v)
		}
		if got := q(t, db, fmt.Sprintf(`string(doc(%q)%s/@w)`, doc, path)); got != w {
			t.Errorf("%s: @w = %q, want %q", doc, got, w)
		}
	}
	load("esc", src)
	check("esc", "/r/a")
	paged := q(t, db, `doc("esc")/r/a`)
	want := `<a v="x &amp; &quot;y&quot; &lt;z" w="tab&#x9;nl&#xA;cr&#xD;end" plain="1.5 'ok' >">t</a>`
	if paged != want {
		t.Fatalf("paged serialization:\n got %s\nwant %s", paged, want)
	}
	load("again", paged)
	check("again", "/a")
	if got := q(t, db, `doc("again")/a`); got != paged {
		t.Fatalf("serialization is not a fixed point of load:\n got %s\nwant %s", got, paged)
	}

	built := q(t, db, `<b v="{doc("esc")/r/a/@v}" w="{doc("esc")/r/a/@w}"/>`)
	load("built", built)
	check("built", "/b")
}
