package query

// Node batches (DESIGN.md §5 has the whole picture). Stored nodes flow through
// the executor as fixed-size entries (NodeItem) of slabs the statement's
// ExecCtx owns. A producer — a cursor (store.go) — fills a batch, the free
// tail of the slab's current chunk; the step's collector runs the predicates
// over it and moves the survivors to the front;
// the rest of the batch goes back to the slab before the next fill. Chunks
// are never reallocated, so a *NodeItem stays a valid Item for as long as the
// statement's result lives. Evaluations whose value holds no node (a
// predicate, a comparison, an aggregate) bracket themselves with mark/release;
// node sequences that outlive such a bracket (the lazy-clause cache) pin the
// slab first.

import (
	"errors"
	"math"
	"unsafe"

	"sedna/internal/nid"
	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
)

// batchCap is the largest batch (and slab chunk) in entries. A variable so
// tests can force every batch boundary (capacity 1) on small corpora.
var batchCap = 256

// streamPreds: a step with more predicates takes the materialized path.
const streamPreds = 4

// streamCap bounds one merge stream's buffer of decoded, not yet merged
// entries: descendant ranges under one context node are mostly short.
const streamCap = 16

// errStop ends production early: a literal position has matched, or the
// collector has all the nodes it was asked for.
var errStop = errors.New("query: enough nodes")

type slab struct {
	chunks [][]NodeItem // fixed-size chunks, never reallocated
	cur    int          // chunk being filled
	top    int          // entries of chunks[cur] in use
	bytes  []byte       // chunk of the label / child-pointer arena being filled
	gen    int          // byte chunks started
	seqs   []Item       // chunk of the arena short node sequences start in
	sgen   int          // sequence chunks started
	floor  slabMark     // release stops here: entries below are pinned

	// The run the producers are decoding (storage.RunBuffer).
	dst []NodeItem
	n   int
	doc *storage.Doc
}

// slabMark is a slab position: everything allocated after it can be released.
type slabMark struct{ cur, top, gen, nbytes, sgen, nseqs int }

func (m slabMark) before(o slabMark) bool {
	return m.cur < o.cur || m.cur == o.cur && m.top < o.top
}

func (s *slab) mark() slabMark {
	return slabMark{s.cur, s.top, s.gen, len(s.bytes), s.sgen, len(s.seqs)}
}

// maxKeptSlab bounds the bytes of node entries (and of the text buffer) a
// context keeps for its next statement (ExecCtx.Reset): one big scan does not
// pin its slabs in an idle session.
const maxKeptSlab = 256 << 10

// reset empties the slab for the next statement, keeping its first chunks up
// to maxKeptSlab bytes and its current label and sequence chunks. Kept
// entries still hold the last statement's descriptors until they are
// overwritten.
func (s *slab) reset() {
	keep, size := 0, 0
	for keep < len(s.chunks) {
		size += len(s.chunks[keep]) * int(unsafe.Sizeof(NodeItem{}))
		if size > maxKeptSlab {
			break
		}
		keep++
	}
	clear(s.chunks[keep:])
	s.chunks = s.chunks[:keep]
	s.cur, s.top = 0, 0
	clear(s.seqs[:cap(s.seqs)])
	s.bytes, s.seqs = s.bytes[:0], s.seqs[:0]
	s.floor = s.mark()
	s.dst, s.n, s.doc = nil, 0, nil
}

// pin keeps everything allocated so far for the rest of the statement.
func (s *slab) pin() { s.floor = s.mark() }

// release returns the entries and arena bytes allocated since m.
func (s *slab) release(m slabMark) {
	if m.before(s.floor) {
		m = s.floor
	}
	s.cur, s.top = m.cur, m.top
	// When the chunk m was taken in is gone, the current one is all newer.
	if m.gen != s.gen {
		m.nbytes = 0
	}
	if m.sgen != s.sgen {
		m.nseqs = 0
	}
	s.bytes, s.seqs = s.bytes[:m.nbytes], s.seqs[:m.nseqs]
}

// truncate ends a batch that starts at m (a mark taken right after batch()):
// its first keep entries stay allocated (with their arena bytes), the rest are
// returned.
func (s *slab) truncate(m slabMark, keep int) {
	switch {
	case m.before(s.floor): // pinned since: nothing to return
	case keep == 0:
		s.release(m)
	default:
		s.cur, s.top = m.cur, m.top+keep
	}
}

// batch returns the free tail of the current chunk, starting a chunk when it
// is full. Chunks double up to batchCap, so a statement that touches three
// nodes does not pay for 256.
func (s *slab) batch() []NodeItem {
	if s.cur < len(s.chunks) && s.top == len(s.chunks[s.cur]) {
		s.cur, s.top = s.cur+1, 0
	}
	if s.cur == len(s.chunks) {
		size := batchCap
		if n := len(s.chunks); n < 5 && 8<<n < size {
			size = 8 << n
		}
		s.chunks = append(s.chunks, make([]NodeItem, size))
	}
	return s.chunks[s.cur][s.top:]
}

// take allocates up to n contiguous entries.
func (s *slab) take(n int) []NodeItem {
	b := s.batch()
	n = min(n, len(b))
	s.top += n
	return b[:n:n]
}

// NextDesc and Bytes make the slab the storage.RunBuffer of the run being
// decoded into dst.
func (s *slab) NextDesc() *storage.Desc {
	if s.n == len(s.dst) {
		return nil
	}
	it := &s.dst[s.n]
	s.n++
	it.Doc = s.doc
	return &it.D
}

func (s *slab) Bytes(n int) []byte {
	if cap(s.bytes)-len(s.bytes) < n {
		size := 512 << s.gen
		if s.gen > 5 {
			size = 16 << 10
		}
		if size < n {
			size = n
		}
		s.bytes, s.gen = make([]byte, 0, size), s.gen+1
	}
	s.bytes = s.bytes[:len(s.bytes)+n]
	return s.bytes[len(s.bytes)-n : len(s.bytes) : len(s.bytes)]
}

// seq returns an empty node sequence with room for a few items in the arena:
// most steps inside a predicate yield one or two nodes, and their sequences
// are returned with them.
func (s *slab) seq() []Item {
	const room = 4
	if cap(s.seqs)-len(s.seqs) < room {
		size := 64 * room
		if s.sgen < 4 {
			size = room << s.sgen // like the node chunks, start small
		}
		s.seqs, s.sgen = make([]Item, 0, size), s.sgen+1
	}
	n := len(s.seqs)
	s.seqs = s.seqs[:n+room]
	return s.seqs[n : n : n+room]
}

// node allocates one entry for a descriptor read outside a run.
func (e *env) node(doc *storage.Doc, d storage.Desc) *NodeItem {
	it := &e.ctx.nodes.take(1)[0]
	it.Doc, it.D = doc, d
	return it
}

// cursor is an open producer of one document's nodes in document order: a
// position in a block list or sibling chain. The producers in store.go open
// it; fill advances it, and so does collector.pass for a cursor over one
// schema node's list.
type cursor struct {
	doc    *storage.Doc
	at     sas.XPtr // where the next run starts (nil: done)
	link   storage.Link
	parent sas.XPtr     // run ends at another parent's child
	under  *nid.Label   // run ends outside this label's subtree
	sn     *schema.Node // with ListLink: the schema node whose list it follows
}

func (c *cursor) done() bool { return c.at.IsNil() }

// collector is the consumer side of a step: it takes the batches the step's
// producers fill, applies the node test (sibling walks only) and the
// predicates with running positions, and keeps, counts or atomizes what
// passes.
type collector struct {
	e     *env
	preds []Expr
	pos   [streamPreds]int // running position per predicate, within one context node

	filter bool     // sibling walks: the node test is applied here
	test   NodeTest // (a cursor over one schema node needs none)
	attrs  int8     // with filter: 0 non-attributes, 1 attributes, -1 either
	until  sas.XPtr // sibling walks: stop before this node (preceding-sibling)

	discard bool // count only: nodes that pass are not kept
	text    bool // atomize: append the text of nodes that pass to buf
	limit   int  // stop after this many nodes (0: no limit)

	out []Item
	n   int
	buf []byte
}

func (k *collector) full() bool { return k.limit > 0 && k.n >= k.limit }

// positionSkip returns how many of the producer's next nodes the collector
// would reject on position alone: all before N when its first predicate is
// the numeric literal N (0 when there is none, or the collector filters).
func (k *collector) positionSkip() int {
	if len(k.preds) == 0 || k.filter {
		return 0
	}
	lit, ok := k.preds[0].(*Literal)
	if !ok || lit.IsString || lit.Number != math.Trunc(lit.Number) || lit.Number > math.MaxInt32 {
		return 0
	}
	return int(lit.Number) - 1 - k.pos[0]
}

// batched returns the in-place comparison the producer evaluates for a whole
// batch of candidates at once (pass): the first predicate, when it is marked
// and starts at the context item, and the collector neither filters, stops at
// a node nor stops after a count (nil otherwise).
func (k *collector) batched() *inPlaceCmp {
	if len(k.preds) == 0 || k.filter || !k.until.IsNil() || k.limit > 0 {
		return nil
	}
	if b, ok := k.preds[0].(*Binary); ok && b.inPlace != nil && b.inPlace.start == "" {
		return b.inPlace
	}
	return nil
}

// counts reports that k only counts the nodes its one predicate, the batched
// comparison, holds for: the producer decodes none of them, and their order
// does not matter.
func (k *collector) counts() bool {
	return k.discard && len(k.preds) == 1 && k.batched() != nil
}

// take consumes one batch of nodes that passed the predicates before from,
// and returns how many of its entries, moved to its front, must stay
// allocated.
func (k *collector) take(b []NodeItem, from int) (keep int, err error) {
	for i := range b {
		it := &b[i]
		if it.D.Handle == k.until && !k.until.IsNil() {
			return keep, errStop
		}
		if k.filter {
			sn := it.Doc.Schema.ByID(it.D.SchemaID)
			if sn == nil || !matchesSchema(sn, k.test) || k.attrs >= 0 && (sn.Kind == schema.KindAttribute) != (k.attrs == 1) {
				continue
			}
		}
		if keep != i {
			b[keep] = *it
			it = &b[keep]
		}
		kept, err := k.item(it, from)
		if kept {
			keep++
		}
		if err != nil {
			return keep, err
		}
	}
	return keep, nil
}

// item offers one node that passed the predicates before from; kept reports
// that it is now referenced (it was collected, so its slot must stay).
// errStop means the producer can stop.
func (k *collector) item(it *NodeItem, from int) (kept bool, err error) {
	last := false
	for j := from; j < len(k.preds); j++ {
		p := k.preds[j]
		k.pos[j]++
		ok, err := predHolds(p, k.e, it, k.pos[j], 0)
		if err != nil || !ok {
			return false, err
		}
		// A literal position that just matched cannot match again.
		if lit, isLit := p.(*Literal); isLit && !lit.IsString {
			last = true
		}
	}
	k.n++
	switch {
	case k.text:
		if k.buf, err = k.e.text(it, k.buf); err != nil {
			return false, err
		}
	case !k.discard:
		if k.out == nil {
			k.out = k.e.ctx.nodes.seq()
		}
		k.out, kept = append(k.out, it), true
	}
	if last || k.full() {
		return kept, errStop
	}
	return kept, nil
}

// items offers nodes that already passed their predicates.
func (k *collector) items(items []Item) {
	k.n += len(items)
	if !k.discard {
		k.out = append(k.out, items...)
	}
}

// drain runs a cursor to its end through k, a batch at a time. One killed
// check per batch keeps cancellation prompt.
func drain(e *env, c cursor, k *collector) (err error) {
	if cmp, _ := k.inPlace(c); cmp != nil {
		return drainPassing(e, c, k)
	}
	s := &e.ctx.nodes
	for !c.done() {
		if err := e.ctx.checkKilled(); err != nil {
			return err
		}
		b := s.batch()
		m := s.mark()
		var n int
		if n, c, err = e.fill(c, b); err != nil {
			return err
		}
		if err := k.takeBatch(b[:n], m, 0); err != nil {
			return err
		}
	}
	return nil
}

// drainPassing drains c with k's first predicate evaluated by the producer
// (pass), batchCap candidates at a time: only the nodes that pass are
// decoded, for the later predicates, and none when k only counts.
func drainPassing(e *env, c cursor, k *collector) (err error) {
	s := &e.ctx.nodes
	var buf [256]sas.XPtr // batchCap's default; a later predicate may run a walk of its own
	for !c.done() {
		if err := e.ctx.checkKilled(); err != nil {
			return err
		}
		var at []sas.XPtr
		if at, c, err = k.pass(c, batchCap, buf[:0]); err != nil {
			return err
		}
		if k.counts() {
			k.n += len(at)
			continue
		}
		for len(at) > 0 {
			b := s.batch()
			m := s.mark()
			n := min(len(b), len(at))
			if err := e.decode(c.doc, at[:n], b); err != nil {
				return err
			}
			if err := k.takeBatch(b[:n], m, 1); err != nil {
				return err
			}
			at = at[n:]
		}
	}
	return nil
}

// takeBatch hands k a batch of the slab that starts at m, and gives the
// entries k does not keep back to the slab.
func (k *collector) takeBatch(b []NodeItem, m slabMark, from int) error {
	s := &k.e.ctx.nodes
	s.top += len(b)
	keep, err := k.take(b, from)
	s.truncate(m, keep)
	return err
}

// decode decodes the descriptors of doc at the addresses into dst.
func (e *env) decode(doc *storage.Doc, at []sas.XPtr, dst []NodeItem) error {
	for i, p := range at {
		if _, _, err := e.fill(cursor{doc: doc, at: p}, dst[i:i+1]); err != nil {
			return err
		}
	}
	return nil
}

// nodeStream is one label-ordered input of a merge: a live cursor with a
// small buffer of decoded entries.
type nodeStream struct {
	c   cursor
	buf []NodeItem
	pos int
}

// head returns the stream's current entry, refilling the buffer when it is
// used up — with passing, with the nodes k's batched comparison holds for;
// nil at the end.
func (s *nodeStream) head(k *collector, passing bool) (*NodeItem, error) {
	for s.pos == len(s.buf) {
		if s.c.done() {
			return nil, nil
		}
		var at [streamCap]sas.XPtr
		held, n, c, err := at[:0], 0, s.c, error(nil)
		if !passing {
			n, c, err = k.e.fill(c, s.buf[:cap(s.buf)])
		} else if held, c, err = k.pass(c, cap(s.buf), held); err == nil {
			n, err = len(held), k.e.decode(c.doc, held, s.buf[:cap(s.buf)])
		}
		if err != nil {
			return nil, err
		}
		s.buf, s.c, s.pos = s.buf[:n], c, 0
	}
	return &s.buf[s.pos], nil
}

// mergeStreams merges label-ordered streams into document order and hands
// the result to k in batches. It is the executor's main cancellation point
// for long storage scans: one killed check per batch. A count takes the
// streams one after another, unmerged. When the producer evaluates k's
// batched comparison on every stream, the merge compares the nodes that pass
// only.
func mergeStreams(e *env, streams []nodeStream, k *collector) error {
	if len(streams) <= 1 || k.counts() {
		for i := range streams {
			if err := drain(e, streams[i].c, k); err != nil {
				return err
			}
		}
		return nil
	}
	s, scratch := &e.ctx.nodes, &e.ctx.scratch
	sm := scratch.mark()
	defer scratch.release(sm)
	from := 1 // the predicates the streams evaluate
	for i := range streams {
		streams[i].buf = scratch.take(streamCap)[:0]
		if cmp, _ := k.inPlace(streams[i].c); cmp == nil {
			from = 0
		}
	}
	for {
		if err := e.ctx.checkKilled(); err != nil {
			return err
		}
		b, n := s.batch(), 0
		for ; n < len(b); n++ {
			var best *nodeStream
			var bestIt *NodeItem
			for i := range streams {
				it, err := streams[i].head(k, from == 1)
				if err != nil {
					return err
				}
				if it != nil && (best == nil || nid.Compare(it.D.Label, bestIt.D.Label) < 0) {
					best, bestIt = &streams[i], it
				}
			}
			if best == nil {
				break
			}
			b[n] = *bestIt
			best.pos++
		}
		if n == 0 {
			return nil
		}
		// Marked after the fills: the label bytes of entries the streams
		// still buffer stay.
		if err := k.takeBatch(b[:n], s.mark(), from); err != nil {
			return err
		}
	}
}
