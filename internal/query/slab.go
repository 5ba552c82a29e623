package query

// Node batches (DESIGN.md §5 has the whole picture). Stored nodes flow through
// the executor as fixed-size entries (NodeItem) of slabs the statement's
// ExecCtx owns, one slab set per worker fork. A producer — a docStore cursor —
// fills a batch, the free tail of the slab's current chunk; the step's
// collector runs the predicates over it and moves the survivors to the front;
// the rest of the batch goes back to the slab before the next fill. Chunks
// are never reallocated, so a *NodeItem stays a valid Item for as long as the
// statement's result lives. Evaluations whose value holds no node (a
// predicate, a comparison, an aggregate) bracket themselves with mark/release;
// node sequences that outlive such a bracket (the lazy-clause cache) pin the
// slab first.

import (
	"errors"

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

	// The run the paged producers are decoding (storage.RunBuffer).
	dst []NodeItem
	n   int
	src *docSource
}

// slabMark is a slab position: everything allocated after it can be released.
type slabMark struct{ cur, top, gen, nbytes, sgen, nseqs int }

func (m slabMark) before(o slabMark) bool {
	return m.cur < o.cur || m.cur == o.cur && m.top < o.top
}

func (s *slab) mark() slabMark {
	return slabMark{s.cur, s.top, s.gen, len(s.bytes), s.sgen, len(s.seqs)}
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
	it.docSource = s.src
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
func (e *env) node(src *docSource, d storage.Desc) *NodeItem {
	it := &e.ctx.nodes.take(1)[0]
	it.docSource, it.D = src, d
	return it
}

// cursor is an open producer of one document's nodes in document order: a
// position in a block list or sibling chain (paged) or in an index list or
// sibling chain of the structural array (resident). A store opens it; fill
// advances it.
type cursor struct {
	src *docSource

	at     sas.XPtr // paged: where the next run starts (nil: done)
	link   storage.Link
	parent sas.XPtr   // run ends at another parent's child
	under  *nid.Label // run ends outside this label's subtree

	list []int32 // resident: indices still to produce
	sib  int32   // resident: next node of a sibling chain, plus one
}

func (c *cursor) done() bool { return c.at.IsNil() && len(c.list) == 0 && c.sib == 0 }

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

// take consumes one batch and returns how many of its entries, moved to its
// front, must stay allocated.
func (k *collector) take(b []NodeItem) (keep int, err error) {
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
		kept, err := k.item(it)
		if kept {
			keep++
		}
		if err != nil {
			return keep, err
		}
	}
	return keep, nil
}

// item offers one node; kept reports that it is now referenced (it was
// collected, so its slot must stay). errStop means the producer can stop.
func (k *collector) item(it *NodeItem) (kept bool, err error) {
	last := false
	for j, p := range k.preds {
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
		if k.buf, err = it.st.text(k.e, it, k.buf); err != nil {
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
	s := &e.ctx.nodes
	for !c.done() {
		if err := e.ctx.checkKilled(); err != nil {
			return err
		}
		b := s.batch()
		m := s.mark()
		var n int
		if n, c, err = c.src.st.fill(e, c, b); err != nil {
			return err
		}
		s.top += n
		keep, err := k.take(b[:n])
		s.truncate(m, keep)
		if err != nil {
			return err
		}
	}
	return nil
}

// nodeStream is one label-ordered input of a merge: a live cursor with a
// small buffer of decoded entries, or the chunks a parallel worker drained
// its cursor into.
type nodeStream struct {
	c      cursor
	buf    []NodeItem
	pos    int
	chunks [][]NodeItem
}

// head returns the stream's current entry, refilling the buffer when it is
// used up; nil at the end.
func (s *nodeStream) head(e *env) (*NodeItem, error) {
	for s.pos == len(s.buf) {
		switch {
		case len(s.chunks) > 0:
			s.buf, s.chunks, s.pos = s.chunks[0], s.chunks[1:], 0
		case !s.c.done():
			n, c, err := s.c.src.st.fill(e, s.c, s.buf[:cap(s.buf)])
			if err != nil {
				return nil, err
			}
			s.buf, s.c, s.pos = s.buf[:n], c, 0
		default:
			return nil, nil
		}
	}
	return &s.buf[s.pos], nil
}

// mergeStreams merges label-ordered streams into document order and hands
// the result to k in batches. It is the executor's main cancellation point
// for long storage scans: one killed check per batch.
func mergeStreams(e *env, streams []nodeStream, k *collector) error {
	switch {
	case len(streams) == 0:
		return nil
	case len(streams) == 1 && len(streams[0].chunks) == 0:
		return drain(e, streams[0].c, k)
	}
	s, scratch := &e.ctx.nodes, &e.ctx.scratch
	sm := scratch.mark()
	defer scratch.release(sm)
	for i := range streams {
		if len(streams[i].chunks) == 0 {
			streams[i].buf = scratch.take(streamCap)[:0]
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
				it, err := streams[i].head(e)
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
		m := s.mark()
		s.top += n
		keep, err := k.take(b[:n])
		s.truncate(m, keep)
		if err != nil {
			return err
		}
	}
}
