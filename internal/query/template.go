package query

// Prepared statement templates. Of the phases before execution, lexing,
// parsing, static analysis and the optimizing rewriter do not depend on the
// database; the optimizer and the in-place marks do. A session keeps the
// statements it ran through the first four as templates: the source cut into
// the segments between the literals that are still in the rewritten tree,
// which become the template's parameters. A later text that repeats every
// segment byte for byte and has a literal of the same kind in every slot is
// the template's statement with new literal values, so the session rebinds
// them in place and goes straight to the optimizer (DESIGN.md §4, "Prepared
// statement templates").

import (
	"container/list"
	"strings"
)

// templateCap is how many templates a session keeps; the least recently used
// one goes first. It bounds the session's template memory: a workload of
// one-off texts (inserts whose constructor content differs) fills it and
// recurring shapes stay, because a hit makes a template the most recent.
const templateCap = 64

// TemplateCache is a session's bounded cache of statement templates. It is not
// safe for concurrent use: a session runs one statement at a time, which is
// also what lets a template's tree carry each execution's plans without a
// copy.
type TemplateCache struct {
	byKey map[string][]*template // by templateKey of the source
	lru   list.List              // of *template, the most recently used first

	// pending is the last miss, kept until Keep sees its statement.
	pending struct {
		src   string
		st    *Statement
		spans []litSpan
	}
	vals []token // scratch: the literals of the text being matched
}

// template is one kept statement: segs[i] precedes slots[i], and the last
// segment ends the text.
type template struct {
	key   string
	segs  []string
	slots []*Literal
	st    *Statement
	elem  *list.Element
}

// templateKey is the source up to its first string or numeric literal start.
// A text a template matches repeats the template's source up to its first
// slot, so it has the template's key (but where a '.' precedes a numeric slot
// that starts with '.' in one of them: a miss, never a wrong match).
func templateKey(src string) string {
	for i := 0; i < len(src); i++ {
		c := src[i]
		if c == '"' || c == '\'' || isDigit(c) || c == '.' && i+1 < len(src) && isDigit(src[i+1]) {
			return src[:i]
		}
	}
	return src
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Parse returns the statement for src. On a hit it is a kept template's
// statement — already analyzed and rewritten — with its literals rebound to
// src's; otherwise src is parsed afresh, and Keep may make it a template once
// it has been prepared.
func (c *TemplateCache) Parse(src string) (st *Statement, hit bool, err error) {
	c.pending.st, c.pending.spans = nil, nil
	for _, t := range c.byKey[templateKey(src)] {
		if c.match(t, src) {
			c.rebind(t, src)
			c.lru.MoveToFront(t.elem)
			return t.st, true, nil
		}
	}
	st, spans, err := parse(src, true)
	if err != nil {
		return nil, false, err
	}
	c.pending.src, c.pending.st, c.pending.spans = src, st, spans
	return st, false, nil
}

// match reports whether src is t's source with other literals in its slots,
// leaving those literals' tokens in c.vals. The lexer scans each slot from
// the offset the segment before it ends at, so a literal's extent is what
// parsing src would give it; white space that moves a slot is a miss.
func (c *TemplateCache) match(t *template, src string) bool {
	c.vals = c.vals[:0]
	pos := 0
	for i, lit := range t.slots {
		if !strings.HasPrefix(src[pos:], t.segs[i]) {
			return false
		}
		pos += len(t.segs[i])
		l := lexer{src: src, pos: pos}
		want := tokNumber
		if lit.IsString {
			want = tokString
		}
		tok, err := l.scan()
		if err != nil || tok.pos != pos || tok.kind != want {
			return false
		}
		// A string right after the same quote would be read as one string
		// with a doubled quote.
		if lit.IsString && pos > 0 && src[pos-1] == src[pos] {
			return false
		}
		c.vals = append(c.vals, tok)
		pos = tok.end
	}
	return src[pos:] == t.segs[len(t.slots)]
}

// rebind gives t's literals the values match found in src.
func (c *TemplateCache) rebind(t *template, src string) {
	for i, lit := range t.slots {
		switch tok := c.vals[i]; {
		case lit.IsString && lit.String != tok.text:
			lit.String, lit.val = tok.text, []Item{str(tok.text)}
		case !lit.IsString && lit.Number != tok.num:
			lit.Number, lit.val = tok.num, []Item{num(tok.num)}
		}
	}
	t.st.Source = strings.TrimSpace(src)
}

// Keep makes st, the statement of the last miss, a template once it has been
// analyzed and rewritten. EXPLAIN, PROFILE and DDL statements are not kept,
// nor one whose preparation failed.
func (c *TemplateCache) Keep(st *Statement) {
	p := c.pending
	c.pending.st, c.pending.spans = nil, nil
	if st == nil || p.st != st || !st.analyzed || !st.rewritten || st.Query == nil && st.Update == nil {
		return
	}
	// A literal is a parameter only if it is still in the rewritten tree.
	live := make(map[*Literal]bool, len(p.spans))
	for _, x := range st.exprs() {
		walkExpr(*x, func(e Expr) {
			if lit, ok := e.(*Literal); ok {
				live[lit] = true
			}
		})
	}
	t := &template{key: templateKey(p.src), st: st}
	at := 0
	for _, sp := range p.spans {
		if live[sp.lit] {
			t.segs = append(t.segs, p.src[at:sp.start])
			t.slots = append(t.slots, sp.lit)
			at = sp.end
		}
	}
	t.segs = append(t.segs, p.src[at:])
	if c.byKey == nil {
		c.byKey = make(map[string][]*template)
	}
	if c.lru.Len() == templateCap {
		c.evict(c.lru.Back().Value.(*template))
	}
	c.byKey[t.key] = append(c.byKey[t.key], t)
	t.elem = c.lru.PushFront(t)
}

func (c *TemplateCache) evict(t *template) {
	c.lru.Remove(t.elem)
	b := c.byKey[t.key]
	for i := range b {
		if b[i] == t {
			b = append(b[:i], b[i+1:]...)
			break
		}
	}
	if len(b) == 0 {
		delete(c.byKey, t.key)
	} else {
		c.byKey[t.key] = b
	}
}
