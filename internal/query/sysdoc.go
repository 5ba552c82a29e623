package query

import (
	"fmt"
	"strconv"

	"sedna/internal/schema"
)

// System documents: doc("$metrics") and the other names core reserves
// (core.IsSystemName) are not stored. The context's SystemDocs provider
// builds the named document from in-memory engine state each time a
// statement evaluates the doc() call, as constructed nodes, so paths,
// predicates, FLWOR and serialization apply to it unchanged. Building one
// takes no document lock and never touches the descriptive schema or the
// optimizer.

// SystemDocs builds the system document name into b; an unknown name is an
// error.
type SystemDocs func(name string, b *DocBuilder) error

// DocBuilder assembles a system document element by element.
type DocBuilder struct {
	ctx *ExecCtx
	cur *TempNode
}

// Start opens an element under the current one.
func (b *DocBuilder) Start(name string) {
	t := b.ctx.newTempNode(schema.KindElement, name)
	b.cur.append(t)
	b.cur = t
}

// Attr adds an attribute to the open element.
func (b *DocBuilder) Attr(name, value string) {
	t := b.ctx.newTempNode(schema.KindAttribute, name)
	t.Text = value
	b.cur.append(t)
}

// AttrInt adds an integer attribute to the open element.
func (b *DocBuilder) AttrInt(name string, v int64) {
	b.Attr(name, strconv.FormatInt(v, 10))
}

// End closes the open element.
func (b *DocBuilder) End() { b.cur = b.cur.Parent }

// systemDoc builds the system document name and returns its document node.
func (ctx *ExecCtx) systemDoc(name string) ([]Item, error) {
	if ctx.SystemDocs == nil {
		return nil, fmt.Errorf("query: system document %q is served only in a server session", name)
	}
	b := &DocBuilder{ctx: ctx, cur: ctx.newTempNode(schema.KindDocument, "")}
	root := b.cur
	if err := ctx.SystemDocs(name, b); err != nil {
		return nil, err
	}
	return []Item{&TempItem{N: root}}, nil
}
