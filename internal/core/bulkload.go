package core

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"sedna/internal/schema"
	"sedna/internal/storage"
	"sedna/internal/wal"
)

// bulkFlushHook, when set, is passed to every bulk loader as its flush
// hook: it runs after each whole-page write, and an error aborts the load.
// Crash-injection tests install it (export_test.go).
var bulkFlushHook func(pagesFlushed uint64) error

// bulkLoadInto streams the XML token stream from r straight into block
// construction for doc (freshly created in this transaction). Token
// handling mirrors LoadInto exactly — same whitespace, namespace,
// top-level and directive rules — so the two paths produce byte-identical
// documents.
func (t *Tx) bulkLoadInto(doc *storage.Doc, r io.Reader) error {
	start := time.Now()
	bl, err := storage.NewBulkLoader(t.Tx, doc)
	if err != nil {
		return err
	}
	if bulkFlushHook != nil {
		bl.SetFlushHook(bulkFlushHook)
	}
	dec := xml.NewDecoder(r)
	dec.Strict = true
	stack := []*storage.BulkNode{bl.Root()}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return parseErr(dec, err)
		}
		switch tk := tok.(type) {
		case xml.StartElement:
			n, err := bl.AppendElement(stack[len(stack)-1], xmlName(tk.Name))
			if err != nil {
				return err
			}
			stack = append(stack, n)
			// Attributes become attribute children of the element.
			for _, a := range tk.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue // namespace declarations are not stored as attributes
				}
				if err := bl.AppendLeaf(n, schema.KindAttribute, xmlName(a.Name), []byte(a.Value)); err != nil {
					return err
				}
			}
		case xml.EndElement:
			if len(stack) == 1 {
				return fmt.Errorf("core: unbalanced end element %s at byte %d", xmlName(tk.Name), dec.InputOffset())
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			s := string(tk)
			if !t.db.opts.KeepWhitespace && strings.TrimSpace(s) == "" {
				continue
			}
			if len(stack) == 1 {
				continue // ignore top-level whitespace/prolog text
			}
			if err := bl.AppendLeaf(stack[len(stack)-1], schema.KindText, "", []byte(s)); err != nil {
				return err
			}
		case xml.Comment:
			if len(stack) == 1 {
				continue
			}
			if err := bl.AppendLeaf(stack[len(stack)-1], schema.KindComment, "", []byte(tk)); err != nil {
				return err
			}
		case xml.ProcInst:
			if len(stack) == 1 {
				continue
			}
			if err := bl.AppendLeaf(stack[len(stack)-1], schema.KindPI, tk.Target, tk.Inst); err != nil {
				return err
			}
		case xml.Directive:
			// DOCTYPE etc. — not stored.
		}
	}
	if len(stack) != 1 {
		return fmt.Errorf("core: unbalanced XML: %d unclosed elements", len(stack)-1)
	}
	stats, err := bl.Finish()
	if err != nil {
		return err
	}
	loadBytes := uint64(dec.InputOffset())
	if err := t.LogRecord(&wal.Record{
		Type: wal.RecBulkLoad, DocID: doc.ID, Name: doc.Name,
		Nodes: stats.Nodes, Blocks: stats.Blocks, Bytes: loadBytes,
	}); err != nil {
		return err
	}
	el := time.Since(start)
	met := t.db.met
	met.Counter("load.bulk_loads").Inc()
	met.Counter("load.nodes").Add(stats.Nodes)
	met.Counter("load.blocks_built").Add(stats.Blocks)
	met.Counter("load.bytes").Add(loadBytes)
	met.Counter("load.pages_flushed").Add(stats.PagesFlushed)
	met.Histogram("load.ns").Observe(el)
	if secs := el.Seconds(); secs > 0 {
		met.Gauge("load.nodes_per_sec").Set(int64(float64(stats.Nodes) / secs))
	}
	return nil
}

// parseErr wraps an XML decoder error with the byte offset (and, when the
// decoder reports one, the line) of the failing token.
func parseErr(dec *xml.Decoder, err error) error {
	var syn *xml.SyntaxError
	if errors.As(err, &syn) {
		return fmt.Errorf("core: parse XML at byte %d (line %d): %w", dec.InputOffset(), syn.Line, err)
	}
	return fmt.Errorf("core: parse XML at byte %d: %w", dec.InputOffset(), err)
}
