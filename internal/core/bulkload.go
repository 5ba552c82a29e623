package core

import (
	"io"
	"time"

	"sedna/internal/schema"
	"sedna/internal/storage"
	"sedna/internal/wal"
)

// bulkFlushHook, when set, is passed to every bulk loader as its flush
// hook: it runs after each whole-page write, and an error aborts the load.
// Crash-injection tests install it (export_test.go).
var bulkFlushHook func(pagesFlushed uint64) error

// bulkLoadInto streams the XML from r straight into block construction
// for doc (freshly created in this transaction), through the same token
// loop as LoadInto.
func (t *Tx) bulkLoadInto(doc *storage.Doc, r io.Reader) error {
	start := time.Now()
	bl, err := storage.NewBulkLoader(t.Tx, doc)
	if err != nil {
		return err
	}
	if bulkFlushHook != nil {
		bl.SetFlushHook(bulkFlushHook)
	}
	n, err := t.loadXML(r, &bulkSink{bl: bl, stack: []*storage.BulkNode{bl.Root()}})
	if err != nil {
		return err
	}
	stats, err := bl.Finish()
	if err != nil {
		return err
	}
	loadBytes := uint64(n)
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

// bulkSink is the bulk builder: each node is appended to its schema node's
// open block.
type bulkSink struct {
	bl    *storage.BulkLoader
	stack []*storage.BulkNode
}

func (s *bulkSink) element(name string) error {
	n, err := s.bl.AppendElement(s.stack[len(s.stack)-1], name)
	if err != nil {
		return err
	}
	s.stack = append(s.stack, n)
	return nil
}

func (s *bulkSink) leaf(kind schema.NodeKind, name string, text []byte) error {
	return s.bl.AppendLeaf(s.stack[len(s.stack)-1], kind, name, text)
}

func (s *bulkSink) end() { s.stack = s.stack[:len(s.stack)-1] }
