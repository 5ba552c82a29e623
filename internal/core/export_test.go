package core

import (
	"io"

	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
)

// SetBulkFlushHookForTesting installs (or, with nil, removes) the global
// bulk-load flush hook. Not safe against concurrent loads.
func SetBulkFlushHookForTesting(fn func(pagesFlushed uint64) error) { bulkFlushHook = fn }

// LoadInto streams XML content under an existing node, appending each
// top-level node after the node's last child: the node-at-a-time reference
// the bulk loader is held to (CreateDocument followed by LoadInto at the
// root builds the same document as LoadXML).
func (t *Tx) LoadInto(doc *storage.Doc, parent sas.XPtr, r io.Reader) error {
	_, err := t.loadXML(r, &insertSink{tx: t, doc: doc, stack: []insertFrame{{handle: parent}}})
	return err
}

// insertSink is the node-at-a-time loader: each node is a storage insert
// after its parent's last child.
type insertSink struct {
	tx    *Tx
	doc   *storage.Doc
	stack []insertFrame
}

type insertFrame struct {
	handle sas.XPtr
	last   sas.XPtr // last child inserted under this frame
}

func (s *insertSink) insert(kind schema.NodeKind, name string, text []byte) (sas.XPtr, error) {
	f := &s.stack[len(s.stack)-1]
	h, err := storage.InsertNode(s.tx.Tx, s.doc, f.handle, f.last, sas.NilPtr, kind, name, text)
	if err != nil {
		return sas.NilPtr, err
	}
	f.last = h
	return h, nil
}

func (s *insertSink) element(name string) error {
	h, err := s.insert(schema.KindElement, name, nil)
	if err != nil {
		return err
	}
	s.stack = append(s.stack, insertFrame{handle: h})
	return nil
}

func (s *insertSink) leaf(kind schema.NodeKind, name string, text []byte) error {
	_, err := s.insert(kind, name, text)
	return err
}

func (s *insertSink) end() { s.stack = s.stack[:len(s.stack)-1] }
