package query

import (
	"fmt"
	"sort"

	"sedna/internal/index"
	"sedna/internal/lock"
	"sedna/internal/sas"
	"sedna/internal/schema"
	"sedna/internal/storage"
)

// execUpdate runs an XUpdate statement: the first (query) part selects the
// target nodes, the second applies the modification (§5.2). Targets are
// referred to by node handles since descriptor addresses can move during
// the update — exactly the split the paper describes.
func execUpdate(u *Update, e *env) (int, error) {
	if e.ctx.Tx.ReadOnly() {
		return 0, fmt.Errorf("query: update statement in a read-only transaction")
	}
	targets, err := eval(u.Target, e, nil)
	if err != nil {
		return 0, err
	}
	if len(targets) == 0 {
		return 0, nil
	}
	// All targets must be stored nodes; lock their documents exclusively.
	nodes := make([]*NodeItem, 0, len(targets))
	for _, it := range targets {
		n, ok := it.(*NodeItem)
		if !ok {
			return 0, fmt.Errorf("query: update target is not a stored node")
		}
		if err := e.ctx.Tx.LockDocument(n.Doc.Name, lock.Exclusive); err != nil {
			return 0, err
		}
		nodes = append(nodes, n)
	}

	switch u.Kind {
	case UpdInsertInto, UpdInsertPreceding, UpdInsertFollowing:
		count := 0
		for _, n := range nodes {
			src, err := eval(u.Source, e, &focus{item: n, pos: 1, size: 1})
			if err != nil {
				return count, err
			}
			if err := insertItems(e, n, u.Kind, src); err != nil {
				return count, err
			}
			count++
		}
		return count, nil

	case UpdDelete:
		return deleteNodes(e, nodes)

	case UpdReplace, UpdRename:
		count := 0
		for _, n := range nodes {
			// Re-resolve: previous iterations may have moved descriptors.
			cur, err := n.st.byHandle(e, n.D.Handle)
			if err != nil {
				return count, err
			}
			if u.Kind == UpdReplace {
				var src []Item
				if src, err = eval(u.Source, e.bind(u.Var, []Item{cur}), nil); err == nil {
					err = insertItems(e, cur, UpdInsertFollowing, src)
				}
			} else {
				sn := cur.Doc.Schema.ByID(cur.D.SchemaID)
				if sn.Kind != schema.KindElement && sn.Kind != schema.KindAttribute {
					return count, fmt.Errorf("query: rename of a %v node", sn.Kind)
				}
				// Rename re-clusters the subtree under the new name's schema
				// node: copy with the new name, then delete the original.
				var cp *TempNode
				if cp, err = deepCopyStored(e, cur); err == nil {
					cp.Name = u.Name
					err = insertTempAt(e, cur, UpdInsertFollowing, cp)
				}
			}
			if err == nil {
				_, err = deleteNodes(e, []*NodeItem{cur})
			}
			if err != nil {
				return count, err
			}
			count++
		}
		return count, nil

	default:
		return 0, fmt.Errorf("query: unknown update kind %d", u.Kind)
	}
}

// insertItems inserts evaluated source items relative to the target node.
func insertItems(e *env, target *NodeItem, kind UpdateKind, src []Item) error {
	for _, it := range src {
		var t *TempNode
		switch x := it.(type) {
		case *TempItem:
			t = x.N
		case *NodeItem:
			cp, err := deepCopyStored(e, x)
			if err != nil {
				return err
			}
			t = cp
		case *Atomic:
			t = e.ctx.newTempNode(schema.KindText, "")
			t.Text = x.StringValue()
		}
		if err := insertTempAt(e, target, kind, t); err != nil {
			return err
		}
		// Subsequent siblings insert after the one just inserted when the
		// position is "following"/"into"; re-resolve the target descriptor
		// in case it moved.
		var err error
		if target, err = target.st.byHandle(e, target.D.Handle); err != nil {
			return err
		}
	}
	return nil
}

// insertTempAt materializes a constructed tree into the document relative
// to the target: as last child (into), left sibling (preceding) or right
// sibling (following). All newly stored nodes are index-maintained.
func insertTempAt(e *env, target *NodeItem, kind UpdateKind, t *TempNode) error {
	if err := t.expand(e); err != nil {
		return err
	}
	w, ok := e.r.(storage.Writer)
	if !ok {
		return fmt.Errorf("query: transaction cannot write")
	}
	doc := target.Doc
	var parentH, leftH, rightH sas.XPtr
	switch kind {
	case UpdInsertInto:
		parentH = target.D.Handle
	case UpdInsertPreceding:
		parentH = target.D.Parent
		rightH = target.D.Handle
	case UpdInsertFollowing:
		parentH = target.D.Parent
		leftH = target.D.Handle
	}
	if parentH.IsNil() {
		return fmt.Errorf("query: cannot insert siblings of the document node")
	}
	var inserted []sas.XPtr
	var rec func(parent sas.XPtr, left, right sas.XPtr, t *TempNode) (sas.XPtr, error)
	rec = func(parent, left, right sas.XPtr, t *TempNode) (sas.XPtr, error) {
		if err := t.expand(e); err != nil {
			return sas.NilPtr, err
		}
		h, err := storage.InsertNode(w, doc, parent, left, right, t.Kind, t.Name, []byte(t.Text))
		if err != nil {
			return sas.NilPtr, err
		}
		inserted = append(inserted, h)
		last := sas.NilPtr
		for _, c := range t.Children {
			ch, err := rec(h, last, sas.NilPtr, c)
			if err != nil {
				return sas.NilPtr, err
			}
			last = ch
		}
		return h, nil
	}
	if _, err := rec(parentH, leftH, rightH, t); err != nil {
		return err
	}
	return maintainIndexes(e, doc, inserted, true)
}

// deleteNodes removes targets (subtrees) in reverse document order so
// nested targets are handled before their ancestors. Index entries of every
// removed node are deleted first.
func deleteNodes(e *env, nodes []*NodeItem) (int, error) {
	w, ok := e.r.(storage.Writer)
	if !ok {
		return 0, fmt.Errorf("query: transaction cannot write")
	}
	sort.SliceStable(nodes, func(i, j int) bool { return docOrderLess(nodes[j], nodes[i]) })
	count := 0
	for _, n := range nodes {
		// The node may already be gone as part of an earlier subtree.
		cur, err := n.st.byHandle(e, n.D.Handle)
		if err != nil {
			continue
		}
		// Collect handles in the subtree for index maintenance.
		var handles []sas.XPtr
		var collect func(n *NodeItem) error
		collect = func(n *NodeItem) error {
			handles = append(handles, n.D.Handle)
			kids, err := storedChildren(e, n)
			if err != nil {
				return err
			}
			for _, kid := range kids {
				if err := collect(kid.(*NodeItem)); err != nil {
					return err
				}
			}
			return nil
		}
		if err := collect(cur); err != nil {
			return count, err
		}
		if err := maintainIndexes(e, n.Doc, handles, false); err != nil {
			return count, err
		}
		if err := storage.DeleteSubtree(w, n.Doc, n.D.Handle); err != nil {
			return count, err
		}
		count++
	}
	return count, nil
}

// maintainIndexes inserts or deletes index entries for the given node
// handles, matching each node's schema path against every index defined on
// the document.
func maintainIndexes(e *env, doc *storage.Doc, handles []sas.XPtr, insert bool) error {
	metas := e.ctx.Tx.DB().Catalog().IndexesOf(doc.Name)
	if len(metas) == 0 {
		return nil
	}
	w, _ := e.r.(storage.Writer)
	handleSet := make(map[sas.XPtr]struct{}, len(handles))
	for _, h := range handles {
		handleSet[h] = struct{}{}
	}
	src := e.source(doc)
	for _, meta := range metas {
		onSet, bySteps, err := indexPaths(e, doc, meta)
		if err != nil {
			return err
		}
		// Schema nodes the BY path can land on under some ON node: touching
		// one of these changes the key set of its owning ON ancestor.
		byTargets := make(map[uint32]bool)
		for id := range onSet {
			if sn := doc.Schema.ByID(id); sn != nil {
				for _, bn := range resolveStructural(sn, bySteps) {
					byTargets[bn.ID] = true
				}
			}
		}
		tree := &index.Tree{Root: meta.Root}
		changed := false
		for _, h := range handles {
			node, err := src.st.byHandle(e, h)
			if err != nil {
				return err
			}
			d := node.D
			sn := doc.Schema.ByID(d.SchemaID)
			if sn == nil {
				continue
			}
			switch {
			case onSet[sn.ID]:
				keys, err := indexKeysOf(e, node, bySteps, meta.KeyType)
				if err != nil {
					return err
				}
				for _, key := range keys {
					if insert {
						err = tree.Insert(w, key, h)
					} else {
						err = tree.Delete(w, key, h)
					}
					if err != nil {
						return err
					}
					changed = true
				}
			case byTargets[sn.ID]:
				// A BY-path value appeared or vanished under an existing ON
				// node: (un)register this one value against the owner. When
				// the owner itself is in the batch, its branch above already
				// covers every value — doing both would double-count.
				owner, err := onAncestor(e, doc, d, onSet)
				if err != nil {
					return err
				}
				if owner.IsNil() {
					continue
				}
				if _, busy := handleSet[owner]; busy {
					continue
				}
				a, err := atomize(e, node)
				if err != nil {
					return err
				}
				key := index.KeyFor(meta.KeyType, a.StringValue(), a.NumberValue())
				if insert {
					err = tree.Insert(w, key, owner)
				} else {
					err = tree.Delete(w, key, owner)
				}
				if err != nil {
					return err
				}
				changed = true
			}
		}
		if changed && tree.Root != meta.Root {
			meta.Root = tree.Root
			if err := logIndexRoot(e, meta); err != nil {
				return err
			}
		}
	}
	return nil
}

// onAncestor walks a node's parent chain up to the nearest ancestor whose
// schema node belongs to the index's ON set; nil when there is none.
func onAncestor(e *env, doc *storage.Doc, d storage.Desc, onSet map[uint32]bool) (sas.XPtr, error) {
	cur := d.Parent
	for !cur.IsNil() {
		pd, err := storage.DescOf(e.r, cur)
		if err != nil {
			return sas.NilPtr, err
		}
		if onSet[pd.SchemaID] {
			return pd.Handle, nil
		}
		cur = pd.Parent
	}
	return sas.NilPtr, nil
}
