package core

import (
	"minuet/internal/dyntx"
	"minuet/internal/wire"
)

// pathEntry records one node visited by a traversal, along with the item
// version observed (needed when the node is later written) and the child
// slot the traversal took. anchor is the location the parent's child slot
// actually holds; it differs from ptr when the traversal followed redirects
// (branching mode) to reach the node, e.g. into a discretionary copy that no
// parent points at directly.
type pathEntry struct {
	ptr      Ptr
	anchor   Ptr
	node     *Node
	version  uint64 // item version observed at the memnode (or via cache)
	childIdx int    // index of the child taken (interior nodes)
}

// loadInner fetches an interior node, serving from the proxy cache when
// possible. In legacy mode (dirty traversals OFF) the node's replicated
// sequence-table entry is fetched alongside it and added to t's read set, so
// that commit validates the whole traversal path exactly as in Aguilera et
// al. — while replication keeps those validations local to the commit's
// memnode.
//
// A node t has already rewritten is never served from the cache: the
// pending image is the only current one, and another goroutine sharing this
// proxy may have re-cached the committed image since the rewrite
// invalidated it. A later leaf group of a batch that rewrote its parent from
// that stale image would drop the earlier group's separators, and commit
// would not notice, because the parent's read entry still holds the version
// observed before the first rewrite.
func (bt *BTree) loadInner(t *dyntx.Txn, p Ptr) (*Node, uint64, error) {
	if _, pending := t.PendingWrite(refNode(p)); !pending && bt.cache != nil {
		if e, ok := bt.cache.get(p); ok {
			if !bt.cfg.DirtyTraversals {
				t.InjectRead(bt.refSeq(p), e.seqVer, nil, e.seqVer != 0)
			}
			return e.node, e.version, nil
		}
	}

	if bt.cfg.DirtyTraversals {
		obj, err := t.DirtyRead(refNode(p))
		if err != nil {
			return nil, 0, err
		}
		if !obj.Exists {
			return nil, 0, dyntx.ErrRetry
		}
		n, err := decodeNode(obj.Data)
		if err != nil {
			return nil, 0, dyntx.ErrRetry
		}
		bt.cacheInner(p, n, obj.Version, 0)
		return n, obj.Version, nil
	}

	// Legacy mode: fetch the node image and its seq-table entry (local
	// replica) in one minitransaction; the entry joins the read set.
	seqRef := bt.refSeq(p)
	// Read the seq entry at the node's owner, which also holds a replica;
	// this keeps the fetch a single-memnode, single-round-trip operation.
	seqRefAtOwner := dyntx.Ref{Ptr: Ptr{Node: p.Node, Addr: seqRef.Ptr.Addr}, Replicated: true}
	objs, err := t.DirtyReadMany([]dyntx.Ref{refNode(p), seqRefAtOwner})
	if err != nil {
		return nil, 0, err
	}
	if !objs[0].Exists {
		return nil, 0, dyntx.ErrRetry
	}
	n, err := decodeNode(objs[0].Data)
	if err != nil {
		return nil, 0, dyntx.ErrRetry
	}
	seqVer := objs[1].Version
	if _, shadowed := t.PendingWrite(seqRef); !shadowed {
		// Don't validate a seq entry this transaction has itself written
		// (the shadowed read reports version 0, which is not the entry's
		// memnode version): the pending blind write supersedes it.
		t.InjectRead(seqRef, seqVer, nil, objs[1].Exists)
	}
	bt.cacheInner(p, n, objs[0].Version, seqVer)
	return n, objs[0].Version, nil
}

// cacheInner keeps a freshly fetched interior node in the proxy cache. Its
// keys are first compacted into one allocation of their own, so the cache
// entry does not pin the fetched image (or the transport frame it arrived
// in). Version 0 marks an image served from the write set, which is never
// cached.
func (bt *BTree) cacheInner(p Ptr, n *Node, version, seqVer uint64) {
	if bt.cache == nil || version == 0 || n.IsLeaf() {
		return
	}
	n.compactKeys()
	bt.cache.put(p, cacheEntry{node: n, version: version, seqVer: seqVer})
}

// loadLeaf fetches a leaf node. Operations on a writable target
// (validate=true) read it transactionally — the read joins the read set and
// piggy-backs validation of the root cell, making the common case a single
// round trip. Reads of a read-only snapshot (validate=false) fetch dirtily
// and rely on fence keys and version checks alone (§4.2).
func (bt *BTree) loadLeaf(t *dyntx.Txn, p Ptr, validate bool) (*Node, uint64, error) {
	var obj dyntx.Obj
	var err error
	if validate {
		obj, err = t.Read(refNode(p))
	} else {
		obj, err = t.DirtyRead(refNode(p))
	}
	if err != nil {
		return nil, 0, err
	}
	if !obj.Exists {
		return nil, 0, dyntx.ErrRetry
	}
	n, err := decodeNode(obj.Data)
	if err != nil {
		return nil, 0, dyntx.ErrRetry
	}
	return n, obj.Version, nil
}

// inVersion applies the per-node version check that makes dirty
// traversals sound: n must belong to snapshot sid's history. On a branching
// tree, where the caller has already followed redirects, n must have been
// created at an ancestor-or-self of sid. On a linear tree it must have been
// created at or before sid and not copied toward sid; a copied node means
// the traversal should be at the copy, whose parents are already updated,
// so the caller retries (§4.2).
func (bt *BTree) inVersion(n *Node, sid uint64) bool {
	if bt.cfg.Branching {
		ok, err := bt.cat.IsAncestorOrSelf(n.Created, sid)
		return err == nil && ok
	}
	return n.Created <= sid && (n.Copied == NoSnap || n.Copied > sid)
}

// bestRedirect returns the deepest (most specific) redirect of n whose
// snapshot is an ancestor-or-self of sid, if any (§5.2).
func (bt *BTree) bestRedirect(n *Node, sid uint64) (Ptr, bool, error) {
	best := -1
	var bestDepth uint32
	for i, r := range n.Redirects {
		ok, err := bt.cat.IsAncestorOrSelf(r.Sid, sid)
		if err != nil {
			return Ptr{}, false, err
		}
		if !ok {
			continue
		}
		e, err := bt.cat.Get(r.Sid)
		if err != nil {
			return Ptr{}, false, err
		}
		if best == -1 || e.Depth > bestDepth {
			best, bestDepth = i, e.Depth
		}
	}
	if best == -1 {
		return Ptr{}, false, nil
	}
	return n.Redirects[best].Ptr, true, nil
}

// followRedirects resolves branching-mode redirects (§5.2): while the node
// carries a redirect whose snapshot is an ancestor-or-self of sid, hop to
// that copy. Among several matches the deepest (most specific) wins.
func (bt *BTree) followRedirects(t *dyntx.Txn, p Ptr, n *Node, ver uint64, sid uint64, validateLeaf bool) (Ptr, *Node, uint64, error) {
	if !bt.cfg.Branching {
		return p, n, ver, nil
	}
	for hops := 0; hops < 64; hops++ {
		tp, ok, err := bt.bestRedirect(n, sid)
		if err != nil {
			return Ptr{}, nil, 0, err
		}
		if !ok {
			return p, n, ver, nil
		}
		p = tp
		if n.Height == 0 {
			n, ver, err = bt.loadLeaf(t, p, validateLeaf)
		} else {
			n, ver, err = bt.loadInner(t, p)
		}
		if err != nil {
			return Ptr{}, nil, 0, err
		}
	}
	return Ptr{}, nil, 0, dyntx.ErrRetry // redirect cycle: torn state, retry
}

// traverse descends from tg's root toward the leaf responsible for k,
// following Fig 5: interior nodes are read dirtily (cache-first), and
// height, version and fence keys are checked at every step. The leaf is
// read transactionally when tg is writable and dirtily when it is a
// snapshot. The descent stops at height stop: 0 reaches the leaf, 1 its
// parent (batch prefetch planning, which fetches leaves itself). It returns
// the visited path appended to path, deepest node last. On any
// inconsistency it invalidates the relevant cache entries and returns
// dyntx.ErrRetry for the optimistic retry loop.
func (bt *BTree) traverse(t *dyntx.Txn, tg target, k wire.Key, stop uint8, path []pathEntry) ([]pathEntry, error) {
	validate := tg.writable()
	// A Minuet tree always has at least two levels, so the root is
	// interior; a leaf here means a stale root pointer.
	anchor := bt.curRoot(t, tg)
	cur, ver, err := bt.loadInner(t, anchor)
	if err != nil {
		return nil, err
	}
	curPtr, cur, ver, err := bt.followRedirects(t, anchor, cur, ver, tg.sid, validate)
	if err != nil {
		return nil, err
	}
	if cur.IsLeaf() || !bt.inVersion(cur, tg.sid) || !cur.inRange(k) {
		bt.invalidateRoot(tg.sid)
		bt.invalidateTraversal(curPtr, nil)
		return nil, dyntx.ErrRetry
	}
	path = append(path, pathEntry{ptr: curPtr, anchor: anchor, node: cur, version: ver})

	for cur.Height > stop {
		i := cur.childIndex(k)
		path[len(path)-1].childIdx = i
		anchor = cur.Kids[i] // what the parent's slot holds, pre-redirect

		var nextPtr Ptr
		var next *Node
		var nver uint64
		if cur.Height == 1 {
			next, nver, err = bt.loadLeaf(t, anchor, validate)
		} else {
			next, nver, err = bt.loadInner(t, anchor)
		}
		if err != nil {
			return nil, err
		}
		nextPtr, next, nver, err = bt.followRedirects(t, anchor, next, nver, tg.sid, validate)
		if err != nil {
			return nil, err
		}
		// Fatal-inconsistency checks (Fig 5 line 15 plus §4.2): height must
		// decrease by exactly one, and the child must pass version and
		// fence checks.
		if next.Height != cur.Height-1 || !bt.inVersion(next, tg.sid) || !next.inRange(k) {
			bt.invalidateTraversal(nextPtr, &path[len(path)-1])
			return nil, dyntx.ErrRetry
		}
		path = append(path, pathEntry{ptr: nextPtr, anchor: anchor, node: next, version: nver})
		cur = next
	}
	return path, nil
}

// leafAt returns the leaf of tg responsible for k.
func (bt *BTree) leafAt(t *dyntx.Txn, tg target, k wire.Key) (*Node, error) {
	var buf [8]pathEntry // only the leaf is kept, so the path stays on the stack
	path, err := bt.traverse(t, tg, k, 0, buf[:0])
	if err != nil {
		return nil, err
	}
	return path[len(path)-1].node, nil
}

// get looks up k in tg. The value aliases the leaf image.
func (bt *BTree) get(t *dyntx.Txn, tg target, k wire.Key) ([]byte, bool, error) {
	leaf, err := bt.leafAt(t, tg, k)
	if err != nil {
		return nil, false, err
	}
	i, ok := leaf.search(k)
	if !ok {
		return nil, false, nil
	}
	return leaf.Vals[i], true, nil
}

// invalidateTraversal drops the cache entries that led to an inconsistent
// read: the offending node and the parent whose stale pointer produced it.
func (bt *BTree) invalidateTraversal(child Ptr, parent *pathEntry) {
	if bt.cache == nil {
		return
	}
	bt.cache.invalidate(child)
	if parent != nil {
		bt.cache.invalidate(parent.ptr)
	}
}
