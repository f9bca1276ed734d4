package core

import (
	"minuet/internal/dyntx"
	"minuet/internal/wire"
)

// KV is one key-value pair returned by scans.
type KV struct {
	Key wire.Key
	Val []byte
}

// leafRange steps through one version's leaves in key order, one leaf per
// step, from the leaf holding next to the first leaf whose high fence
// reaches hi. It needs no sibling pointers: read locates each leaf by an
// independent descent, and the next step starts at the leaf's high fence.
// Every scan, cursor and diff range goes through it; read decides the
// transaction (txnLeaves, snapshotLeaves).
type leafRange struct {
	read func(k wire.Key) (*Node, error)
	next wire.Key
	hi   wire.Fence
	done bool
}

// step reads the next leaf and returns it with [i, j), the indexes of its
// keys in [next, hi).
func (r *leafRange) step() (leaf *Node, i, j int, err error) {
	if leaf, err = r.read(r.next); err != nil {
		return nil, 0, 0, err
	}
	i, _ = leaf.search(r.next)
	j = len(leaf.Keys)
	if leaf.High.Compare(r.hi) > 0 {
		j, _ = leaf.search(r.hi.Key()) // the leaf reaches past hi
	}
	if r.done = leaf.High.Compare(r.hi) >= 0; !r.done {
		r.next = leaf.High.Key()
	}
	return leaf, i, j, nil
}

// txnLeaves returns the leaves of tg in [start, hi), each read inside t:
// on a writable target every leaf joins the read set, so the commit
// validates the whole range.
func (bt *BTree) txnLeaves(t *dyntx.Txn, tg target, start wire.Key, hi wire.Fence) leafRange {
	return leafRange{next: start, hi: hi, read: func(k wire.Key) (*Node, error) {
		return bt.leafAt(t, tg, k)
	}}
}

// snapshotLeaves returns the leaves of snapshot s from start, each read by
// an independent dirty traversal in a retry loop of its own (one round trip
// with a warm proxy cache), so a retry never restarts the whole range.
func (bt *BTree) snapshotLeaves(s Snapshot, start wire.Key) leafRange {
	tg := snapshotTarget(s)
	return leafRange{next: start, hi: wire.PosInf, read: func(k wire.Key) (leaf *Node, err error) {
		err = bt.run(func(t *dyntx.Txn) (e error) {
			leaf, e = bt.leafAt(t, tg, k)
			return e
		})
		return leaf, err
	}}
}

// scan collects up to limit pairs of r in key order. The pairs alias the
// leaf images.
func scan(r leafRange, limit int) ([]KV, error) {
	out := make([]KV, 0, min(limit, 1024))
	for len(out) < limit && !r.done {
		leaf, i, j, err := r.step()
		if err != nil {
			return out, err
		}
		for ; i < j && len(out) < limit; i++ {
			out = append(out, KV{Key: leaf.Keys[i], Val: leaf.Vals[i]})
		}
	}
	return out, nil
}

// ScanSnapshot returns up to limit pairs with key ≥ start from a read-only
// snapshot, in key order. The scan never validates: each leaf is read
// dirtily in its own retry loop (snapshotLeaves) — this is how Minuet runs
// long analytics queries without disturbing the OLTP workload (§4, §6.3).
func (bt *BTree) ScanSnapshot(s Snapshot, start wire.Key, limit int) ([]KV, error) {
	return scan(bt.snapshotLeaves(s, start), limit)
}

// ScanTipTxn reads up to limit pairs with key ≥ start from the tip inside an
// existing transaction. Every leaf joins the read set, so the commit
// validates the entire range — with concurrent updates anywhere in the
// range, the transaction aborts. This is precisely why the paper executes
// long scans against snapshots instead ("these long scans may never
// commit", §6.3); the method exists for short serializable ranges and to
// demonstrate that behaviour. The pairs are copied out of the transaction's
// images (see GetTxn).
func (bt *BTree) ScanTipTxn(t *dyntx.Txn, start wire.Key, limit int) ([]KV, error) {
	tg, err := bt.injectTip(t)
	if err != nil {
		return nil, err
	}
	out, err := scan(bt.txnLeaves(t, tg, start, wire.PosInf), limit)
	if err != nil {
		return nil, err
	}
	copyOut(out)
	return out, nil
}

// copyOut repoints every key and value of kvs at one fresh allocation, so
// the caller may keep or write them without touching a transaction's images.
func copyOut(kvs []KV) {
	size := 0
	for _, kv := range kvs {
		size += len(kv.Key) + len(kv.Val)
	}
	a := make(arena, 0, size)
	for i := range kvs {
		kvs[i].Key, kvs[i].Val = a.copy(kvs[i].Key), a.copy(kvs[i].Val)
	}
}

// ScanTip runs ScanTipTxn as its own strictly serializable transaction. On
// a branching tree the tip is the mainline's current writable version.
func (bt *BTree) ScanTip(start wire.Key, limit int) (out []KV, err error) {
	err = bt.run(func(t *dyntx.Txn) error {
		var e error
		out, e = bt.ScanTipTxn(t, start, limit)
		return e
	})
	return out, err
}
