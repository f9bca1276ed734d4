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

// ScanSnapshot returns up to limit pairs with key ≥ start from a read-only
// snapshot, in key order. Each leaf is located by an independent dirty
// traversal (one round trip with a warm proxy cache) and stepped using its
// high fence, so the scan needs no sibling pointers and never validates —
// this is how Minuet runs long analytics queries without disturbing the
// OLTP workload (§4, §6.3).
func (bt *BTree) ScanSnapshot(s Snapshot, start wire.Key, limit int) ([]KV, error) {
	out := make([]KV, 0, min(limit, 1024))
	k := start
	for len(out) < limit {
		var leaf *Node
		err := bt.run(func(t *dyntx.Txn) error {
			path, e := bt.traverse(t, s.Root, s.Sid, k, false)
			if e != nil {
				return e
			}
			leaf = path[len(path)-1].node
			return nil
		})
		if err != nil {
			return out, err
		}
		i, _ := leaf.search(k)
		for ; i < len(leaf.Keys) && len(out) < limit; i++ {
			out = append(out, KV{Key: leaf.Keys[i], Val: leaf.Vals[i]})
		}
		if leaf.High.IsPosInf() {
			break
		}
		k = leaf.High.Key()
	}
	return out, nil
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
	return bt.scanTxn(t, tg, start, limit)
}

// scanTxn reads up to limit pairs with key ≥ start from tg inside t, adding
// every leaf to the read set, and copies them out (copyOut).
func (bt *BTree) scanTxn(t *dyntx.Txn, tg target, start wire.Key, limit int) ([]KV, error) {
	out := make([]KV, 0, min(limit, 1024))
	k := start
	for len(out) < limit {
		path, err := bt.traverse(t, bt.curRoot(t, tg), tg.sid, k, true)
		if err != nil {
			return nil, err
		}
		leaf := path[len(path)-1].node
		i, _ := leaf.search(k)
		for ; i < len(leaf.Keys) && len(out) < limit; i++ {
			out = append(out, KV{Key: leaf.Keys[i], Val: leaf.Vals[i]})
		}
		if leaf.High.IsPosInf() {
			break
		}
		k = leaf.High.Key()
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
