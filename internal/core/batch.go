package core

import (
	"sort"

	"minuet/internal/dyntx"
	"minuet/internal/wire"
)

// Batched writes. A batch groups many Put/Delete operations into one
// dynamic transaction that commits in as few minitransaction round trips as
// possible:
//
//   - keys are sorted and swept leaf by leaf, so each touched leaf is read,
//     validated, and rewritten once — one OCC validate+apply per leaf-group
//     rather than per key;
//   - the touched leaves are prefetched with one multi-read minitransaction
//     per memnode, issued concurrently (Client.ExecIndependent), so the
//     fetch phase costs roughly one round trip regardless of batch size;
//   - the commit is a single minitransaction; when its writes span several
//     memnodes, the two-phase protocol prepares all of them in parallel.
//
// The whole batch is atomic: every mutation applies, or (on conflict or
// crash) none does. Conflicts with concurrent writers surface as validation
// failures and retry the batch with backoff, like any other operation.
//
// On branching trees (§5) the same sweep targets a writable version: the
// catalog slot is validated instead of the tip objects (injectBranch), leaf
// copies along each touched root-to-leaf path go through the redirect-set
// machinery (markCopiedBranching), and root growth lands in the version's
// catalog slot, the target's root cell, rather than the fixed tip-root
// cell (writeRootLocation).

// BatchOp is one operation in a write batch: a Put of (Key, Val), or a
// Delete of Key when Delete is set.
type BatchOp struct {
	Key    wire.Key
	Val    []byte
	Delete bool
}

// normalizeBatch sorts ops by key and collapses duplicate keys to the last
// occurrence, preserving Put/Put, Put/Delete, and Delete/Put overwrite
// semantics. The input slice is not modified.
func normalizeBatch(ops []BatchOp) []BatchOp {
	last := make(map[string]int, len(ops))
	for i := range ops {
		last[string(ops[i].Key)] = i
	}
	out := make([]BatchOp, 0, len(last))
	for i := range ops {
		if last[string(ops[i].Key)] == i {
			out = append(out, ops[i])
		}
	}
	sort.Slice(out, func(a, b int) bool { return wire.CompareKeys(out[a].Key, out[b].Key) < 0 })
	return out
}

// ApplyBatch applies ops as one atomic batch at the tip, retrying on
// optimistic conflicts with the same loop single-key operations use. On a
// branching tree the batch lands on the mainline tip (the writable version
// ResolveTip finds from the initial snapshot); use ApplyBatchAt to target a
// specific branch.
func (bt *BTree) ApplyBatch(ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	return bt.run(func(t *dyntx.Txn) error { return bt.BatchTxn(t, ops) })
}

// ApplyBatchAt applies ops as one atomic batch to writable version sid of a
// branching tree, retrying on optimistic conflicts. Writing to a version
// that has been branched returns ErrNotWritable, like PutAt.
func (bt *BTree) ApplyBatchAt(sid uint64, ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	return bt.run(func(t *dyntx.Txn) error { return bt.BatchTxnAt(t, sid, ops) })
}

// BatchTxn assembles ops into an existing dynamic transaction. The caller
// owns commit (and retry); ops from several batches or trees may share one
// transaction and commit atomically together. On a branching tree the batch
// targets the mainline tip, like ApplyBatch.
func (bt *BTree) BatchTxn(t *dyntx.Txn, ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	tg, err := bt.injectTip(t)
	if err != nil {
		return err
	}
	return bt.batchTxn(t, tg, normalizeBatch(ops))
}

// BatchTxnAt assembles ops targeting writable version sid into an existing
// dynamic transaction (branching trees only). The caller owns commit.
func (bt *BTree) BatchTxnAt(t *dyntx.Txn, sid uint64, ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	tg, err := bt.injectBranch(t, sid)
	if err != nil {
		return err
	}
	return bt.batchTxn(t, tg, normalizeBatch(ops))
}

// batchTxn applies normalized ops at tg: it prefetches the touched leaves,
// then sweeps the sorted ops leaf by leaf. Each group re-traverses through
// the transaction: dirty reads are shadowed by the write set, and curRoot
// follows a root grown earlier in the same transaction, so a parent (or
// root) rewritten by an earlier group is observed by later groups with no
// network traffic.
func (bt *BTree) batchTxn(t *dyntx.Txn, tg target, ops []BatchOp) error {
	// Best-effort: on any planning hiccup the sweep fetches leaves itself
	// (one round trip each).
	bt.prefetchBatchLeaves(t, tg, ops)
	for len(ops) > 0 {
		n, _, err := bt.editLeaf(t, tg, ops)
		if err != nil {
			return err
		}
		ops = ops[n:]
	}
	return nil
}

// prefetchBatchLeaves plans the leaf for every op with traverse's descent
// stopped at the leaves' parents (proxy cache first, dirty reads on miss,
// branching-mode redirects followed), and fetches all distinct planned
// leaves with one concurrent multi-read minitransaction per memnode,
// injecting them into the read set. On branching trees the fetched leaves
// may themselves carry redirects toward tg's version (their copy lives
// elsewhere), so a few extra rounds chase those copies into the read set
// too. Planning errors abandon the prefetch — the authoritative sweep
// re-traverses and reports them properly.
func (bt *BTree) prefetchBatchLeaves(t *dyntx.Txn, tg target, ops []BatchOp) {
	var refs []dyntx.Ref
	seen := make(map[Ptr]struct{})
	var buf [8]pathEntry
	high := wire.NegInf // high fence of the previous op's planned leaf
	for _, op := range ops {
		if high.CompareKey(op.Key) < 0 {
			continue // same planned leaf as the previous op
		}
		path, err := bt.traverse(t, tg, op.Key, 1, buf[:0])
		if err != nil {
			return
		}
		parent := path[len(path)-1].node
		i := parent.childIndex(op.Key)
		leafPtr := parent.Kids[i]
		_, high = parent.childFences(i)
		if _, dup := seen[leafPtr]; !dup {
			seen[leafPtr] = struct{}{}
			refs = append(refs, refNode(leafPtr))
		}
	}
	// Fetch the planned leaves; on branching trees chase leaf-level
	// redirects with follow-up rounds so the copies the sweep will actually
	// rewrite are prefetched too.
	const maxRedirectRounds = 4
	for round := 0; len(refs) > 0; round++ {
		objs, err := t.ReadBatch(refs)
		if err != nil || !bt.cfg.Branching || round == maxRedirectRounds {
			return
		}
		var next []dyntx.Ref
		for _, o := range objs {
			if !o.Exists {
				continue
			}
			n, err := decodeNode(o.Data)
			if err != nil || len(n.Redirects) == 0 {
				continue
			}
			p, ok, err := bt.bestRedirect(n, tg.sid)
			if err != nil {
				return
			}
			if !ok {
				continue
			}
			if _, dup := seen[p]; !dup {
				seen[p] = struct{}{}
				next = append(next, refNode(p))
			}
		}
		refs = next
	}
}
