package core

import (
	"sync"
	"testing"
)

// TestTipOpsFollowMainlineOnBranchingTree is the regression test for plain
// (un-addressed) Put/Get/Remove/ScanTip on branching trees. They used to
// route through the fixed tip-root cell, which catalog-based root updates do
// not maintain — so after the root grew, plain operations read a stale root.
// They must instead resolve the mainline tip through the catalog.
func TestTipOpsFollowMainlineOnBranchingTree(t *testing.T) {
	e := newEnv(t, 2, branchCfg(2))

	// Grow the tree well past one root split via version-addressed writes,
	// which maintain only the catalog slot (not the tip-root cell).
	const n = 60
	for i := 0; i < n; i++ {
		if err := e.bt.PutAt(1, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Plain reads must see every key through the resolved tip.
	for i := 0; i < n; i++ {
		v, ok, err := e.bt.Get(key(i))
		if err != nil || !ok || string(v) != string(val(i)) {
			t.Fatalf("plain Get key %d after catalog root growth: %q %v %v", i, v, ok, err)
		}
	}
	if kvs, err := e.bt.ScanTip(nil, n+10); err != nil || len(kvs) != n {
		t.Fatalf("plain ScanTip: %d keys, %v", len(kvs), err)
	}

	// Plain writes land on the writable tip (still version 1).
	if err := e.bt.Put([]byte("plain"), []byte("tip-write")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := e.bt.GetAt(1, []byte("plain")); err != nil || !ok || string(v) != "tip-write" {
		t.Fatalf("plain Put did not land on version 1: %q %v %v", v, ok, err)
	}

	// Freeze version 1 by branching; the mainline tip becomes version 2.
	br, err := e.bt.CreateBranch(1)
	if err != nil {
		t.Fatal(err)
	}
	if br.Sid != 2 {
		t.Fatalf("first branch sid = %d", br.Sid)
	}

	// Plain operations must now follow the mainline to version 2.
	if err := e.bt.Put(key(0), []byte("after-freeze")); err != nil {
		t.Fatalf("plain Put after freeze: %v", err)
	}
	if v, ok, err := e.bt.GetAt(2, key(0)); err != nil || !ok || string(v) != "after-freeze" {
		t.Fatalf("plain Put did not land on the branch tip: %q %v %v", v, ok, err)
	}
	if v, ok, err := e.bt.GetAt(1, key(0)); err != nil || !ok || string(v) != string(val(0)) {
		t.Fatalf("frozen parent disturbed by plain Put: %q %v %v", v, ok, err)
	}
	if v, ok, err := e.bt.Get(key(0)); err != nil || !ok || string(v) != "after-freeze" {
		t.Fatalf("plain Get did not follow the mainline: %q %v %v", v, ok, err)
	}

	// Plain Remove works against the resolved tip too.
	existed, err := e.bt.Remove(key(1))
	if err != nil || !existed {
		t.Fatalf("plain Remove: existed=%v err=%v", existed, err)
	}
	if _, ok, err := e.bt.GetAt(2, key(1)); err != nil || ok {
		t.Fatalf("Remove did not land on the branch tip: ok=%v err=%v", ok, err)
	}
	if _, ok, err := e.bt.GetAt(1, key(1)); err != nil || !ok {
		t.Fatalf("frozen parent disturbed by plain Remove: ok=%v err=%v", ok, err)
	}

	// The merged tip view: n keys (one removed, one added).
	kvs, err := e.bt.ScanTip(nil, n+10)
	if err != nil || len(kvs) != n {
		t.Fatalf("plain ScanTip after branch: %d keys, %v", len(kvs), err)
	}
}

// TestTipWritesRaceWithBranching: un-addressed Puts and ApplyBatches from
// several goroutines (two sharing a proxy with the brancher, one on a proxy
// of its own) run while another goroutine keeps branching the mainline tip.
// A freeze that lands between a writer's tip resolution and its commit must
// be retried inside the operation: no ErrNotWritable and no give-up may
// reach a caller, and every acknowledged key must be readable at the final
// mainline tip.
func TestTipWritesRaceWithBranching(t *testing.T) {
	e := newEnv(t, 2, branchCfg(2))
	for i := 0; i < 40; i++ {
		mustPut(t, e.bt, i)
	}
	const writers, minRounds, batch, branches = 3, 8, 4, 12
	handles := []*BTree{e.bt, e.bt, e.openProxy(t, e.nodes[1])}
	acked := make([][]int, writers)
	errs := make(chan error, writers+1)
	branched := make(chan struct{})
	go func() {
		defer close(branched)
		for i := 0; i < branches; i++ {
			tip, err := e.bt.ResolveTip(initialSnapID)
			if err == nil {
				_, err = e.bt.CreateBranch(tip)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int, bt *BTree) {
			defer wg.Done()
			// Keep writing until every branch exists, so writes straddle all
			// of the freezes.
			for r := 0; ; r++ {
				if r >= minRounds {
					select {
					case <-branched:
						return
					default:
					}
				}
				base, n := 1000+w*100000+r*batch, 1 // even rounds Put, odd rounds ApplyBatch
				if r%2 == 1 {
					n = batch
				}
				ops := make([]BatchOp, n)
				for j := range ops {
					ops[j] = BatchOp{Key: key(base + j), Val: val(base + j)}
				}
				var err error
				if len(ops) == 1 {
					err = bt.Put(ops[0].Key, ops[0].Val)
				} else {
					err = bt.ApplyBatch(ops)
				}
				if err != nil {
					errs <- err
					return
				}
				for j := range ops {
					acked[w] = append(acked[w], base+j)
				}
			}
		}(w, handles[w])
	}
	wg.Wait()
	<-branched
	close(errs)
	for err := range errs {
		t.Fatalf("caller saw %v", err)
	}

	tip, err := e.bt.ResolveTip(initialSnapID)
	if err != nil || tip != initialSnapID+branches {
		t.Fatalf("mainline tip %d (%v), want %d", tip, err, initialSnapID+branches)
	}
	for w := range acked {
		for _, i := range acked[w] {
			if v, ok, err := e.bt.GetAt(tip, key(i)); err != nil || !ok || string(v) != string(val(i)) {
				t.Fatalf("acknowledged key %d at tip %d: %q %v %v", i, tip, v, ok, err)
			}
		}
	}
}
