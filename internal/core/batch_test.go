package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"

	"minuet/internal/dyntx"
	"minuet/internal/wire"
)

func batchKey(i int) wire.Key { return wire.Key(fmt.Sprintf("b%05d", i)) }

// TestBatchBasic round-trips a small batch through an empty tree.
func TestBatchBasic(t *testing.T) {
	e := newEnv(t, 2, smallCfg())
	ops := []BatchOp{
		{Key: batchKey(3), Val: []byte("three")},
		{Key: batchKey(1), Val: []byte("one")},
		{Key: batchKey(2), Val: []byte("two")},
	}
	if err := e.bt.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		v, ok, err := e.bt.Get(batchKey(i))
		if err != nil || !ok {
			t.Fatalf("key %d: %v %v", i, ok, err)
		}
		want := []string{"", "one", "two", "three"}[i]
		if string(v) != want {
			t.Fatalf("key %d: got %q want %q", i, v, want)
		}
	}
}

// TestBatchLargeMultiwaySplit loads hundreds of keys into a tiny-fanout
// tree with a single batch — far more than one split per leaf can absorb —
// and checks every key plus all structural invariants.
func TestBatchLargeMultiwaySplit(t *testing.T) {
	e := newEnv(t, 2, smallCfg()) // 4 keys per leaf/inner node
	const n = 500
	ops := make([]BatchOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, BatchOp{Key: batchKey(i), Val: []byte(fmt.Sprintf("v%d", i))})
	}
	rand.New(rand.NewSource(7)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	if err := e.bt.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok, err := e.bt.Get(batchKey(i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d: %q %v %v", i, v, ok, err)
		}
	}
	sid, root := tipRoot(t, e)
	if got := walkInvariants(t, e, root, sid); got != n {
		t.Fatalf("tree holds %d keys, want %d", got, n)
	}
}

// TestBatchLegacyTraversals loads a batch in legacy mode (dirty traversals
// OFF), where traversals fetch node+seq pairs via DirtyReadMany: the sweep
// must observe its own parent rewrites through the write-set shadow, and
// must not inject bogus validations for seq entries it has itself written.
func TestBatchLegacyTraversals(t *testing.T) {
	cfg := smallCfg()
	cfg.DirtyTraversals = false
	e := newEnv(t, 2, cfg)
	const n = 300
	ops := make([]BatchOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, BatchOp{Key: batchKey(i), Val: []byte(fmt.Sprintf("v%d", i))})
	}
	if err := e.bt.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok, err := e.bt.Get(batchKey(i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d: %q %v %v", i, v, ok, err)
		}
	}
	sid, root := tipRoot(t, e)
	if got := walkInvariants(t, e, root, sid); got != n {
		t.Fatalf("tree holds %d keys, want %d", got, n)
	}
}

// TestBatchMixedAndDelete applies updates, deletes, and inserts in one
// batch over an existing tree.
func TestBatchMixedAndDelete(t *testing.T) {
	e := newEnv(t, 2, smallCfg())
	for i := 0; i < 40; i++ {
		if err := e.bt.Put(batchKey(i), []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	var ops []BatchOp
	for i := 0; i < 40; i += 2 {
		ops = append(ops, BatchOp{Key: batchKey(i), Val: []byte("new")})
	}
	for i := 1; i < 40; i += 4 {
		ops = append(ops, BatchOp{Key: batchKey(i), Delete: true})
	}
	ops = append(ops, BatchOp{Key: batchKey(100), Val: []byte("fresh")})
	if err := e.bt.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		v, ok, err := e.bt.Get(batchKey(i))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case i%2 == 0:
			if !ok || string(v) != "new" {
				t.Fatalf("key %d: %q %v", i, v, ok)
			}
		case i%4 == 1:
			if ok {
				t.Fatalf("key %d should be deleted", i)
			}
		default:
			if !ok || string(v) != "old" {
				t.Fatalf("key %d: %q %v", i, v, ok)
			}
		}
	}
	if v, ok, _ := e.bt.Get(batchKey(100)); !ok || string(v) != "fresh" {
		t.Fatalf("inserted key: %q %v", v, ok)
	}
	sid, root := tipRoot(t, e)
	walkInvariants(t, e, root, sid)
}

// TestBatchDuplicateKeysLastWins checks normalization semantics.
func TestBatchDuplicateKeysLastWins(t *testing.T) {
	e := newEnv(t, 1, smallCfg())
	ops := []BatchOp{
		{Key: batchKey(1), Val: []byte("a")},
		{Key: batchKey(1), Val: []byte("b")},
		{Key: batchKey(2), Val: []byte("x")},
		{Key: batchKey(2), Delete: true},
		{Key: batchKey(3), Delete: true},
		{Key: batchKey(3), Val: []byte("resurrected")},
	}
	if err := e.bt.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := e.bt.Get(batchKey(1)); !ok || string(v) != "b" {
		t.Fatalf("key 1: %q %v", v, ok)
	}
	if _, ok, _ := e.bt.Get(batchKey(2)); ok {
		t.Fatal("key 2 should not exist")
	}
	if v, ok, _ := e.bt.Get(batchKey(3)); !ok || string(v) != "resurrected" {
		t.Fatalf("key 3: %q %v", v, ok)
	}
}

// TestBatchRoundTripsAmortized verifies the headline property: a big batch
// issues far fewer memnode round trips per write than single-key puts.
func TestBatchRoundTripsAmortized(t *testing.T) {
	cfg := Config{NodeSize: 4096, MaxLeafKeys: 64, MaxInnerKeys: 64, DirtyTraversals: true}
	e := newEnv(t, 4, cfg)
	// Preload so interior structure exists and caches are warm.
	for i := 0; i < 2000; i++ {
		if err := e.bt.Put(batchKey(i), []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}

	const n = 256
	calls0 := e.tr.Stats().Calls
	for i := 0; i < n; i++ {
		if err := e.bt.Put(batchKey(i*7%2000), []byte("single")); err != nil {
			t.Fatal(err)
		}
	}
	singleCalls := e.tr.Stats().Calls - calls0

	ops := make([]BatchOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, BatchOp{Key: batchKey(i * 7 % 2000), Val: []byte("batched")})
	}
	calls1 := e.tr.Stats().Calls
	if err := e.bt.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	batchCalls := e.tr.Stats().Calls - calls1

	t.Logf("256 single puts: %d calls; one 256-op batch: %d calls", singleCalls, batchCalls)
	if batchCalls*10 > singleCalls {
		t.Fatalf("batch not amortized: %d batch calls vs %d single calls", batchCalls, singleCalls)
	}
	sid, root := tipRoot(t, e)
	walkInvariants(t, e, root, sid)
}

// TestBatchConcurrentSingleWriters runs batches against concurrent
// single-key writers on overlapping keys; both must make progress and the
// final state must be one of the legal outcomes per key.
func TestBatchConcurrentSingleWriters(t *testing.T) {
	e := newEnv(t, 2, smallCfg())
	const n = 60
	for i := 0; i < n; i++ {
		if err := e.bt.Put(batchKey(i), []byte("base")); err != nil {
			t.Fatal(err)
		}
	}
	proxy := e.openProxy(t, 1)
	done := make(chan error, 1)
	go func() {
		for round := 0; round < 20; round++ {
			for i := 0; i < n; i += 3 {
				if err := proxy.Put(batchKey(i), []byte("single")); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	for round := 0; round < 20; round++ {
		ops := make([]BatchOp, 0, n/2)
		for i := 0; i < n; i += 2 {
			ops = append(ops, BatchOp{Key: batchKey(i), Val: []byte("batched")})
		}
		if err := e.bt.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok, err := e.bt.Get(batchKey(i))
		if err != nil || !ok {
			t.Fatalf("key %d: %v %v", i, ok, err)
		}
		s := string(v)
		legal := s == "base" || s == "single" || s == "batched"
		if !legal {
			t.Fatalf("key %d has impossible value %q", i, v)
		}
	}
	sid, root := tipRoot(t, e)
	walkInvariants(t, e, root, sid)
}

// TestBatchTxnIgnoresRecachedParent: a transaction that has rewritten an
// interior node must keep reading its own pending image, even when another
// operation on the same proxy re-caches the node's committed image in
// between. Two batches share one transaction; each splits a different leaf
// under the same root. Between them a Get on the shared handle re-caches
// the root as committed. Were the second batch to rewrite the root from
// that cached image, the first split's separator would be lost, and commit
// would still validate: the root's read entry holds the version observed
// before the first rewrite.
func TestBatchTxnIgnoresRecachedParent(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxInnerKeys = 16 // the root absorbs both splits without splitting
	e := newEnv(t, 1, cfg)
	for i := 0; i < 8; i += 2 {
		if err := e.bt.ApplyBatch([]BatchOp{{Key: batchKey(10 * i), Val: []byte("v")}, {Key: batchKey(10*i + 10), Val: []byte("v")}}); err != nil {
			t.Fatal(err)
		}
	}
	splitOps := func(base int) []BatchOp {
		ops := make([]BatchOp, 0, 4)
		for j := 1; j <= 4; j++ {
			ops = append(ops, BatchOp{Key: batchKey(base + j), Val: []byte("new")})
		}
		return ops
	}
	err := dyntx.Run(e.c, func(tx *dyntx.Txn) error {
		if err := e.bt.BatchTxn(tx, splitOps(0)); err != nil {
			return err
		}
		if _, _, err := e.bt.Get(batchKey(70)); err != nil {
			return err
		}
		return e.bt.BatchTxn(tx, splitOps(70))
	})
	if err != nil {
		t.Fatal(err)
	}
	sid, root := tipRoot(t, e)
	if got, want := walkInvariants(t, e, root, sid), 8+8; got != want {
		t.Fatalf("tree holds %d keys, want %d", got, want)
	}
}

// TestBatchSharedProxyGoroutines: goroutines batch-loading disjoint keys
// through one shared tree handle must not lose each other's separators.
func TestBatchSharedProxyGoroutines(t *testing.T) {
	cfg := Config{NodeSize: 4096, DirtyTraversals: true}
	for _, nodes := range []int{1, 3} {
		e := newEnv(t, nodes, cfg)
		const workers, perWorker, batch = 2, 1500, 64
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for lo := 0; lo < perWorker; lo += batch {
					ops := make([]BatchOp, 0, batch)
					for i := lo; i < lo+batch && i < perWorker; i++ {
						ops = append(ops, BatchOp{Key: hashedKey(w*perWorker + i), Val: val(i)})
					}
					if err := e.bt.ApplyBatch(ops); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%d memnodes: %v", nodes, err)
		}
		sid, root := tipRoot(t, e)
		if got, want := walkInvariants(t, e, root, sid), workers*perWorker; got != want {
			t.Fatalf("%d memnodes: tree holds %d keys, want %d", nodes, got, want)
		}
	}
}

// hashedKey spreads keys over the key space the way YCSB's loader does, so
// concurrent batches interleave within leaves.
func hashedKey(i int) wire.Key {
	h := fnv.New64a()
	fmt.Fprint(h, i)
	return wire.Key(fmt.Sprintf("user%010d", h.Sum64()%10_000_000_000))
}
