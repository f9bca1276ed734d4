package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"minuet/internal/core"
	"minuet/internal/ycsb"
)

// records is the preloaded key count of every workload: a few thousand
// leaves under a few dozen interior nodes, so interior nodes always fit the
// proxy cache and every leaf touch is a round trip.
const records = 200_000

const (
	scanLen     = 10_000 // keys per htap-mem scan
	ingestBatch = 64     // keys per ingest-tcp-wal ApplyBatch
)

// workload is one traffic mix. setup builds a fresh stack and preloads it;
// step runs one closed-loop op for a client; verify checks the outputs once
// the clients have stopped.
type workload interface {
	setup() (*cluster, error)
	step(c *client)
	verify(cl *cluster) error
	// opKind and writeKind name the ops reported as op_* and write_*.
	opKind() kind
	writeKind() kind
	// policy describes durability for the run metadata.
	policy() string
}

var workloadNames = []string{"point-mem", "htap-mem", "ingest-tcp-wal"}

// newWorkload makes a workload's inputs. The seed reaches the workload
// through each client's random source.
func newWorkload(name string, rec *recorder, dir string) (workload, error) {
	switch name {
	case "point-mem":
		keys, order := ycsbKeys(records)
		return &pointMem{rec: rec, keys: keys, order: order}, nil
	case "htap-mem":
		keys, order := ycsbKeys(records)
		return &htapMem{rec: rec, keys: keys, order: order}, nil
	case "ingest-tcp-wal":
		keys := make([][]byte, records)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("key%08d", i))
		}
		return &ingestTCPWAL{rec: rec, dir: dir, keys: keys}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// client is one closed-loop client goroutine and the samples it took.
type client struct {
	id        int
	px        *proxy
	rng       *rand.Rand
	recording bool
	lat       [numOpKinds]offHeap[time.Duration]
	done      offHeap[sample] // every successful op of the window, in completion order
	start     time.Time
	attempted int64
	failed    int64
	keys      int64 // keys read or written by successful ops
	written   int64 // keys written by successful ops
	firstErr  error
}

// do runs one op. fn returns how many keys it read or wrote.
func (c *client) do(k kind, write bool, fn func() (int, error)) error {
	start := c.px.begin()
	t0 := time.Now()
	n, err := fn()
	d := time.Since(t0)
	c.px.end(k, start)
	if !c.recording {
		return err
	}
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
		return err
	}
	c.lat[k].add(d)
	c.done.add(sample{at: time.Since(c.start), keys: int32(n)})
	c.keys += int64(n)
	if write {
		c.written += int64(n)
	}
	return nil
}

// sample is one completed op: when it completed, from the window's start,
// and how many keys it read or wrote.
type sample struct {
	at   time.Duration
	keys int32
}

// checker collects output-check failures from any goroutine.
type checker struct {
	mu   sync.Mutex
	errs []string // guarded by mu
}

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errs) < 10 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errs) == 0 {
		return nil
	}
	return fmt.Errorf("%d check failures, first: %s", len(c.errs), c.errs[0])
}

func u64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// ycsbKeys returns the 14-byte YCSB keys of records 0..n-1 and their indices
// in key order.
func ycsbKeys(n int) (keys [][]byte, order []int) {
	keys = make([][]byte, n)
	order = make([]int, n)
	for i := range keys {
		keys[i] = ycsb.Key(uint64(i))
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return bytes.Compare(keys[order[a]], keys[order[b]]) < 0 })
	return keys, order
}

// scanAll reads the whole tree from a fresh snapshot.
func scanAll(bt *core.BTree, first []byte) ([]core.KV, error) {
	snap, err := bt.CreateSnapshot()
	if err != nil {
		return nil, err
	}
	return bt.ScanSnapshot(snap, first, records+1)
}

// pointMem: YCSB-A (50/50 Get/Put) over zipfian keys, two clients on their
// own proxies, four volatile memnodes on netsim. Record i holds i after
// preload; a Put writes i|putMark, so any read must return one of the two.
type pointMem struct {
	rec   *recorder
	keys  [][]byte
	order []int
	zipf  [2]*ycsb.Zipfian
	chk   checker
}

const putMark = 1 << 63

func (w *pointMem) opKind() kind    { return kindGet }
func (w *pointMem) writeKind() kind { return kindPut }
func (w *pointMem) policy() string  { return "volatile memnodes, no log" }

func (w *pointMem) setup() (*cluster, error) {
	for i := range w.zipf {
		w.zipf[i] = ycsb.NewZipfian(true)
	}
	cl, err := buildMem(4, 2, w.rec)
	if err != nil {
		return nil, err
	}
	return cl, cl.preload(w.keys, func(i int) []byte { return u64(uint64(i)) })
}

func (w *pointMem) step(c *client) {
	i := w.zipf[c.id].Next(c.rng, records)
	key := w.keys[i]
	if c.rng.Intn(2) == 0 {
		c.do(kindGet, false, func() (int, error) {
			v, ok, err := c.px.bt.Get(key)
			if err != nil {
				return 0, err
			}
			if !ok || !w.valid(i, v) {
				w.chk.failf("get record %d: found=%v value=%x", i, ok, v)
			}
			return 1, nil
		})
		return
	}
	c.do(kindPut, true, func() (int, error) { return 1, c.px.bt.Put(key, u64(i|putMark)) })
}

// valid reports whether v is a value this run could have written for
// record i.
func (w *pointMem) valid(i uint64, v []byte) bool {
	if len(v) != 8 {
		return false
	}
	got := binary.LittleEndian.Uint64(v)
	return got == i || got == i|putMark
}

func (w *pointMem) verify(cl *cluster) error {
	kvs, err := scanAll(cl.proxies[0].bt, w.keys[w.order[0]])
	if err != nil {
		return err
	}
	if len(kvs) != records {
		return fmt.Errorf("final scan: %d records, want %d", len(kvs), records)
	}
	for x, kv := range kvs {
		i := uint64(w.order[x])
		if !bytes.Equal(kv.Key, w.keys[i]) {
			return fmt.Errorf("final scan: position %d holds key %q, want %q", x, kv.Key, w.keys[i])
		}
		if !w.valid(i, kv.Val) {
			return fmt.Errorf("final scan: record %d holds %x, want %d or %d", i, kv.Val, i, i|putMark)
		}
	}
	return w.chk.err()
}

// htapMem: the paper's mixed workload. Client 0 updates uniform random
// records; client 1 repeatedly takes a fresh snapshot and scans scanLen keys
// of it from a random start. Every scan must return exactly the next scanLen
// keys in order, and the first snapshot must still read the same after the
// window.
type htapMem struct {
	rec   *recorder
	keys  [][]byte
	order []int
	scs   *core.SCS
	seq   uint64
	chk   checker

	haveFirst   bool
	first       core.Snapshot
	firstStart  int
	firstDigest uint64
}

func (w *htapMem) opKind() kind    { return kindScan }
func (w *htapMem) writeKind() kind { return kindPut }
func (w *htapMem) policy() string  { return "volatile memnodes, no log" }

func (w *htapMem) setup() (*cluster, error) {
	cl, err := buildMem(4, 2, w.rec)
	if err != nil {
		return nil, err
	}
	w.scs = core.NewSCS(cl.proxies[1].bt)
	return cl, cl.preload(w.keys, func(i int) []byte { return u64(uint64(i)) })
}

func digest(kvs []core.KV) uint64 {
	h := fnv.New64a()
	for _, kv := range kvs {
		h.Write(kv.Key)
		h.Write(kv.Val)
	}
	return h.Sum64()
}

func (w *htapMem) step(c *client) {
	if c.id == 0 {
		i := c.rng.Intn(records)
		w.seq++
		v := u64(putMark | w.seq)
		c.do(kindPut, true, func() (int, error) { return 1, c.px.bt.Put(w.keys[i], v) })
		return
	}
	start := c.rng.Intn(records - scanLen + 1)
	c.do(kindScan, false, func() (int, error) {
		var snap core.Snapshot
		err := c.px.sub(kindSnapshot, func() (err error) {
			snap, _, err = w.scs.Create()
			return err
		})
		if err != nil {
			return 0, err
		}
		kvs, err := c.px.bt.ScanSnapshot(snap, w.keys[w.order[start]], scanLen)
		if err != nil {
			return 0, err
		}
		w.checkScan(start, kvs)
		if !w.haveFirst {
			w.haveFirst, w.first, w.firstStart, w.firstDigest = true, snap, start, digest(kvs)
		}
		return len(kvs), nil
	})
}

// checkScan requires kvs to be exactly the scanLen keys from position start
// of the key order: strictly ordered and complete.
func (w *htapMem) checkScan(start int, kvs []core.KV) {
	if len(kvs) != scanLen {
		w.chk.failf("scan from position %d: %d keys, want %d", start, len(kvs), scanLen)
		return
	}
	for x, kv := range kvs {
		if !bytes.Equal(kv.Key, w.keys[w.order[start+x]]) {
			w.chk.failf("scan from position %d: key %d is %q, want %q", start, x, kv.Key, w.keys[w.order[start+x]])
			return
		}
	}
}

func (w *htapMem) verify(cl *cluster) error {
	if !w.haveFirst {
		return fmt.Errorf("no scan completed")
	}
	kvs, err := cl.proxies[1].bt.ScanSnapshot(w.first, w.keys[w.order[w.firstStart]], scanLen)
	if err != nil {
		return err
	}
	if d := digest(kvs); d != w.firstDigest {
		return fmt.Errorf("snapshot %d changed under updates: digest %x, first read %x", w.first.Sid, d, w.firstDigest)
	}
	return w.chk.err()
}

// ingestTCPWAL: two clients write ingestBatch-key ApplyBatches of random
// keys from their own half of an ordered key space, over loopback TCP to
// durable memnodes. A value encodes (client+1)<<56 | batch sequence number;
// preloaded values have a zero top byte. After the window the memnodes are
// recovered from their logs and every key must hold the value of the last
// acknowledged batch that wrote it.
type ingestTCPWAL struct {
	rec  *recorder
	dir  string
	keys [][]byte
	runs int

	seq     [2]uint64
	last    []uint64            // per key: value of the last acknowledged batch
	unacked [2]map[int][]uint64 // per client: values of failed batches, per key
	lastCl  *cluster
}

func (w *ingestTCPWAL) opKind() kind    { return kindBatch }
func (w *ingestTCPWAL) writeKind() kind { return kindBatch }
func (w *ingestTCPWAL) policy() string {
	return "durable memnodes on OSFS: fsync on (group commit), checkpoint every 8 MiB of log"
}

func (w *ingestTCPWAL) setup() (*cluster, error) {
	w.last = make([]uint64, records)
	for i := range w.last {
		w.last[i] = uint64(i)
	}
	w.seq = [2]uint64{}
	w.unacked = [2]map[int][]uint64{{}, {}}
	if w.lastCl != nil {
		w.lastCl.close()
		for _, d := range w.lastCl.dirs {
			if err := os.RemoveAll(d); err != nil {
				return nil, err
			}
		}
	}
	w.runs++
	cl, err := buildTCPWAL(filepath.Join(w.dir, fmt.Sprint("setup-", w.runs)), 2, 2, w.rec)
	if err != nil {
		return nil, err
	}
	w.lastCl = cl
	return cl, cl.preload(w.keys, func(i int) []byte { return u64(uint64(i)) })
}

func (w *ingestTCPWAL) step(c *client) {
	half := records / 2
	base := c.id * half
	w.seq[c.id]++
	code := uint64(c.id+1)<<56 | w.seq[c.id]
	v := u64(code)
	picked := make(map[int]bool, ingestBatch)
	idx := make([]int, 0, ingestBatch)
	for len(idx) < ingestBatch {
		i := base + c.rng.Intn(half)
		if !picked[i] {
			picked[i] = true
			idx = append(idx, i)
		}
	}
	ops := make([]core.BatchOp, len(idx))
	for x, i := range idx {
		ops[x] = core.BatchOp{Key: w.keys[i], Val: v}
	}
	err := c.do(kindBatch, true, func() (int, error) { return len(ops), c.px.bt.ApplyBatch(ops) })
	for _, i := range idx {
		if err == nil {
			w.last[i] = code
		} else {
			w.unacked[c.id][i] = append(w.unacked[c.id][i], code)
		}
	}
}

func (w *ingestTCPWAL) verify(cl *cluster) error {
	cl.close()
	p, closeAll, err := reopenDurable(cl.dirs)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer closeAll()
	kvs, err := scanAll(p.bt, w.keys[0])
	if err != nil {
		return fmt.Errorf("scan after reopen: %w", err)
	}
	if len(kvs) != records {
		return fmt.Errorf("after reopen: %d records, want %d", len(kvs), records)
	}
	for i, kv := range kvs {
		if !bytes.Equal(kv.Key, w.keys[i]) {
			return fmt.Errorf("after reopen: position %d holds key %q, want %q", i, kv.Key, w.keys[i])
		}
		if len(kv.Val) != 8 {
			return fmt.Errorf("after reopen: key %q holds %x, want 8 bytes", kv.Key, kv.Val)
		}
		got := binary.LittleEndian.Uint64(kv.Val)
		if got == w.last[i] {
			continue
		}
		ok := false
		for _, m := range w.unacked[i/(records/2)][i] {
			ok = ok || got == m
		}
		if !ok {
			return fmt.Errorf("after reopen: key %q holds %x, last acknowledged batch wrote %x", kv.Key, kv.Val, u64(w.last[i]))
		}
	}
	return nil
}
