// Package cdb emulates the commercial main-memory database ("CDB") the
// paper benchmarks against in §6. The paper anonymizes the product, but its
// measured behaviour identifies the architecture — a VoltDB/H-Store-style
// partitioned store:
//
//   - tables are hash-partitioned across servers, with one single-threaded
//     executor per partition ("in order to reduce synchronization overheads,
//     only one thread can access a given partition");
//   - single-key transactions run at one partition and are fast;
//   - multi-partition transactions engage EVERY server and are globally
//     serialized, so their throughput collapses and degrades with scale
//     (Fig 13);
//   - scans engage every server and enforce a per-query memory limit
//     ("CDB was unable to perform long scans due to internal memory
//     limitations");
//   - data is synchronously replicated to one backup per partition.
//
// The emulation reproduces those architectural properties over the same
// simulated network latency Minuet runs on, so head-to-head comparisons
// reflect protocol structure rather than implementation polish.
package cdb

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"minuet/internal/netsim"
)

// Config tunes the emulated cluster.
type Config struct {
	// Partitions is the number of servers (one executor each).
	Partitions int
	// Tables is the number of independently partitioned tables.
	Tables int
	// NetworkLatency is the one-way client↔server latency (matches the
	// Minuet simulation's transport latency).
	NetworkLatency time.Duration
	// Replicate charges one extra round trip per write for synchronous
	// primary-backup replication (the paper replicates CDB once).
	Replicate bool
	// ProcTime models per-statement stored-procedure execution cost inside
	// the single-threaded partition executor; it bounds per-partition
	// throughput the way a real engine's command pipeline does.
	ProcTime time.Duration
	// ScanRowLimit is the per-query memory limit: scans requesting more
	// rows fail, reproducing the paper's observation.
	ScanRowLimit int
}

// FillDefaults populates zero fields.
func (c *Config) FillDefaults() {
	if c.Partitions == 0 {
		c.Partitions = 4
	}
	if c.Tables == 0 {
		c.Tables = 1
	}
	if c.ProcTime == 0 {
		c.ProcTime = 10 * time.Microsecond
	}
	if c.ScanRowLimit == 0 {
		c.ScanRowLimit = 100_000
	}
}

// ErrScanMemoryLimit reports a scan exceeding the per-query row budget.
var ErrScanMemoryLimit = errors.New("cdb: scan exceeds per-query memory limit")

// ErrStopped reports use after Stop.
var ErrStopped = errors.New("cdb: database stopped")

// KV is a key-value pair returned by scans.
type KV struct {
	Key []byte
	Val []byte
}

// table is one partition's shard of a table: a hash map plus a sorted key
// index for range scans.
type table struct {
	m    map[string][]byte
	keys []string // sorted
}

func newTable() *table { return &table{m: make(map[string][]byte)} }

func (t *table) upsert(k string, v []byte) {
	if _, ok := t.m[k]; !ok {
		i := sort.SearchStrings(t.keys, k)
		t.keys = append(t.keys, "")
		copy(t.keys[i+1:], t.keys[i:])
		t.keys[i] = k
	}
	t.m[k] = v
}

func (t *table) scan(start string, limit int) []KV {
	i := sort.SearchStrings(t.keys, start)
	out := make([]KV, 0, min(limit, len(t.keys)-i))
	for ; i < len(t.keys) && len(out) < limit; i++ {
		out = append(out, KV{Key: []byte(t.keys[i]), Val: t.m[t.keys[i]]})
	}
	return out
}

// request is a unit of work for a partition executor.
type request struct {
	fn   func(p *partition)
	done chan struct{}
}

type partition struct {
	id     int
	ch     chan request
	tables []*table
	busy   time.Duration // cumulative executor busy time (for utilization)
}

// DB is the emulated database handle. Safe for concurrent use.
type DB struct {
	cfg   Config
	parts []*partition
	mpMu  sync.Mutex // global multi-partition transaction serializer
	stop  chan struct{}
	wg    sync.WaitGroup

	stopped sync.Once
	dead    bool
	deadMu  sync.RWMutex
}

// New starts an emulated CDB cluster.
func New(cfg Config) *DB {
	cfg.FillDefaults()
	db := &DB{cfg: cfg, stop: make(chan struct{})}
	for i := 0; i < cfg.Partitions; i++ {
		p := &partition{id: i, ch: make(chan request, 1024)}
		for t := 0; t < cfg.Tables; t++ {
			p.tables = append(p.tables, newTable())
		}
		db.parts = append(db.parts, p)
		db.wg.Add(1)
		go db.executor(p)
	}
	return db
}

// Stop shuts the executors down.
func (db *DB) Stop() {
	db.stopped.Do(func() {
		db.deadMu.Lock()
		db.dead = true
		db.deadMu.Unlock()
		close(db.stop)
		db.wg.Wait()
	})
}

// executor is a partition's single thread: requests run strictly serially.
func (db *DB) executor(p *partition) {
	defer db.wg.Done()
	for {
		select {
		case <-db.stop:
			return
		case req := <-p.ch:
			t0 := time.Now()
			if db.cfg.ProcTime > 0 {
				// Spin rather than sleep: timer granularity (~60 µs) would
				// otherwise dwarf the modeled execution cost.
				for end := t0.Add(db.cfg.ProcTime); time.Now().Before(end); {
				}
			}
			req.fn(p)
			p.busy += time.Since(t0)
			close(req.done)
		}
	}
}

func (db *DB) alive() bool {
	db.deadMu.RLock()
	defer db.deadMu.RUnlock()
	return !db.dead
}

// netDelay charges one-way latency with the same precise delay the Minuet
// transport uses, keeping the comparison fair.
func (db *DB) netDelay() {
	netsim.Delay(db.cfg.NetworkLatency)
}

// partitionFor routes a key.
func (db *DB) partitionFor(key []byte) *partition {
	h := fnv.New32a()
	h.Write(key) //nolint:errcheck
	return db.parts[int(h.Sum32())%len(db.parts)]
}

// submit runs fn on one partition, charging a full round trip (plus a
// replication round trip for writes).
func (db *DB) submit(p *partition, write bool, fn func(p *partition)) error {
	if !db.alive() {
		return ErrStopped
	}
	db.netDelay()
	req := request{fn: fn, done: make(chan struct{})}
	select {
	case p.ch <- req:
	case <-db.stop:
		return ErrStopped
	}
	select {
	case <-req.done:
	case <-db.stop:
		return ErrStopped
	}
	if write && db.cfg.Replicate {
		// Synchronous primary→backup apply before the ack.
		db.netDelay()
		db.netDelay()
	}
	db.netDelay()
	return nil
}

// Read fetches a row from a table.
func (db *DB) Read(tbl int, key []byte) (val []byte, ok bool, err error) {
	err = db.submit(db.partitionFor(key), false, func(p *partition) {
		val, ok = p.tables[tbl].m[string(key)]
	})
	return val, ok, err
}

// Upsert inserts or updates a row.
func (db *DB) Upsert(tbl int, key, val []byte) error {
	k := string(key)
	v := bytes.Clone(val)
	return db.submit(db.partitionFor(key), true, func(p *partition) {
		p.tables[tbl].upsert(k, v)
	})
}

// multiPartition runs fn with every partition fenced: the global
// multi-partition lock is held, every executor parks at a barrier, the
// coordinator performs its reads/writes, then releases everyone. This is
// the VoltDB-style behaviour behind Fig 13: one such transaction occupies
// the whole cluster.
func (db *DB) multiPartition(write bool, fn func()) error {
	if !db.alive() {
		return ErrStopped
	}
	db.mpMu.Lock()
	defer db.mpMu.Unlock()

	barrier := make(chan struct{})
	var ready sync.WaitGroup
	dones := make([]chan struct{}, len(db.parts))

	db.netDelay() // fan-out to all partitions happens in parallel
	for i, p := range db.parts {
		ready.Add(1)
		req := request{fn: func(*partition) { ready.Done(); <-barrier }, done: make(chan struct{})}
		dones[i] = req.done
		select {
		case p.ch <- req:
		case <-db.stop:
			close(barrier)
			return ErrStopped
		}
	}
	ready.Wait() // every executor is parked; partition state is private to us

	fn()

	close(barrier)
	for _, d := range dones {
		<-d
	}
	if write && db.cfg.Replicate {
		db.netDelay()
		db.netDelay()
	}
	db.netDelay() // replies
	return nil
}

// MultiRead atomically reads one row from each (table, key) pair.
func (db *DB) MultiRead(tbls []int, keys [][]byte) ([][]byte, error) {
	vals := make([][]byte, len(keys))
	err := db.multiPartition(false, func() {
		for i := range keys {
			p := db.partitionFor(keys[i])
			vals[i] = p.tables[tbls[i]].m[string(keys[i])]
		}
	})
	return vals, err
}

// MultiUpsert atomically writes one row to each (table, key) pair.
func (db *DB) MultiUpsert(tbls []int, keys, vals [][]byte) error {
	return db.multiPartition(true, func() {
		for i := range keys {
			p := db.partitionFor(keys[i])
			p.tables[tbls[i]].upsert(string(keys[i]), bytes.Clone(vals[i]))
		}
	})
}

// Scan returns up to limit rows with key ≥ start, merged across every
// partition (a CDB range query engages all servers). Scans beyond the
// configured row limit fail with ErrScanMemoryLimit.
func (db *DB) Scan(tbl int, start []byte, limit int) ([]KV, error) {
	if limit > db.cfg.ScanRowLimit {
		return nil, fmt.Errorf("%w: %d > %d rows", ErrScanMemoryLimit, limit, db.cfg.ScanRowLimit)
	}
	var parts [][]KV
	err := db.multiPartition(false, func() {
		parts = make([][]KV, len(db.parts))
		for i, p := range db.parts {
			parts[i] = p.tables[tbl].scan(string(start), limit)
		}
	})
	if err != nil {
		return nil, err
	}
	// k-way merge of the sorted per-partition results.
	out := make([]KV, 0, limit)
	idx := make([]int, len(parts))
	for len(out) < limit {
		best := -1
		for i := range parts {
			if idx[i] >= len(parts[i]) {
				continue
			}
			if best == -1 || bytes.Compare(parts[i][idx[i]].Key, parts[best][idx[best]].Key) < 0 {
				best = i
			}
		}
		if best == -1 {
			break
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
	}
	return out, nil
}

// Rows returns the total row count of a table (diagnostics).
func (db *DB) Rows(tbl int) int {
	n := 0
	_ = db.multiPartition(false, func() {
		for _, p := range db.parts {
			n += len(p.tables[tbl].m)
		}
	})
	return n
}
