package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"minuet/internal/alloc"
	"minuet/internal/catalog"
	"minuet/internal/dyntx"
	"minuet/internal/sinfonia"
	"minuet/internal/space"
	"minuet/internal/wire"
)

// Config tunes a B-tree instance. The zero value plus FillDefaults gives the
// paper's configuration: 4 KiB nodes, dirty traversals on, linear snapshots.
type Config struct {
	// NodeSize is the target encoded node size in bytes (paper: 4 KiB).
	// It determines the allocator block size and, if the fanout fields are
	// zero, the default fanout.
	NodeSize int
	// MaxLeafKeys and MaxInnerKeys bound node fanout; a node splits when it
	// exceeds the bound. Zero derives them from NodeSize assuming the
	// paper's 14-byte keys and 8-byte values.
	MaxLeafKeys  int
	MaxInnerKeys int
	// DirtyTraversals enables Minuet's traversal mode (§3). When false the
	// tree runs in legacy mode: every interior node on the path is
	// validated through the replicated sequence-number table, reproducing
	// the Aguilera et al. system (the Fig 10 baseline).
	DirtyTraversals bool
	// Branching enables writable clones (§5). Snapshot ids then form a
	// version tree recorded in the snapshot catalog.
	Branching bool
	// Beta bounds both the version tree's branching factor and each node's
	// redirect (descendant) set (§5.2). Default 2.
	Beta int
	// CacheEntries bounds the proxy node cache. Default 65536; negative
	// disables caching (ablation).
	CacheEntries int
	// NonBlockingSnapshots disables the blocking minitransaction used to
	// update the replicated tip id (§4.1). Ablation only: snapshot
	// creation then aborts and retries under lock contention like any
	// ordinary minitransaction.
	NonBlockingSnapshots bool
}

// FillDefaults populates zero fields with the paper's defaults.
func (c *Config) FillDefaults() {
	if c.NodeSize == 0 {
		c.NodeSize = 4096
	}
	if c.MaxLeafKeys == 0 {
		c.MaxLeafKeys = max(4, c.NodeSize/32) // ≈128 for 4 KiB nodes, 14 B keys + 8 B values
	}
	if c.MaxInnerKeys == 0 {
		c.MaxInnerKeys = max(4, c.NodeSize/30)
	}
	if c.Beta == 0 {
		c.Beta = 2
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1 << 16
	}
}

// Stats aggregates a tree handle's operation counters.
type Stats struct {
	Ops        int64 // committed B-tree operations
	Retries    int64 // optimistic retries (validation failures, fence aborts)
	Roundtrips int64 // minitransactions issued by this handle's transactions
	CacheHits  int64
	CacheMiss  int64
	Splits     int64
	CopyOnWr   int64 // nodes copied-on-write
	Discretion int64 // discretionary copies (branching mode)
}

// tipState is the proxy's cached copy of the replicated tip snapshot id and
// root location, together with the item versions observed at the local
// replica. Operations inject it into their read sets (§4.1); a failed
// validation invalidates it.
type tipState struct {
	valid   bool
	sid     uint64
	sidVer  uint64
	root    Ptr
	rootVer uint64
}

// BTree is one proxy's handle onto a distributed multiversion B-tree. A
// handle is safe for concurrent use by many goroutines; independent proxies
// each hold their own handle (with private caches) onto the same tree.
type BTree struct {
	idx   int
	cfg   Config
	c     *sinfonia.Client
	al    *alloc.Allocator
	cache *nodeCache
	local sinfonia.NodeID

	tipMu sync.Mutex
	tip   tipState // guarded by tipMu

	cat *catalog.Catalog // branching mode only

	ops        atomic.Int64
	retries    atomic.Int64
	rts        atomic.Int64
	splits     atomic.Int64
	copies     atomic.Int64
	discretion atomic.Int64
}

// ErrTreeExists is returned by Create when the tree is already initialized.
var ErrTreeExists = errors.New("core: tree already exists")

// ErrNotFound is returned by value lookups for absent keys.
var ErrNotFound = errors.New("core: key not found")

// initialSnapID is the snapshot id of a freshly created tree's tip.
const initialSnapID = 1

func ctlPtr(local sinfonia.NodeID, treeIdx int, field sinfonia.Addr) sinfonia.Ptr {
	return sinfonia.Ptr{Node: local, Addr: space.TreeCtlAddr(treeIdx) + field}
}

func encodeU64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

func decodeU64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func encodePtr(p Ptr) []byte {
	var b [12]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(p.Node))
	binary.LittleEndian.PutUint64(b[4:], uint64(p.Addr))
	return b[:]
}

func decodePtr(b []byte) Ptr {
	if len(b) < 12 {
		return Ptr{}
	}
	return Ptr{
		Node: sinfonia.NodeID(int32(binary.LittleEndian.Uint32(b[0:]))),
		Addr: sinfonia.Addr(binary.LittleEndian.Uint64(b[4:])),
	}
}

// Create initializes tree treeIdx in the cluster and returns a handle bound
// to the given proxy-local memnode. The tree starts with two levels (an
// interior root over one empty leaf) so traversals always begin at an
// interior node, as Fig 5 assumes.
func Create(c *sinfonia.Client, al *alloc.Allocator, treeIdx int, local sinfonia.NodeID, cfg Config) (*BTree, error) {
	cfg.FillDefaults()

	leafPtr, err := al.Alloc()
	if err != nil {
		return nil, err
	}
	rootPtr, err := al.Alloc()
	if err != nil {
		return nil, err
	}
	leaf := &Node{Tree: uint16(treeIdx), Height: 0, Created: initialSnapID, Copied: NoSnap, Low: wire.NegInf, High: wire.PosInf}
	root := &Node{Tree: uint16(treeIdx), Height: 1, Created: initialSnapID, Copied: NoSnap, Low: wire.NegInf, High: wire.PosInf, Kids: []Ptr{leafPtr}}

	m := &sinfonia.Minitx{
		Writes: []sinfonia.WriteItem{
			{Node: leafPtr.Node, Addr: leafPtr.Addr, Data: leaf.encode()},
			{Node: rootPtr.Node, Addr: rootPtr.Addr, Data: root.encode()},
		},
	}
	// The control block is replicated on every memnode; guard against
	// double-creation by requiring version 0 of the tip id everywhere.
	for _, n := range c.Nodes() {
		m.Compares = append(m.Compares, sinfonia.CompareItem{
			Node: n, Addr: space.TreeCtlAddr(treeIdx) + space.CtlTipSnapID,
			Kind: sinfonia.CompareVersion, Version: 0,
		})
		m.Writes = append(m.Writes,
			sinfonia.WriteItem{Node: n, Addr: space.TreeCtlAddr(treeIdx) + space.CtlTipSnapID, Data: encodeU64(initialSnapID)},
			sinfonia.WriteItem{Node: n, Addr: space.TreeCtlAddr(treeIdx) + space.CtlTipRoot, Data: encodePtr(rootPtr)},
			sinfonia.WriteItem{Node: n, Addr: space.TreeCtlAddr(treeIdx) + space.CtlNextSnapID, Data: encodeU64(initialSnapID + 1)},
			sinfonia.WriteItem{Node: n, Addr: space.TreeCtlAddr(treeIdx) + space.CtlLowestSnap, Data: encodeU64(initialSnapID)},
		)
		if cfg.Branching {
			m.Writes = append(m.Writes, sinfonia.WriteItem{
				Node: n, Addr: space.CatalogAddr(treeIdx, initialSnapID),
				Data: catalog.Encode(catalog.Entry{Sid: initialSnapID, Root: rootPtr}),
			})
		}
	}
	if _, err := c.Exec(m); err != nil {
		if sinfonia.IsCompareFailed(err) {
			return nil, ErrTreeExists
		}
		return nil, err
	}
	return Open(c, al, treeIdx, local, cfg)
}

// Open returns a proxy's handle onto an existing tree.
func Open(c *sinfonia.Client, al *alloc.Allocator, treeIdx int, local sinfonia.NodeID, cfg Config) (*BTree, error) {
	cfg.FillDefaults()
	bt := &BTree{
		idx:   treeIdx,
		cfg:   cfg,
		c:     c,
		al:    al,
		local: local,
	}
	if cfg.CacheEntries > 0 {
		bt.cache = newNodeCache(cfg.CacheEntries)
	}
	if cfg.Branching {
		bt.cat = catalog.New(c, treeIdx, local)
	}
	// Verify the tree exists.
	res, err := c.Read(ctlPtr(local, treeIdx, space.CtlTipSnapID))
	if err != nil {
		return nil, err
	}
	if !res.Exists {
		return nil, fmt.Errorf("core: tree %d not initialized", treeIdx)
	}
	return bt, nil
}

// Config returns the handle's configuration.
func (bt *BTree) Config() Config { return bt.cfg }

// Catalog returns the tree's catalog view (branching mode only).
func (bt *BTree) Catalog() *catalog.Catalog { return bt.cat }

// Client returns the underlying Sinfonia client.
func (bt *BTree) Client() *sinfonia.Client { return bt.c }

// Stats returns this handle's counters.
func (bt *BTree) Stats() Stats {
	s := Stats{
		Ops:        bt.ops.Load(),
		Retries:    bt.retries.Load(),
		Roundtrips: bt.rts.Load(),
		Splits:     bt.splits.Load(),
		CopyOnWr:   bt.copies.Load(),
		Discretion: bt.discretion.Load(),
	}
	if bt.cache != nil {
		s.CacheHits, s.CacheMiss, _ = bt.cache.stats()
	}
	return s
}

// --- replicated control-object references -------------------------------

func (bt *BTree) refTipID() dyntx.Ref {
	return dyntx.Ref{Ptr: ctlPtr(bt.local, bt.idx, space.CtlTipSnapID), Replicated: true}
}

func (bt *BTree) refTipRoot() dyntx.Ref {
	return dyntx.Ref{Ptr: ctlPtr(bt.local, bt.idx, space.CtlTipRoot), Replicated: true}
}

func (bt *BTree) refNextSnap() dyntx.Ref {
	return dyntx.Ref{Ptr: ctlPtr(bt.local, bt.idx, space.CtlNextSnapID), Replicated: true}
}

func (bt *BTree) refLowestSnap() dyntx.Ref {
	return dyntx.Ref{Ptr: ctlPtr(bt.local, bt.idx, space.CtlLowestSnap), Replicated: true}
}

func refNode(p Ptr) dyntx.Ref { return dyntx.Ref{Ptr: p} }

func (bt *BTree) refSeq(p Ptr) dyntx.Ref {
	return dyntx.Ref{Ptr: sinfonia.Ptr{Node: bt.local, Addr: space.SeqTableAddr(p)}, Replicated: true}
}

// --- tip snapshot cache ---------------------------------------------------

// loadTip returns the cached tip state, fetching it from the local replica
// on a cold or invalidated cache.
func (bt *BTree) loadTip() (tipState, error) {
	bt.tipMu.Lock()
	defer bt.tipMu.Unlock()
	if bt.tip.valid {
		return bt.tip, nil
	}
	res, err := bt.c.Exec(&sinfonia.Minitx{Reads: []sinfonia.ReadItem{
		{Node: bt.local, Addr: space.TreeCtlAddr(bt.idx) + space.CtlTipSnapID},
		{Node: bt.local, Addr: space.TreeCtlAddr(bt.idx) + space.CtlTipRoot},
	}})
	if err != nil {
		return tipState{}, err
	}
	bt.tip = tipState{
		valid:   true,
		sid:     decodeU64(res.Reads[0].Data),
		sidVer:  res.Reads[0].Version,
		root:    decodePtr(res.Reads[1].Data),
		rootVer: res.Reads[1].Version,
	}
	return bt.tip, nil
}

// invalidateTip drops the cached tip state; the next operation refetches it.
func (bt *BTree) invalidateTip() {
	bt.tipMu.Lock()
	bt.tip.valid = false
	bt.tipMu.Unlock()
}

// target is the version an operation reads or writes: snapshot sid, its
// root, and rootRef, the replicated cell that records that root — the fixed
// tip-root cell on a linear tree, sid's catalog slot on a branching one.
// injectTip and injectBranch build a writable target once rootRef (with, on
// a linear tree, the tip id) is in the transaction's read set, so the commit
// validates that the version is still the one written to. A read-only
// snapshot is a target with no root cell (snapshotTarget): nothing about it
// can change, so its reads are dirty and rely on fence keys and version
// checks alone (§4.2).
type target struct {
	sid     uint64
	root    Ptr
	rootRef dyntx.Ref
}

// snapshotTarget returns the target that reads s as a read-only snapshot.
func snapshotTarget(s Snapshot) target { return target{sid: s.Sid, root: s.Root} }

// writable reports whether tg is a writable version whose root cell t
// validates, rather than a read-only snapshot.
func (tg target) writable() bool { return tg.rootRef != dyntx.Ref{} }

// injectTip adds the proxy's cached tip snapshot id and root location to t's
// read set (§4.1) and returns the tip as a target. Every up-to-date read and
// all writes must validate these objects; replication makes the validation
// local to whichever memnode the commit engages.
//
// On a branching tree the fixed tip cells are not maintained — root updates
// live in the snapshot catalog — so the tip is instead resolved by following
// the mainline (first-branch chain) from the initial snapshot, and the
// resolved version's catalog slot joins the read set via injectBranch. The
// caller named no version, so a branch that froze the resolved tip in the
// meantime is not its error: ErrNotWritable comes back wrapped in
// dyntx.ErrRetry, and the next attempt resolves the mainline again (§5.1).
func (bt *BTree) injectTip(t *dyntx.Txn) (target, error) {
	if bt.cfg.Branching {
		tip, err := bt.ResolveTip(initialSnapID)
		if err != nil {
			return target{}, err
		}
		tg, err := bt.injectBranch(t, tip)
		if errors.Is(err, ErrNotWritable) {
			err = fmt.Errorf("%w: %w", dyntx.ErrRetry, err)
		}
		return tg, err
	}
	tip, err := bt.loadTip()
	if err != nil {
		return target{}, err
	}
	t.InjectRead(bt.refTipID(), tip.sidVer, encodeU64(tip.sid), true)
	t.InjectRead(bt.refTipRoot(), tip.rootVer, encodePtr(tip.root), true)
	return target{sid: tip.sid, root: tip.root, rootRef: bt.refTipRoot()}, nil
}

// curRoot returns tg's root as of t's buffered writes, so that a
// transaction which grew the root earlier (writeRootLocation) descends from
// the new one. A snapshot target's zero rootRef is never written, since
// address 0 is never used.
func (bt *BTree) curRoot(t *dyntx.Txn, tg target) Ptr {
	d, ok := t.PendingWrite(tg.rootRef)
	if !ok {
		return tg.root
	}
	if !bt.cfg.Branching {
		return decodePtr(d)
	}
	if e, err := catalog.Decode(d); err == nil {
		return e.Root
	}
	return tg.root
}

// invalidateRoot drops the proxy's cached root of version sid after it was
// found stale or rewritten: the tip cache on a linear tree, sid's catalog
// entry on a branching one.
func (bt *BTree) invalidateRoot(sid uint64) {
	if bt.cfg.Branching {
		bt.cat.Invalidate(sid)
	} else {
		bt.invalidateTip()
	}
}

// handleStale reacts to a validation failure: it invalidates whatever proxy
// state the failed refs correspond to (tip cache, node cache, catalog
// entries) so the retry observes fresh data.
func (bt *BTree) handleStale(err error) {
	var se *dyntx.StaleError
	if !errors.As(err, &se) {
		return
	}
	ctlBase := space.TreeCtlAddr(bt.idx)
	for _, ref := range se.Refs {
		a := ref.Ptr.Addr
		switch {
		case a >= ctlBase && a < ctlBase+space.TreeDirStride:
			bt.invalidateTip()
		case a >= space.CatalogBase && a < space.SeqTableBase:
			if bt.cat != nil {
				bt.cat.Invalidate(uint64((a - space.CatalogAddr(bt.idx, 0)) / space.CatalogStride))
			}
		case a >= space.SeqTableBase:
			// Legacy seq-table entry: recover the node pointer from the
			// address and invalidate just that node's cache entry.
			if bt.cache != nil {
				if p, ok := space.SeqTableAddrInverse(a); ok {
					bt.cache.invalidate(p)
				}
			}
		default:
			if bt.cache != nil {
				bt.cache.invalidate(ref.Ptr)
			}
		}
	}
}

// run executes fn in the optimistic retry loop on behalf of this handle.
func (bt *BTree) run(fn func(t *dyntx.Txn) error) error {
	return RunMulti(bt.c, []*BTree{bt}, fn)
}

// SetNonBlockingSnapshots flips the snapshot-blocking ablation flag on an
// open handle (benchmarks only; see Config.NonBlockingSnapshots).
func SetNonBlockingSnapshots(bt *BTree) { bt.cfg.NonBlockingSnapshots = true }

// RunMulti executes fn as one dynamic transaction spanning several trees
// (the paper's multi-index transactions, §6.2 "Scalability for multi-index
// transactions") in dyntx.Run's retry loop. Every attempt counts toward each
// tree's statistics, and a validation failure invalidates the stale proxy
// state of every involved tree before the retry. All trees must share the
// same Sinfonia client.
func RunMulti(c *sinfonia.Client, trees []*BTree, fn func(t *dyntx.Txn) error) error {
	return dyntx.Run(c, fn, func(t *dyntx.Txn, err error) {
		for _, bt := range trees {
			bt.rts.Add(int64(t.Roundtrips))
			switch {
			case err == nil:
				bt.ops.Add(1)
			case dyntx.Retryable(err):
				bt.retries.Add(1)
				bt.handleStale(err)
			}
		}
	})
}

// allocNodeOn reserves a node block for a write buffered in t, returning it
// to the allocator if the attempt is later discarded.
func (bt *BTree) allocNodeOn(t *dyntx.Txn, node sinfonia.NodeID) (Ptr, error) {
	p, err := bt.al.AllocOn(node)
	if err != nil {
		return Ptr{}, err
	}
	t.OnDiscard(func() { _ = bt.al.Free(p) })
	return p, nil
}

// allocNode is allocNodeOn with round-robin placement.
func (bt *BTree) allocNode(t *dyntx.Txn) (Ptr, error) {
	p, err := bt.al.Alloc()
	if err != nil {
		return Ptr{}, err
	}
	t.OnDiscard(func() { _ = bt.al.Free(p) })
	return p, nil
}
