package main

import (
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"minuet/internal/alloc"
	"minuet/internal/core"
	"minuet/internal/netsim"
	"minuet/internal/rpcnet"
	"minuet/internal/sinfonia"
	"minuet/internal/wal"
)

// treeConfig is the default node configuration: 4 KiB nodes, dirty
// traversals on, the 65,536-entry proxy node cache.
var treeConfig = core.Config{DirtyTraversals: true}

const (
	nodeSize     = 4096
	allocExtent  = 64
	preloadBatch = 1024
)

// proxy is one client's private stack: its own sinfonia.Client, transport
// wrapper and tree handle. op is the id of the op its goroutine is running
// (0 when idle), which parents every transport span it issues.
type proxy struct {
	op  atomic.Int32
	rec *recorder
	sc  *sinfonia.Client
	bt  *core.BTree
}

func newProxy(t netsim.Transport, nodes []sinfonia.NodeID, rec *recorder) *proxy {
	p := &proxy{rec: rec}
	p.sc = sinfonia.NewClient(&tracedTransport{next: t, rec: rec, op: &p.op}, nodes)
	return p
}

// openTree creates tree 0 (create) or opens it, with local as the proxy's
// own memnode.
func (p *proxy) openTree(local sinfonia.NodeID, create bool) error {
	al := alloc.New(p.sc, nodeSize, allocExtent)
	var err error
	if create {
		p.bt, err = core.Create(p.sc, al, 0, local, treeConfig)
	} else {
		p.bt, err = core.Open(p.sc, al, 0, local, treeConfig)
	}
	return err
}

// begin opens an op span when tracing and returns its start, or -1.
func (p *proxy) begin() int64 {
	if !p.rec.on.Load() {
		return -1
	}
	p.op.Store(p.rec.ops.Add(1))
	return p.rec.now()
}

// end closes the op span begin opened.
func (p *proxy) end(k kind, start int64) {
	if start < 0 {
		return
	}
	p.rec.add(span{start: start, end: p.rec.now(), op: p.op.Load(), node: -1, layer: layerCore, kind: k})
	p.op.Store(0)
}

// sub times fn as a core span inside the current op.
func (p *proxy) sub(k kind, fn func() error) error {
	if !p.rec.on.Load() {
		return fn()
	}
	start := p.rec.now()
	err := fn()
	p.rec.add(span{start: start, end: p.rec.now(), op: p.op.Load(), node: -1, layer: layerCore, kind: k})
	return err
}

// cluster is an assembled stack: memnodes, the transport between them and
// the proxies, and the proxies.
type cluster struct {
	proxies []*proxy
	nodes   []sinfonia.NodeID
	mems    []*sinfonia.Memnode
	fss     []*tracedFS         // durable clusters only
	lns     []*countingListener // TCP clusters only
	dirs    []string            // durable clusters only
	// userBytes is the key and value bytes preloaded.
	userBytes int64
	stop      []func()
	once      sync.Once
}

// close stops the stack, clients first. It is safe to call twice.
func (c *cluster) close() {
	c.once.Do(func() {
		for _, f := range c.stop {
			f()
		}
	})
}

func nodeIDs(n int) []sinfonia.NodeID {
	ids := make([]sinfonia.NodeID, n)
	for i := range ids {
		ids[i] = sinfonia.NodeID(i)
	}
	return ids
}

// openProxies builds one proxy per transport, creates the tree from the
// first and opens it from the rest. Proxy i's local memnode is node i mod n.
func (c *cluster) openProxies(ts []netsim.Transport, rec *recorder) error {
	for i, t := range ts {
		p := newProxy(t, c.nodes, rec)
		if err := p.openTree(c.nodes[i%len(c.nodes)], i == 0); err != nil {
			return fmt.Errorf("proxy %d: %w", i, err)
		}
		c.proxies = append(c.proxies, p)
	}
	return nil
}

// buildMem assembles volatile memnodes on netsim.Local with no injected
// latency. Each proxy gets its own Local binding the same memnodes through
// its own handler wrappers, so memnode spans nest under that proxy's calls.
func buildMem(memnodes, proxies int, rec *recorder) (*cluster, error) {
	c := &cluster{nodes: nodeIDs(memnodes)}
	for _, id := range c.nodes {
		c.mems = append(c.mems, sinfonia.NewMemnode(id))
	}
	ts := make([]netsim.Transport, proxies)
	for p := range ts {
		l := netsim.NewLocal(0)
		for i, m := range c.mems {
			l.Bind(c.nodes[i], &tracedHandler{next: m, node: c.nodes[i], rec: rec})
		}
		ts[p] = l
	}
	return c, c.openProxies(ts, rec)
}

// buildTCPWAL assembles durable memnodes (OSFS under dir, fsync on, the
// default checkpoint threshold) served by rpcnet on loopback, and proxies
// sharing one rpcnet.Client with one connection per memnode.
func buildTCPWAL(dir string, memnodes, proxies int, rec *recorder) (*cluster, error) {
	c := &cluster{nodes: nodeIDs(memnodes)}
	addrs := map[netsim.NodeID]string{}
	var servers []*rpcnet.Server
	c.stop = append(c.stop, func() {
		for _, s := range servers {
			s.Close()
		}
		for _, m := range c.mems {
			m.Close()
		}
	})
	for _, id := range c.nodes {
		d := filepath.Join(dir, fmt.Sprint(id))
		fs, err := wal.NewOSFS(d)
		if err != nil {
			c.close()
			return nil, err
		}
		tfs := &tracedFS{FS: fs, node: id, rec: rec}
		m, err := sinfonia.OpenDurable(id, tfs, sinfonia.DurOptions{})
		if err != nil {
			c.close()
			return nil, err
		}
		c.mems = append(c.mems, m)
		c.fss = append(c.fss, tfs)
		c.dirs = append(c.dirs, d)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		cl := &countingListener{Listener: ln, rec: rec}
		c.lns = append(c.lns, cl)
		servers = append(servers, rpcnet.Serve(cl, &tracedHandler{next: m, node: id, rec: rec}))
		addrs[id] = ln.Addr().String()
	}
	rc := rpcnet.NewClient(addrs)
	rc.ConnsPerPeer = 1
	// Clients stop before servers: prepend.
	c.stop = append([]func(){rc.Close}, c.stop...)
	ts := make([]netsim.Transport, proxies)
	for i := range ts {
		ts[i] = rc
	}
	if err := c.openProxies(ts, rec); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// reopenDurable recovers memnodes from their log directories, as a restart
// would, and opens tree 0 on them through one proxy over netsim.
func reopenDurable(dirs []string) (*proxy, func(), error) {
	nodes := nodeIDs(len(dirs))
	l := netsim.NewLocal(0)
	var mems []*sinfonia.Memnode
	closeAll := func() {
		for _, m := range mems {
			m.Close()
		}
	}
	for i, d := range dirs {
		fs, err := wal.NewOSFS(d)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		m, err := sinfonia.OpenDurable(nodes[i], fs, sinfonia.DurOptions{})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		mems = append(mems, m)
		l.Bind(nodes[i], m)
	}
	p := newProxy(l, nodes, newRecorder())
	if err := p.openTree(nodes[0], false); err != nil {
		closeAll()
		return nil, nil, err
	}
	return p, closeAll, nil
}

// preload writes val(i) under keys[i] for every i through the first proxy,
// in key order and in batches.
func (c *cluster) preload(keys [][]byte, val func(i int) []byte) error {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return string(keys[order[a]]) < string(keys[order[b]]) })
	for lo := 0; lo < len(order); lo += preloadBatch {
		hi := min(lo+preloadBatch, len(order))
		ops := make([]core.BatchOp, 0, hi-lo)
		for _, i := range order[lo:hi] {
			v := val(i)
			ops = append(ops, core.BatchOp{Key: keys[i], Val: v})
			c.userBytes += int64(len(keys[i]) + len(v))
		}
		if err := c.proxies[0].bt.ApplyBatch(ops); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}
