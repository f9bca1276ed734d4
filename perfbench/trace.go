package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minuet/internal/netsim"
	"minuet/internal/sinfonia"
	"minuet/internal/wal"
)

// The benchmark traces the stack from outside: it wraps the three interfaces
// the layers meet at (netsim.Transport, netsim.Handler, wal.FS/wal.File) and
// times every call through them. Each client op is a span too, so an op's
// wall time can be split among core (the op minus its transport calls),
// transport, memnode and wal.

// layer is the module a span's time belongs to.
type layer uint8

const (
	layerCore layer = iota
	layerTransport
	layerMemnode
	layerWAL
	numLayers
)

var layerNames = [numLayers]string{"core", "transport", "memnode", "wal"}

// kind names what a span timed: a client op, a request type or a log call.
type kind uint8

const (
	kindGet kind = iota
	kindPut
	kindScan
	kindBatch
	kindSnapshot // SCS.Create inside a scan op
	kindExecCommit
	kindPrepare
	kindCommit
	kindAbort
	kindOtherReq
	kindWrite
	kindSync
	kindSyncDir
	numKinds
)

var kindNames = [numKinds]string{
	"get", "put", "scan", "batch", "snapshot",
	"ExecCommitReq", "PrepareReq", "CommitReq", "AbortReq", "request",
	"wal.write", "wal.sync", "wal.syncdir",
}

// numOpKinds counts the kinds that are client ops (the first four).
const numOpKinds = 4

// span is one timed call at a layer boundary. Calls and handlers carry the
// request's (node, kind, txid) so a memnode span can be matched to the
// client call that caused it, on netsim and over TCP alike.
type span struct {
	start, end int64 // ns since the recorder's epoch
	txid       uint64
	bytes      int64 // wal.write payload size
	op         int32 // owning op id for op, snapshot and call spans; -1 otherwise
	node       int16
	layer      layer
	kind       kind
	logs       bool // memnode: the request writes the log
	abort      bool // memnode: a non-commit vote
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory while on; they are analysed and written out
// when the run ends. While off, every wrapper is a plain pass-through.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	ops   atomic.Int32

	mu    sync.Mutex
	spans offHeap[span] // guarded by mu
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans.add(s)
	r.mu.Unlock()
}

// take returns the recorded spans, in one slice outside the Go heap, and
// forgets them. release frees the slice.
func (r *recorder) take() (spans []span, release func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := newChunk[span](r.spans.len())
	r.spans.appendTo(c.vals)
	r.spans.free()
	return c.vals, c.release
}

// reqInfo classifies a memnode request and reports whether it writes the
// memnode's log.
func reqInfo(req any) (k kind, txid uint64, logs bool) {
	switch r := req.(type) {
	case *sinfonia.ExecCommitReq:
		return kindExecCommit, r.Txid, len(r.Writes) > 0
	case *sinfonia.PrepareReq:
		return kindPrepare, r.Txid, true
	case *sinfonia.CommitReq:
		return kindCommit, r.Txid, true
	case *sinfonia.AbortReq:
		return kindAbort, r.Txid, true
	}
	return kindOtherReq, 0, false
}

// tracedTransport wraps one proxy's transport. op holds the id of the op
// its client goroutine is running, so each call span has exactly one parent.
type tracedTransport struct {
	next netsim.Transport
	rec  *recorder
	op   *atomic.Int32
}

func (t *tracedTransport) Call(to netsim.NodeID, req any) (any, error) {
	if !t.rec.on.Load() {
		return t.next.Call(to, req)
	}
	start := t.rec.now()
	resp, err := t.next.Call(to, req)
	k, txid, _ := reqInfo(req)
	t.rec.add(span{start: start, end: t.rec.now(), txid: txid, op: t.op.Load(),
		node: int16(to), layer: layerTransport, kind: k})
	return resp, err
}

// tracedHandler wraps a memnode.
type tracedHandler struct {
	next netsim.Handler
	node netsim.NodeID
	rec  *recorder
}

func (h *tracedHandler) HandleRPC(req any) (any, error) {
	if !h.rec.on.Load() {
		return h.next.HandleRPC(req)
	}
	start := h.rec.now()
	resp, err := h.next.HandleRPC(req)
	k, txid, logs := reqInfo(req)
	s := span{start: start, end: h.rec.now(), txid: txid, op: -1,
		node: int16(h.node), layer: layerMemnode, kind: k, logs: logs}
	if er, ok := resp.(*sinfonia.ExecResp); ok && er.Vote != 0 {
		s.abort = true
	}
	h.rec.add(s)
	return resp, err
}

// tracedFS wraps a memnode's log directory. Checkpoints are counted at the
// rename that publishes them.
type tracedFS struct {
	wal.FS
	node        netsim.NodeID
	rec         *recorder
	checkpoints atomic.Int64
}

func (f *tracedFS) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f}, nil
}

func (f *tracedFS) Open(name string) (wal.File, error) {
	file, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f}, nil
}

func (f *tracedFS) Rename(oldName, newName string) error {
	err := f.FS.Rename(oldName, newName)
	if err == nil && f.rec.on.Load() && strings.HasPrefix(newName, "ckpt-") {
		f.checkpoints.Add(1)
	}
	return err
}

func (f *tracedFS) SyncDir() error {
	if !f.rec.on.Load() {
		return f.FS.SyncDir()
	}
	start := f.rec.now()
	err := f.FS.SyncDir()
	f.record(kindSyncDir, start, 0)
	return err
}

func (f *tracedFS) record(k kind, start, n int64) {
	f.rec.add(span{start: start, end: f.rec.now(), bytes: n, op: -1,
		node: int16(f.node), layer: layerWAL, kind: k})
}

type tracedFile struct {
	wal.File
	fs *tracedFS
}

func (f *tracedFile) Write(p []byte) (int, error) {
	if !f.fs.rec.on.Load() {
		return f.File.Write(p)
	}
	start := f.fs.rec.now()
	n, err := f.File.Write(p)
	f.fs.record(kindWrite, start, int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	if !f.fs.rec.on.Load() {
		return f.File.Sync()
	}
	start := f.fs.rec.now()
	err := f.File.Sync()
	f.fs.record(kindSync, start, 0)
	return err
}

// countingListener counts the bytes every accepted connection reads and
// writes while the recorder is on: the wire traffic of the TCP transport.
type countingListener struct {
	net.Listener
	rec   *recorder
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.l.rec.on.Load() {
		c.l.bytes.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.l.rec.on.Load() {
		c.l.bytes.Add(int64(n))
	}
	return n, err
}

// writeSpans writes spans as CSV: index, parent index (-1 for none), layer,
// name, node, start and end in ns since the run began.
func writeSpans(path string, spans []span, parent []int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,parent,layer,name,node,start_ns,end_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%s,%d,%d,%d\n", i, parent[i], layerNames[s.layer], kindNames[s.kind], s.node, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
