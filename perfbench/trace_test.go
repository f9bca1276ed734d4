package main

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"

	"minuet/internal/netsim"
	"minuet/internal/sinfonia"
	"minuet/internal/wal"
)

var errBoom = errors.New("boom")

// Every wrapper must hand back exactly what the wrapped call returned, with
// tracing off and on.
func forBothModes(t *testing.T, fn func(t *testing.T, rec *recorder)) {
	for _, on := range []bool{false, true} {
		rec := newRecorder()
		rec.on.Store(on)
		name := "off"
		if on {
			name = "on"
		}
		t.Run(name, func(t *testing.T) { fn(t, rec) })
	}
}

func TestTracedTransportPassesThrough(t *testing.T) {
	forBothModes(t, func(t *testing.T, rec *recorder) {
		want := &sinfonia.ExecResp{Reads: []sinfonia.ReadResult{{Exists: true}}}
		var op atomic.Int32
		op.Store(5)
		for _, c := range []struct {
			resp any
			err  error
		}{{want, nil}, {nil, errBoom}, {want, errBoom}} {
			next := netsim.HandlerFunc(func(req any) (any, error) { return c.resp, c.err })
			tr := &tracedTransport{next: transportFunc(next.HandleRPC), rec: rec, op: &op}
			resp, err := tr.Call(3, &sinfonia.ExecCommitReq{Txid: 9})
			if resp != c.resp || err != c.err {
				t.Fatalf("Call = (%v, %v), want (%v, %v)", resp, err, c.resp, c.err)
			}
		}
		spans, release := rec.take()
		defer release()
		if !rec.on.Load() {
			if len(spans) != 0 {
				t.Fatalf("recorded %d spans while off", len(spans))
			}
			return
		}
		if len(spans) != 3 {
			t.Fatalf("recorded %d spans, want 3", len(spans))
		}
		if s := spans[0]; s.op != 5 || s.node != 3 || s.txid != 9 || s.kind != kindExecCommit || s.layer != layerTransport {
			t.Fatalf("span = %+v", s)
		}
	})
}

type transportFunc func(req any) (any, error)

func (f transportFunc) Call(_ netsim.NodeID, req any) (any, error) { return f(req) }

func TestTracedHandlerPassesThrough(t *testing.T) {
	forBothModes(t, func(t *testing.T, rec *recorder) {
		abort := &sinfonia.ExecResp{Vote: 1}
		for _, c := range []struct {
			resp any
			err  error
		}{{abort, nil}, {nil, errBoom}, {&sinfonia.Ack{}, nil}} {
			h := &tracedHandler{next: netsim.HandlerFunc(func(any) (any, error) { return c.resp, c.err }), node: 1, rec: rec}
			resp, err := h.HandleRPC(&sinfonia.PrepareReq{Txid: 4})
			if resp != c.resp || err != c.err {
				t.Fatalf("HandleRPC = (%v, %v), want (%v, %v)", resp, err, c.resp, c.err)
			}
		}
		spans, release := rec.take()
		defer release()
		if rec.on.Load() && (len(spans) != 3 || !spans[0].abort || spans[2].abort || !spans[0].logs) {
			t.Fatalf("spans = %+v", spans)
		}
	})
}

// failFS fails every call with errBoom.
type failFS struct{}

func (failFS) Create(string) (wal.File, error) { return nil, errBoom }
func (failFS) Open(string) (wal.File, error)   { return nil, errBoom }
func (failFS) Rename(string, string) error     { return errBoom }
func (failFS) Remove(string) error             { return errBoom }
func (failFS) List() ([]string, error)         { return nil, errBoom }
func (failFS) SyncDir() error                  { return errBoom }

// shortFile accepts only part of each write and fails Sync.
type shortFile struct{ wal.File }

func (shortFile) Write(p []byte) (int, error) { return len(p) / 2, errBoom }
func (shortFile) Sync() error                 { return errBoom }

func TestTracedFSPassesThrough(t *testing.T) {
	forBothModes(t, func(t *testing.T, rec *recorder) {
		mem := &tracedFS{FS: wal.NewMemFS(), rec: rec}
		f, err := mem.Create("ckpt-1.tmp")
		if err != nil {
			t.Fatal(err)
		}
		if n, err := f.Write([]byte("hello")); n != 5 || err != nil {
			t.Fatalf("Write = (%d, %v)", n, err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := mem.Rename("ckpt-1.tmp", "ckpt-1"); err != nil {
			t.Fatal(err)
		}
		g, err := mem.Open("ckpt-1")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 5)
		if n, err := g.ReadAt(buf, 0); n != 5 || err != nil || string(buf) != "hello" {
			t.Fatalf("ReadAt = (%d, %v, %q)", n, err, buf)
		}

		bad := &tracedFS{FS: failFS{}, rec: rec}
		if f, err := bad.Create("x"); f != nil || err != errBoom {
			t.Fatalf("Create = (%v, %v)", f, err)
		}
		if f, err := bad.Open("x"); f != nil || err != errBoom {
			t.Fatalf("Open = (%v, %v)", f, err)
		}
		if err := bad.Rename("ckpt-1.tmp", "ckpt-1"); err != errBoom {
			t.Fatalf("Rename = %v", err)
		}
		if err := bad.SyncDir(); err != errBoom {
			t.Fatalf("SyncDir = %v", err)
		}
		short := &tracedFile{File: shortFile{}, fs: bad}
		if n, err := short.Write([]byte("abcd")); n != 2 || err != errBoom {
			t.Fatalf("Write = (%d, %v)", n, err)
		}
		if err := short.Sync(); err != errBoom {
			t.Fatalf("Sync = %v", err)
		}

		spans, release := rec.take()
		defer release()
		if !rec.on.Load() {
			return
		}
		// write, sync, syncdir, short write, failed sync; one checkpoint.
		if len(spans) != 5 || spans[0].bytes != 5 || spans[3].bytes != 2 || mem.checkpoints.Load() != 1 || bad.checkpoints.Load() != 0 {
			t.Fatalf("spans = %+v, checkpoints %d/%d", spans, mem.checkpoints.Load(), bad.checkpoints.Load())
		}
	})
}

type pipeListener struct {
	net.Listener
	conn net.Conn
}

func (l pipeListener) Accept() (net.Conn, error) {
	if l.conn == nil {
		return nil, errBoom
	}
	return l.conn, nil
}

func TestCountingListenerPassesThrough(t *testing.T) {
	forBothModes(t, func(t *testing.T, rec *recorder) {
		if c, err := (&countingListener{Listener: pipeListener{}, rec: rec}).Accept(); c != nil || err != errBoom {
			t.Fatalf("Accept = (%v, %v)", c, err)
		}
		server, client := net.Pipe()
		defer client.Close()
		l := &countingListener{Listener: pipeListener{conn: server}, rec: rec}
		c, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		done := make(chan error, 1)
		go func() {
			buf := make([]byte, 3)
			if _, err := client.Write([]byte("ping")); err != nil {
				done <- err
				return
			}
			_, err := client.Read(buf)
			done <- err
		}()
		buf := make([]byte, 4)
		if n, err := c.Read(buf); n != 4 || err != nil || string(buf) != "ping" {
			t.Fatalf("Read = (%d, %v, %q)", n, err, buf)
		}
		if n, err := c.Write([]byte("pon")); n != 3 || err != nil {
			t.Fatalf("Write = (%d, %v)", n, err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if rec.on.Load() {
			want = 7
		}
		if got := l.bytes.Load(); got != want {
			t.Fatalf("counted %d bytes, want %d", got, want)
		}
	})
}
