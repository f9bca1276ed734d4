package rpcnet

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minuet/internal/netsim"
	"minuet/internal/sinfonia"
	"minuet/internal/wire"
)

// The echo handlers below speak ordinary Sinfonia messages, since those are
// all the transport carries: a CommitReq carries a number to the server and
// a StatsResp carries it back.
func echoReq(n int) any { return &sinfonia.CommitReq{Txid: uint64(n)} }

func echoResp(n int) any { return &sinfonia.StatsResp{Commits: int64(n)} }

// echoN returns the number an echo request or response carries.
func echoN(msg any) int {
	switch m := msg.(type) {
	case *sinfonia.CommitReq:
		return int(m.Txid)
	case *sinfonia.StatsResp:
		return int(m.Commits)
	}
	panic(fmt.Sprintf("not an echo message: %T", msg))
}

// startEcho serves handler on loopback and returns a client addressed at it
// as node 0.
func startEcho(t *testing.T, handler netsim.Handler) (*Client, *Server) {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(map[netsim.NodeID]string{0: srv.Addr()})
	t.Cleanup(func() {
		client.Close()
		srv.Close()
	})
	return client, srv
}

// connCount reports the server's live connection count.
func (s *Server) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// TestPipelinedCallsShareOneConnection drives many concurrent calls through
// a single-connection budget and checks that (a) every response reaches the
// caller that issued its request — the request-id routing — and (b) the
// server really saw just one connection.
func TestPipelinedCallsShareOneConnection(t *testing.T) {
	var inHandler atomic.Int64
	var peak atomic.Int64
	client, srv := startEcho(t, netsim.HandlerFunc(func(req any) (any, error) {
		cur := inHandler.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inHandler.Add(-1)
		return echoResp(echoN(req)), nil
	}))
	client.ConnsPerPeer = 1
	client.Window = 64

	const calls = 64
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Call(0, echoReq(i))
			if err != nil {
				errs[i] = err
				return
			}
			if got := echoN(resp); got != i {
				errs[i] = fmt.Errorf("response routed to wrong caller: got %d want %d", got, i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := srv.connCount(); n != 1 {
		t.Fatalf("server saw %d connections, want 1", n)
	}
	if p := peak.Load(); p < 8 {
		t.Fatalf("peak handler concurrency %d: calls were not pipelined", p)
	}
}

// TestBackpressureWindowFull fills the in-flight window with blocked
// requests and checks that the next call queues and then fails with
// ErrBackpressure instead of hanging or being sent.
func TestBackpressureWindowFull(t *testing.T) {
	entered := make(chan struct{}, 16)
	gate := make(chan struct{})
	client, _ := startEcho(t, netsim.HandlerFunc(func(req any) (any, error) {
		entered <- struct{}{}
		<-gate
		return echoResp(echoN(req)), nil
	}))
	client.ConnsPerPeer = 1
	client.Window = 2
	client.QueueWait = 50 * time.Millisecond

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := client.Call(0, echoReq(i)); err != nil {
				t.Errorf("windowed call %d: %v", i, err)
			}
		}(i)
	}
	// Both window slots are taken once the handlers have been entered.
	<-entered
	<-entered

	_, err := client.Call(0, echoReq(99))
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("want ErrBackpressure, got %v", err)
	}
	close(gate)
	wg.Wait()
}

// TestConnDropMidFlightFailsCallers kills the server while requests are in
// flight and checks that every caller gets an error promptly — no hangs.
func TestConnDropMidFlightFailsCallers(t *testing.T) {
	entered := make(chan struct{}, 16)
	gate := make(chan struct{})
	srv, err := Listen("127.0.0.1:0", netsim.HandlerFunc(func(req any) (any, error) {
		entered <- struct{}{}
		<-gate
		return echoResp(0), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(map[netsim.NodeID]string{0: srv.Addr()})
	defer client.Close()
	client.ConnsPerPeer = 1
	client.Window = 16

	const calls = 8
	done := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func(i int) {
			_, err := client.Call(0, echoReq(i))
			done <- err
		}(i)
	}
	for i := 0; i < calls; i++ {
		<-entered
	}

	// Close the server with the handlers still blocked: callers must fail
	// even though their responses will never be written.
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	for i := 0; i < calls; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("call succeeded after connection drop")
			}
			if !errors.Is(err, netsim.ErrUnreachable) {
				t.Fatalf("want ErrUnreachable, got %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("caller hung after connection drop")
		}
	}
	close(gate) // let the blocked handlers finish so Close can return
	<-closed
}

// TestReconnectAfterDrop checks that a client whose connection died re-dials
// transparently on the next call.
func TestReconnectAfterDrop(t *testing.T) {
	client, srv := startEcho(t, netsim.HandlerFunc(func(req any) (any, error) {
		return echoResp(echoN(req)), nil
	}))
	client.ConnsPerPeer = 1
	if _, err := client.Call(0, echoReq(1)); err != nil {
		t.Fatal(err)
	}
	// Kill the server-side connection out from under the client.
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()
	// The next call may race the teardown; it must succeed within a retry
	// or two because the client replaces dead connections lazily.
	var err error
	for i := 0; i < 10; i++ {
		if _, err = client.Call(0, echoReq(2)); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("client did not recover after connection drop: %v", err)
	}
}

// TestServerInflightBoundsConcurrency checks the server half of
// backpressure: with Inflight=2 the read loop stops consuming frames, so
// handler concurrency never exceeds the bound even though the client's
// window is wide open.
func TestServerInflightBoundsConcurrency(t *testing.T) {
	var inHandler atomic.Int64
	var peak atomic.Int64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{ln: ln, handler: netsim.HandlerFunc(func(req any) (any, error) {
		cur := inHandler.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		inHandler.Add(-1)
		return echoResp(echoN(req)), nil
	}), conns: make(map[net.Conn]struct{}), Inflight: 2}
	srv.wg.Add(1)
	go srv.acceptLoop()
	defer srv.Close()

	client := NewClient(map[netsim.NodeID]string{0: srv.Addr()})
	defer client.Close()
	client.ConnsPerPeer = 1
	client.Window = 32

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := client.Call(0, echoReq(i)); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("handler concurrency %d exceeded server Inflight 2", p)
	}
}

// TestHandlerErrorOverMux checks that application-level errors ride the
// error flag without killing the connection.
func TestHandlerErrorOverMux(t *testing.T) {
	var n atomic.Int64
	client, _ := startEcho(t, netsim.HandlerFunc(func(req any) (any, error) {
		if n.Add(1)%2 == 1 {
			return nil, errors.New("odd call")
		}
		return echoResp(0), nil
	}))
	if _, err := client.Call(0, echoReq(0)); err == nil || err.Error() != "odd call" {
		t.Fatalf("want handler error, got %v", err)
	}
	// The connection survived the error: the next call works.
	if _, err := client.Call(0, echoReq(0)); err != nil {
		t.Fatalf("connection did not survive handler error: %v", err)
	}
}

// TestOversizeResponseIsAnError: a response too large for one frame must
// reach its caller as an error naming the limit. The frame writer refuses
// it, so before error responses covered this case nothing was sent and the
// caller waited forever.
func TestOversizeResponseIsAnError(t *testing.T) {
	client, _ := startEcho(t, netsim.HandlerFunc(func(req any) (any, error) {
		if echoN(req) == 1 {
			return &sinfonia.ScanResp{Items: []sinfonia.ItemInfo{{Prefix: make([]byte, wire.MaxFramePayload)}}}, nil
		}
		return echoResp(echoN(req)), nil
	}))
	done := make(chan error, 1)
	go func() {
		_, err := client.Call(0, echoReq(1))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(wire.MaxFramePayload)) {
			t.Fatalf("want an error naming the %d-byte limit, got %v", wire.MaxFramePayload, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("caller hung on an oversize response")
	}
	// The connection survived: the next call works.
	if resp, err := client.Call(0, echoReq(2)); err != nil || echoN(resp) != 2 {
		t.Fatalf("call after oversize response: %v %v", resp, err)
	}
}

// TestOversizeRequestFailsAlone: a request too large for one frame fails on
// its own, before it is sent; a concurrent call on the same connection
// still completes.
func TestOversizeRequestFailsAlone(t *testing.T) {
	entered := make(chan struct{})
	gate := make(chan struct{})
	client, srv := startEcho(t, netsim.HandlerFunc(func(req any) (any, error) {
		close(entered)
		<-gate
		return echoResp(echoN(req)), nil
	}))
	client.ConnsPerPeer = 1
	normal := make(chan error, 1)
	go func() {
		resp, err := client.Call(0, echoReq(5))
		if err == nil && echoN(resp) != 5 {
			err = fmt.Errorf("got %d, want 5", echoN(resp))
		}
		normal <- err
	}()
	<-entered // the normal call is in flight on the only connection

	big := &sinfonia.ExecCommitReq{Writes: []sinfonia.WriteItem{{Data: make([]byte, wire.MaxFramePayload)}}}
	if _, err := client.Call(0, big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize request: want ErrTooLarge, got %v", err)
	}
	close(gate)
	if err := <-normal; err != nil {
		t.Fatalf("concurrent call failed after an oversize request: %v", err)
	}
	if n := srv.connCount(); n != 1 {
		t.Fatalf("server saw %d connections, want the original 1", n)
	}
}

// dialRaw opens a connection to srv and sends the current preamble.
func dialRaw(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(wire.AppendFramePreamble(nil)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestMalformedRequestGetsErrorResponse: an unknown tag or a truncated
// message is answered with an error response, and the connection keeps
// serving.
func TestMalformedRequestGetsErrorResponse(t *testing.T) {
	_, srv := startEcho(t, netsim.HandlerFunc(func(req any) (any, error) {
		return echoResp(echoN(req)), nil
	}))
	conn := dialRaw(t, srv)
	var wmu sync.Mutex
	good, err := encodeFrame(echoReq(9))
	if err != nil {
		t.Fatal(err)
	}
	for id, payload := range [][]byte{{0xEE}, good[wire.FrameHeaderLen : len(good)-1], good[wire.FrameHeaderLen:]} {
		frame := append(make([]byte, wire.FrameHeaderLen), payload...)
		if err := writeFrameMux(conn, &wmu, uint64(id), 0, frame); err != nil {
			t.Fatal(err)
		}
		hdr, resp, err := readFrameMux(conn)
		if err != nil {
			t.Fatalf("frame %d: connection dropped: %v", id, err)
		}
		if hdr.ID != uint64(id) {
			t.Fatalf("frame %d: response id %d", id, hdr.ID)
		}
		wantErr := id < 2
		if got := hdr.Flags&wire.FrameFlagError != 0; got != wantErr {
			t.Fatalf("frame %d: error flag %v, want %v (payload %q)", id, got, wantErr, resp)
		}
		if !wantErr {
			msg, err := sinfonia.DecodeMsg(resp)
			if err != nil || echoN(msg) != 9 {
				t.Fatalf("frame %d: %v %v", id, msg, err)
			}
		}
	}
}

// TestServerRejectsOtherPreambles: a peer speaking an older protocol (a
// version-2 preamble, or a bare version-1 length prefix) is disconnected.
func TestServerRejectsOtherPreambles(t *testing.T) {
	_, srv := startEcho(t, netsim.HandlerFunc(func(req any) (any, error) { return echoResp(0), nil }))
	for _, pre := range [][]byte{{'M', 'N', 'X', 2}, {0, 0, 0, 9}} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(append(pre, make([]byte, 9)...)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatalf("preamble %v: server answered %d bytes instead of closing", pre, n)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("preamble %v: server kept the connection open", pre)
		}
		conn.Close()
	}
}
