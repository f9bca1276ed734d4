// Package rpcnet is a real TCP transport for Minuet, interchangeable with
// the in-process simulator: it implements netsim.Transport on the client
// side and serves any netsim.Handler (normally a Sinfonia memnode) on the
// server side.
//
// The transport is pipelined and multiplexed (protocol version 3): many
// requests share one connection, each frame carries a request id, and
// responses complete asynchronously in whatever order the server finishes
// them. A client keeps a small per-peer connection budget (ConnsPerPeer)
// and bounds the in-flight requests per connection (Window); when every
// slot is taken, callers queue for up to QueueWait and then fail with
// ErrBackpressure. A frame's payload is one Sinfonia message in the binary
// codec of internal/sinfonia (sinfonia.AppendMsg/DecodeMsg), or, on an
// error response, the error text. A server closes any connection that does
// not open with the version-3 preamble. See docs/WIRE.md for the wire
// contract and internal/wire for the frame header codec.
//
// cmd/minuet-server and cmd/minuet-load use this package to run a memnode
// cluster as separate OS processes; internal/prochost spawns and babysits
// such clusters for tests and load drivers.
package rpcnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"minuet/internal/sinfonia"
	"minuet/internal/wire"
)

// ErrBackpressure is returned when a call could not acquire an in-flight
// window slot within the client's QueueWait: every connection to the peer
// is running at its full pipelining window. The request was never sent.
var ErrBackpressure = errors.New("rpcnet: in-flight window full")

// ErrTooLarge is returned for a message whose encoding exceeds
// wire.MaxFramePayload. A request that large is refused before it is sent;
// a response that large reaches its caller as an error response.
var ErrTooLarge = errors.New("rpcnet: message exceeds the frame payload limit")

// encodeFrame builds the frame for msg in one exact-size buffer: room for
// the header, which writeFrameMux fills in, followed by the encoded
// message.
func encodeFrame(msg any) ([]byte, error) {
	n, err := sinfonia.MsgSize(msg)
	if err != nil {
		return nil, err
	}
	if n > wire.MaxFramePayload {
		return nil, fmt.Errorf("%w: %T encodes to %d bytes (max %d)", ErrTooLarge, msg, n, wire.MaxFramePayload)
	}
	return sinfonia.AppendMsg(make([]byte, wire.FrameHeaderLen, wire.FrameHeaderLen+n), msg)
}

// errorFrame builds the frame of an error response: its payload is the
// error text.
func errorFrame(text string) []byte {
	return append(make([]byte, wire.FrameHeaderLen, wire.FrameHeaderLen+len(text)), text...)
}

// writeFrameMux fills in the header of a frame built by encodeFrame or
// errorFrame and writes the frame with a single conn.Write, so concurrent
// writers never interleave bytes; wmu serializes the call.
func writeFrameMux(conn net.Conn, wmu *sync.Mutex, id uint64, flags wire.FrameFlags, frame []byte) error {
	hdr := wire.FrameHeader{ID: id, Flags: flags, Length: uint32(len(frame) - wire.FrameHeaderLen)}
	hdr.AppendFrameHeader(frame[:0])
	wmu.Lock()
	defer wmu.Unlock()
	_, err := conn.Write(frame)
	return err
}

// readFrameMux reads one multiplexed frame. The payload is freshly
// allocated and never reused, so messages decoded from it may alias it.
func readFrameMux(conn net.Conn) (wire.FrameHeader, []byte, error) {
	var hb [wire.FrameHeaderLen]byte
	if _, err := io.ReadFull(conn, hb[:]); err != nil {
		return wire.FrameHeader{}, nil, err
	}
	hdr, err := wire.ParseFrameHeader(hb[:])
	if err != nil {
		return wire.FrameHeader{}, nil, err
	}
	payload := make([]byte, hdr.Length)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return wire.FrameHeader{}, nil, err
	}
	return hdr, payload, nil
}
