package wire

import "fmt"

// Multiplexed RPC frame header (transport protocol version 3).
//
// A connection opens with a 4-byte preamble (three magic bytes plus the
// protocol version), after which every frame — in either direction —
// carries a fixed header holding the request id that pairs responses with
// requests, a flags byte, and the payload length. Many requests may be in
// flight on one connection; responses may arrive in any order, and the id
// is the only pairing.
//
// The header is encoded little-endian like every other codec in this
// package. A server accepts exactly the current version: any other
// preamble, including an older version's or a version-1 bare length
// prefix, closes the connection. The magic bytes read as a big-endian
// length are far above MaxFramePayload, so a version-1 peer cannot mistake
// the preamble for a frame either. See docs/WIRE.md for the full wire
// contract.

// FrameVersion is the current multiplexed transport protocol version.
const FrameVersion = 3

// FramePreambleLen is the length of the connection preamble.
const FramePreambleLen = 4

// FrameHeaderLen is the length of the fixed per-frame header: request id
// (8 bytes) + flags (1 byte) + payload length (4 bytes).
const FrameHeaderLen = 13

// MaxFramePayload bounds a single frame's payload. A received header
// claiming more is a protocol error and kills the connection; senders
// refuse to build such a frame in the first place.
const MaxFramePayload = 64 << 20

// framePreambleMagic is the first three bytes of the connection preamble.
// 'M','N','X' read as a big-endian length prefix is ≥ 0x4D000000
// (~1.2 GiB), far above MaxFramePayload, so it cannot be mistaken for the
// length-prefixed framing of protocol version 1.
var framePreambleMagic = [3]byte{'M', 'N', 'X'}

// FrameFlags is the per-frame flags byte.
type FrameFlags uint8

const (
	// FrameFlagError marks a response whose payload is an error rather
	// than a result.
	FrameFlagError FrameFlags = 1 << 0
	// FrameFlagThrottled marks a response produced by load shedding: the
	// receiver rejected the request before executing it. The caller may
	// retry; the request was never started.
	FrameFlagThrottled FrameFlags = 1 << 1
)

// FrameHeader is the fixed header preceding every frame payload.
type FrameHeader struct {
	// ID pairs a response with its request. Request ids are allocated by
	// the connection's client side and are unique among that connection's
	// in-flight requests; the server echoes the id verbatim.
	ID uint64
	// Flags qualifies the payload (see FrameFlags).
	Flags FrameFlags
	// Length is the payload length in bytes, bounded by MaxFramePayload.
	Length uint32
}

// AppendFramePreamble appends the 4-byte connection preamble for the
// current protocol version.
func AppendFramePreamble(dst []byte) []byte {
	return append(dst, framePreambleMagic[0], framePreambleMagic[1], framePreambleMagic[2], FrameVersion)
}

// ParseFramePreamble checks a 4-byte connection preamble and returns its
// protocol version. ok is false when the bytes are not a multiplexed-
// transport preamble at all (e.g. a version-1 length prefix); err is
// non-nil when the preamble is recognized but the version is not
// FrameVersion.
func ParseFramePreamble(p []byte) (version byte, ok bool, err error) {
	if len(p) < FramePreambleLen {
		return 0, false, fmt.Errorf("wire: short frame preamble: %d bytes", len(p))
	}
	if p[0] != framePreambleMagic[0] || p[1] != framePreambleMagic[1] || p[2] != framePreambleMagic[2] {
		return 0, false, nil
	}
	if p[3] != FrameVersion {
		return p[3], true, fmt.Errorf("wire: unsupported frame protocol version %d (have %d)", p[3], FrameVersion)
	}
	return p[3], true, nil
}

// AppendFrameHeader appends h's fixed 13-byte encoding.
func (h FrameHeader) AppendFrameHeader(dst []byte) []byte {
	b := Buffer{b: dst}
	b.U64(h.ID)
	b.U8(byte(h.Flags))
	b.U32(h.Length)
	return b.b
}

// ParseFrameHeader decodes a fixed frame header and validates the payload
// length bound.
func ParseFrameHeader(p []byte) (FrameHeader, error) {
	if len(p) < FrameHeaderLen {
		return FrameHeader{}, fmt.Errorf("wire: short frame header: %d bytes", len(p))
	}
	r := NewReader(p[:FrameHeaderLen])
	h := FrameHeader{ID: r.U64(), Flags: FrameFlags(r.U8()), Length: r.U32()}
	if err := r.Err(); err != nil {
		return FrameHeader{}, err
	}
	if h.Length > MaxFramePayload {
		return FrameHeader{}, fmt.Errorf("wire: frame payload too large: %d", h.Length)
	}
	return h, nil
}
