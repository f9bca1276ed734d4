package sinfonia

import (
	"fmt"

	"minuet/internal/wire"
)

// Binary message codec. Every wire message in types.go and recovery.go has
// a stable tag byte and three functions: sizeX returns its exact encoded
// length, appendX appends the encoding, and decodeX reads it back. A
// message on the wire is its tag followed by its body; there is no
// envelope and no type description. The WAL's redo records and checkpoint
// state (durable.go) are built from the same list helpers, so one codec
// covers every byte that crosses a socket or reaches the disk.
//
// Encoding rules, shared with internal/wire: integers are little-endian
// and fixed width; a NodeID is 4 bytes, an int or int64 field 8 bytes
// (a compare-failure index 4); a bool is one byte, 0 or 1; byte strings
// carry a u32 length; a list is a u32 element count followed by its
// elements, and parallel lists (ReplicaApplyReq.Addrs/Data/Versions, the
// SnapshotStateResp groups) are encoded one after another and must have
// equal lengths. Decoding bounds every count by the unread input before
// allocating, rejects trailing bytes, and returns empty lists as nil.
//
// Decoded byte fields alias the input buffer. Transport payloads are
// freshly allocated per frame and never reused, so handlers may keep them;
// WAL replay and checkpoint load copy what they keep (durable.go).

// Message tags. The values are part of the wire protocol (docs/WIRE.md):
// never renumber one, only append.
const (
	tagExecCommitReq     byte = 1
	tagPrepareReq        byte = 2
	tagExecResp          byte = 3
	tagCommitReq         byte = 4
	tagAbortReq          byte = 5
	tagAck               byte = 6
	tagReplicaApplyReq   byte = 7
	tagReplicaStageReq   byte = 8
	tagReplicaResolveReq byte = 9
	tagScanReq           byte = 10
	tagScanResp          byte = 11
	tagSnapshotStateReq  byte = 12
	tagSnapshotStateResp byte = 13
	tagStatsReq          byte = 14
	tagStatsResp         byte = 15
	tagInDoubtReq        byte = 16
	tagInDoubtResp       byte = 17
	tagTxnStatusReq      byte = 18
	tagTxnStatusResp     byte = 19
)

// MsgSize returns the exact number of bytes AppendMsg appends for msg, or
// an error when msg is not a wire message.
func MsgSize(msg any) (int, error) {
	var n int
	switch m := msg.(type) {
	case *ExecCommitReq:
		n = sizeExecCommitReq(m)
	case *PrepareReq:
		n = sizePrepareReq(m)
	case *ExecResp:
		n = sizeExecResp(m)
	case *CommitReq, *AbortReq, *TxnStatusReq, *InDoubtReq:
		n = 8
	case *Ack, *SnapshotStateReq, *StatsReq:
		n = 0
	case *ReplicaApplyReq:
		n = sizeReplicaApplyReq(m)
	case *ReplicaStageReq:
		n = sizeReplicaStageReq(m)
	case *ReplicaResolveReq:
		n = 4 + 8 + 1
	case *ScanReq:
		n = 3 * 8
	case *ScanResp:
		n = sizeScanResp(m)
	case *SnapshotStateResp:
		n = sizeSnapshotStateResp(m)
	case *StatsResp:
		n = 5 * 8
	case *InDoubtResp:
		n = sizeInDoubtResp(m)
	case *TxnStatusResp:
		n = 1
	default:
		return 0, fmt.Errorf("sinfonia: %T is not a wire message", msg)
	}
	return 1 + n, nil
}

// AppendMsg appends msg's tag and body to dst. Size dst with MsgSize to
// encode without reallocating.
func AppendMsg(dst []byte, msg any) ([]byte, error) {
	switch m := msg.(type) {
	case *ExecCommitReq:
		return appendExecCommitReq(append(dst, tagExecCommitReq), m), nil
	case *PrepareReq:
		return appendPrepareReq(append(dst, tagPrepareReq), m), nil
	case *ExecResp:
		return appendExecResp(append(dst, tagExecResp), m), nil
	case *CommitReq:
		return appendCommitReq(append(dst, tagCommitReq), m), nil
	case *AbortReq:
		return appendAbortReq(append(dst, tagAbortReq), m), nil
	case *Ack:
		return append(dst, tagAck), nil
	case *ReplicaApplyReq:
		return appendReplicaApplyReq(append(dst, tagReplicaApplyReq), m), nil
	case *ReplicaStageReq:
		return appendReplicaStageReq(append(dst, tagReplicaStageReq), m), nil
	case *ReplicaResolveReq:
		return appendReplicaResolveReq(append(dst, tagReplicaResolveReq), m), nil
	case *ScanReq:
		return appendScanReq(append(dst, tagScanReq), m), nil
	case *ScanResp:
		return appendScanResp(append(dst, tagScanResp), m), nil
	case *SnapshotStateReq:
		return append(dst, tagSnapshotStateReq), nil
	case *SnapshotStateResp:
		return appendSnapshotStateResp(append(dst, tagSnapshotStateResp), m), nil
	case *StatsReq:
		return append(dst, tagStatsReq), nil
	case *StatsResp:
		return appendStatsResp(append(dst, tagStatsResp), m), nil
	case *InDoubtReq:
		return appendInDoubtReq(append(dst, tagInDoubtReq), m), nil
	case *InDoubtResp:
		return appendInDoubtResp(append(dst, tagInDoubtResp), m), nil
	case *TxnStatusReq:
		return appendTxnStatusReq(append(dst, tagTxnStatusReq), m), nil
	case *TxnStatusResp:
		return appendTxnStatusResp(append(dst, tagTxnStatusResp), m), nil
	}
	return dst, fmt.Errorf("sinfonia: %T is not a wire message", msg)
}

// DecodeMsg decodes one message written by AppendMsg. p must hold exactly
// one message: an unknown tag, a truncated or malformed body, and trailing
// bytes are all errors. Byte fields of the result alias p.
func DecodeMsg(p []byte) (any, error) {
	r := wire.NewReader(p)
	var msg any
	switch tag := r.U8(); tag {
	case tagExecCommitReq:
		msg = decodeExecCommitReq(r)
	case tagPrepareReq:
		msg = decodePrepareReq(r)
	case tagExecResp:
		msg = decodeExecResp(r)
	case tagCommitReq:
		msg = decodeCommitReq(r)
	case tagAbortReq:
		msg = decodeAbortReq(r)
	case tagAck:
		msg = &Ack{}
	case tagReplicaApplyReq:
		msg = decodeReplicaApplyReq(r)
	case tagReplicaStageReq:
		msg = decodeReplicaStageReq(r)
	case tagReplicaResolveReq:
		msg = decodeReplicaResolveReq(r)
	case tagScanReq:
		msg = decodeScanReq(r)
	case tagScanResp:
		msg = decodeScanResp(r)
	case tagSnapshotStateReq:
		msg = &SnapshotStateReq{}
	case tagSnapshotStateResp:
		msg = decodeSnapshotStateResp(r)
	case tagStatsReq:
		msg = &StatsReq{}
	case tagStatsResp:
		msg = decodeStatsResp(r)
	case tagInDoubtReq:
		msg = decodeInDoubtReq(r)
	case tagInDoubtResp:
		msg = decodeInDoubtResp(r)
	case tagTxnStatusReq:
		msg = decodeTxnStatusReq(r)
	case tagTxnStatusResp:
		msg = decodeTxnStatusResp(r)
	default:
		if r.Err() == nil {
			return nil, fmt.Errorf("sinfonia: unknown message tag %d", tag)
		}
	}
	if err := finish(r); err != nil {
		return nil, fmt.Errorf("sinfonia: decode message: %w", err)
	}
	return msg, nil
}

// finish reports r's decoding error, treating unread input as one.
func finish(r *wire.Reader) error {
	if r.Err() == nil && r.Remaining() != 0 {
		r.Invalid(fmt.Sprintf("encoding: %d trailing bytes", r.Remaining()))
	}
	return r.Err()
}

// ---- messages ----

func sizeExecCommitReq(m *ExecCommitReq) int {
	return 8 + sizeCompares(m.Compares) + sizeReads(m.Reads) + sizeWrites(m.Writes) + 1 + 8
}

func appendExecCommitReq(dst []byte, m *ExecCommitReq) []byte {
	b := wire.AppendTo(dst)
	b.U64(m.Txid)
	appendCompares(&b, m.Compares)
	appendReads(&b, m.Reads)
	appendWrites(&b, m.Writes)
	b.Bool(m.Blocking)
	b.U64(uint64(m.WaitNanos))
	return b.Bytes()
}

func decodeExecCommitReq(r *wire.Reader) *ExecCommitReq {
	m := &ExecCommitReq{}
	m.Txid = r.U64()
	m.Compares = decodeCompares(r)
	m.Reads = decodeReads(r)
	m.Writes = decodeWrites(r)
	m.Blocking = r.Bool()
	m.WaitNanos = int64(r.U64())
	return m
}

func sizePrepareReq(m *PrepareReq) int {
	return 8 + sizeCompares(m.Compares) + sizeReads(m.Reads) + sizeWrites(m.Writes) + 1 + 8 +
		sizeNodeIDs(m.Participants)
}

func appendPrepareReq(dst []byte, m *PrepareReq) []byte {
	b := wire.AppendTo(dst)
	b.U64(m.Txid)
	appendCompares(&b, m.Compares)
	appendReads(&b, m.Reads)
	appendWrites(&b, m.Writes)
	b.Bool(m.Blocking)
	b.U64(uint64(m.WaitNanos))
	appendNodeIDs(&b, m.Participants)
	return b.Bytes()
}

func decodePrepareReq(r *wire.Reader) *PrepareReq {
	m := &PrepareReq{}
	m.Txid = r.U64()
	m.Compares = decodeCompares(r)
	m.Reads = decodeReads(r)
	m.Writes = decodeWrites(r)
	m.Blocking = r.Bool()
	m.WaitNanos = int64(r.U64())
	m.Participants = decodeNodeIDs(r)
	return m
}

func sizeExecResp(m *ExecResp) int {
	return 1 + 4 + 4*len(m.Failed) + sizeReadResults(m.Reads)
}

func appendExecResp(dst []byte, m *ExecResp) []byte {
	b := wire.AppendTo(dst)
	b.U8(uint8(m.Vote))
	b.U32(uint32(len(m.Failed)))
	for _, f := range m.Failed {
		b.U32(uint32(f))
	}
	appendReadResults(&b, m.Reads)
	return b.Bytes()
}

func decodeExecResp(r *wire.Reader) *ExecResp {
	m := &ExecResp{}
	m.Vote = vote(r.U8())
	m.Failed = makeList[int](r.Count(4))
	for i := range m.Failed {
		m.Failed[i] = int(r.U32())
	}
	m.Reads = decodeReadResults(r)
	return m
}

func appendCommitReq(dst []byte, m *CommitReq) []byte {
	b := wire.AppendTo(dst)
	b.U64(m.Txid)
	return b.Bytes()
}

func decodeCommitReq(r *wire.Reader) *CommitReq { return &CommitReq{Txid: r.U64()} }

func appendAbortReq(dst []byte, m *AbortReq) []byte {
	b := wire.AppendTo(dst)
	b.U64(m.Txid)
	return b.Bytes()
}

func decodeAbortReq(r *wire.Reader) *AbortReq { return &AbortReq{Txid: r.U64()} }

func sizeReplicaApplyReq(m *ReplicaApplyReq) int {
	return 4 + 8 + sizeAddrs(m.Addrs) + sizeByteStrings(m.Data) + sizeU64s(m.Versions)
}

func appendReplicaApplyReq(dst []byte, m *ReplicaApplyReq) []byte {
	b := wire.AppendTo(dst)
	b.U32(uint32(m.From))
	b.U64(m.Txid)
	appendAddrs(&b, m.Addrs)
	appendByteStrings(&b, m.Data)
	appendU64s(&b, m.Versions)
	return b.Bytes()
}

func decodeReplicaApplyReq(r *wire.Reader) *ReplicaApplyReq {
	m := &ReplicaApplyReq{}
	m.From = NodeID(int32(r.U32()))
	m.Txid = r.U64()
	m.Addrs = decodeAddrs(r)
	m.Data = decodeByteStrings(r)
	m.Versions = decodeU64s(r)
	if len(m.Data) != len(m.Addrs) || len(m.Versions) != len(m.Addrs) {
		r.Invalid("ReplicaApplyReq: parallel lists differ in length")
	}
	return m
}

func sizeReplicaStageReq(m *ReplicaStageReq) int {
	return 4 + 8 + sizeWrites(m.Writes) + sizeNodeIDs(m.Participants)
}

func appendReplicaStageReq(dst []byte, m *ReplicaStageReq) []byte {
	b := wire.AppendTo(dst)
	b.U32(uint32(m.From))
	b.U64(m.Txid)
	appendWrites(&b, m.Writes)
	appendNodeIDs(&b, m.Participants)
	return b.Bytes()
}

func decodeReplicaStageReq(r *wire.Reader) *ReplicaStageReq {
	m := &ReplicaStageReq{}
	m.From = NodeID(int32(r.U32()))
	m.Txid = r.U64()
	m.Writes = decodeWrites(r)
	m.Participants = decodeNodeIDs(r)
	return m
}

func appendReplicaResolveReq(dst []byte, m *ReplicaResolveReq) []byte {
	b := wire.AppendTo(dst)
	b.U32(uint32(m.From))
	b.U64(m.Txid)
	b.Bool(m.Aborted)
	return b.Bytes()
}

func decodeReplicaResolveReq(r *wire.Reader) *ReplicaResolveReq {
	m := &ReplicaResolveReq{}
	m.From = NodeID(int32(r.U32()))
	m.Txid = r.U64()
	m.Aborted = r.Bool()
	return m
}

func appendScanReq(dst []byte, m *ScanReq) []byte {
	b := wire.AppendTo(dst)
	b.U64(uint64(m.MinAddr))
	b.U64(uint64(m.MaxAddr))
	b.U64(uint64(m.PrefixLen))
	return b.Bytes()
}

func decodeScanReq(r *wire.Reader) *ScanReq {
	m := &ScanReq{}
	m.MinAddr = Addr(r.U64())
	m.MaxAddr = Addr(r.U64())
	m.PrefixLen = int(r.U64())
	return m
}

func sizeScanResp(m *ScanResp) int {
	n := 4
	for i := range m.Items {
		n += 8 + 8 + 4 + len(m.Items[i].Prefix)
	}
	return n
}

func appendScanResp(dst []byte, m *ScanResp) []byte {
	b := wire.AppendTo(dst)
	b.U32(uint32(len(m.Items)))
	for i := range m.Items {
		b.U64(uint64(m.Items[i].Addr))
		b.U64(m.Items[i].Version)
		b.Bytes32(m.Items[i].Prefix)
	}
	return b.Bytes()
}

func decodeScanResp(r *wire.Reader) *ScanResp {
	m := &ScanResp{}
	m.Items = makeList[ItemInfo](r.Count(8 + 8 + 4))
	for i := range m.Items {
		m.Items[i].Addr = Addr(r.U64())
		m.Items[i].Version = r.U64()
		m.Items[i].Prefix = r.Slice32()
	}
	return m
}

func sizeSnapshotStateResp(m *SnapshotStateResp) int {
	n := sizeAddrs(m.Addrs) + sizeByteStrings(m.Data) + sizeU64s(m.Versions)
	n += sizeU64s(m.StagedTxids) + 4
	for _, ws := range m.StagedWrites {
		n += sizeWrites(ws)
	}
	n += 4
	for _, ps := range m.StagedParticipants {
		n += sizeNodeIDs(ps)
	}
	n += sizeNodeIDs(m.MirrorFor) + sizeAddrs(m.MirrorAddrs) + sizeByteStrings(m.MirrorData) + sizeU64s(m.MirrorVersions)
	return n
}

func appendSnapshotStateResp(dst []byte, m *SnapshotStateResp) []byte {
	b := wire.AppendTo(dst)
	appendAddrs(&b, m.Addrs)
	appendByteStrings(&b, m.Data)
	appendU64s(&b, m.Versions)
	appendU64s(&b, m.StagedTxids)
	b.U32(uint32(len(m.StagedWrites)))
	for _, ws := range m.StagedWrites {
		appendWrites(&b, ws)
	}
	b.U32(uint32(len(m.StagedParticipants)))
	for _, ps := range m.StagedParticipants {
		appendNodeIDs(&b, ps)
	}
	appendNodeIDs(&b, m.MirrorFor)
	appendAddrs(&b, m.MirrorAddrs)
	appendByteStrings(&b, m.MirrorData)
	appendU64s(&b, m.MirrorVersions)
	return b.Bytes()
}

func decodeSnapshotStateResp(r *wire.Reader) *SnapshotStateResp {
	m := &SnapshotStateResp{}
	m.Addrs = decodeAddrs(r)
	m.Data = decodeByteStrings(r)
	m.Versions = decodeU64s(r)
	m.StagedTxids = decodeU64s(r)
	m.StagedWrites = makeList[[]WriteItem](r.Count(4))
	for i := range m.StagedWrites {
		m.StagedWrites[i] = decodeWrites(r)
	}
	m.StagedParticipants = makeList[[]NodeID](r.Count(4))
	for i := range m.StagedParticipants {
		m.StagedParticipants[i] = decodeNodeIDs(r)
	}
	m.MirrorFor = decodeNodeIDs(r)
	m.MirrorAddrs = decodeAddrs(r)
	m.MirrorData = decodeByteStrings(r)
	m.MirrorVersions = decodeU64s(r)
	switch {
	case len(m.Data) != len(m.Addrs) || len(m.Versions) != len(m.Addrs):
		r.Invalid("SnapshotStateResp: item lists differ in length")
	case len(m.StagedWrites) != len(m.StagedTxids) || len(m.StagedParticipants) != len(m.StagedTxids):
		r.Invalid("SnapshotStateResp: staged lists differ in length")
	case len(m.MirrorAddrs) != len(m.MirrorFor) || len(m.MirrorData) != len(m.MirrorFor) ||
		len(m.MirrorVersions) != len(m.MirrorFor):
		r.Invalid("SnapshotStateResp: mirror lists differ in length")
	}
	return m
}

func appendStatsResp(dst []byte, m *StatsResp) []byte {
	b := wire.AppendTo(dst)
	b.U64(uint64(m.Items))
	b.U64(uint64(m.Commits))
	b.U64(uint64(m.Aborts))
	b.U64(uint64(m.BusyAborts))
	b.U64(uint64(m.Bytes))
	return b.Bytes()
}

func decodeStatsResp(r *wire.Reader) *StatsResp {
	m := &StatsResp{}
	m.Items = int(r.U64())
	m.Commits = int64(r.U64())
	m.Aborts = int64(r.U64())
	m.BusyAborts = int64(r.U64())
	m.Bytes = int64(r.U64())
	return m
}

func appendInDoubtReq(dst []byte, m *InDoubtReq) []byte {
	b := wire.AppendTo(dst)
	b.U64(uint64(m.MinAgeNanos))
	return b.Bytes()
}

func decodeInDoubtReq(r *wire.Reader) *InDoubtReq {
	return &InDoubtReq{MinAgeNanos: int64(r.U64())}
}

func sizeInDoubtResp(m *InDoubtResp) int {
	n := 4
	for i := range m.Txns {
		n += 8 + sizeNodeIDs(m.Txns[i].Participants) + 8
	}
	return n
}

func appendInDoubtResp(dst []byte, m *InDoubtResp) []byte {
	b := wire.AppendTo(dst)
	b.U32(uint32(len(m.Txns)))
	for i := range m.Txns {
		b.U64(m.Txns[i].Txid)
		appendNodeIDs(&b, m.Txns[i].Participants)
		b.U64(uint64(m.Txns[i].AgeNanos))
	}
	return b.Bytes()
}

func decodeInDoubtResp(r *wire.Reader) *InDoubtResp {
	m := &InDoubtResp{}
	m.Txns = makeList[InDoubtInfo](r.Count(8 + 4 + 8))
	for i := range m.Txns {
		m.Txns[i].Txid = r.U64()
		m.Txns[i].Participants = decodeNodeIDs(r)
		m.Txns[i].AgeNanos = int64(r.U64())
	}
	return m
}

func appendTxnStatusReq(dst []byte, m *TxnStatusReq) []byte {
	b := wire.AppendTo(dst)
	b.U64(m.Txid)
	return b.Bytes()
}

func decodeTxnStatusReq(r *wire.Reader) *TxnStatusReq { return &TxnStatusReq{Txid: r.U64()} }

func appendTxnStatusResp(dst []byte, m *TxnStatusResp) []byte {
	b := wire.AppendTo(dst)
	b.U8(m.Status)
	return b.Bytes()
}

func decodeTxnStatusResp(r *wire.Reader) *TxnStatusResp { return &TxnStatusResp{Status: r.U8()} }

// ---- lists shared by messages and WAL records ----

// makeList allocates a decoded list of n elements, or returns nil for an
// empty one. n comes from wire.Reader.Count, so the input already backs it.
func makeList[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

func sizeCompares(cs []CompareItem) int {
	n := 4
	for i := range cs {
		n += 4 + 8 + 1 + 8 + 4 + len(cs[i].Data)
	}
	return n
}

func appendCompares(b *wire.Buffer, cs []CompareItem) {
	b.U32(uint32(len(cs)))
	for i := range cs {
		b.U32(uint32(cs[i].Node))
		b.U64(uint64(cs[i].Addr))
		b.U8(uint8(cs[i].Kind))
		b.U64(cs[i].Version)
		b.Bytes32(cs[i].Data)
	}
}

func decodeCompares(r *wire.Reader) []CompareItem {
	cs := makeList[CompareItem](r.Count(4 + 8 + 1 + 8 + 4))
	for i := range cs {
		cs[i].Node = NodeID(int32(r.U32()))
		cs[i].Addr = Addr(r.U64())
		cs[i].Kind = CompareKind(r.U8())
		cs[i].Version = r.U64()
		cs[i].Data = r.Slice32()
	}
	return cs
}

func sizeReads(rs []ReadItem) int { return 4 + (4+8)*len(rs) }

func appendReads(b *wire.Buffer, rs []ReadItem) {
	b.U32(uint32(len(rs)))
	for i := range rs {
		b.U32(uint32(rs[i].Node))
		b.U64(uint64(rs[i].Addr))
	}
}

func decodeReads(r *wire.Reader) []ReadItem {
	rs := makeList[ReadItem](r.Count(4 + 8))
	for i := range rs {
		rs[i].Node = NodeID(int32(r.U32()))
		rs[i].Addr = Addr(r.U64())
	}
	return rs
}

func sizeWrites(ws []WriteItem) int {
	n := 4
	for i := range ws {
		n += 4 + 8 + 4 + len(ws[i].Data)
	}
	return n
}

func appendWrites(b *wire.Buffer, ws []WriteItem) {
	b.U32(uint32(len(ws)))
	for i := range ws {
		b.U32(uint32(ws[i].Node))
		b.U64(uint64(ws[i].Addr))
		b.Bytes32(ws[i].Data)
	}
}

func decodeWrites(r *wire.Reader) []WriteItem {
	ws := makeList[WriteItem](r.Count(4 + 8 + 4))
	for i := range ws {
		ws[i].Node = NodeID(int32(r.U32()))
		ws[i].Addr = Addr(r.U64())
		ws[i].Data = r.Slice32()
	}
	return ws
}

func sizeReadResults(rs []ReadResult) int {
	n := 4
	for i := range rs {
		n += 4 + len(rs[i].Data) + 8 + 1
	}
	return n
}

func appendReadResults(b *wire.Buffer, rs []ReadResult) {
	b.U32(uint32(len(rs)))
	for i := range rs {
		b.Bytes32(rs[i].Data)
		b.U64(rs[i].Version)
		b.Bool(rs[i].Exists)
	}
}

func decodeReadResults(r *wire.Reader) []ReadResult {
	rs := makeList[ReadResult](r.Count(4 + 8 + 1))
	for i := range rs {
		rs[i].Data = r.Slice32()
		rs[i].Version = r.U64()
		rs[i].Exists = r.Bool()
	}
	return rs
}

func sizeNodeIDs(ids []NodeID) int { return 4 + 4*len(ids) }

func appendNodeIDs(b *wire.Buffer, ids []NodeID) {
	b.U32(uint32(len(ids)))
	for _, id := range ids {
		b.U32(uint32(id))
	}
}

func decodeNodeIDs(r *wire.Reader) []NodeID {
	ids := makeList[NodeID](r.Count(4))
	for i := range ids {
		ids[i] = NodeID(int32(r.U32()))
	}
	return ids
}

func sizeAddrs(as []Addr) int { return 4 + 8*len(as) }

func appendAddrs(b *wire.Buffer, as []Addr) {
	b.U32(uint32(len(as)))
	for _, a := range as {
		b.U64(uint64(a))
	}
}

func decodeAddrs(r *wire.Reader) []Addr {
	as := makeList[Addr](r.Count(8))
	for i := range as {
		as[i] = Addr(r.U64())
	}
	return as
}

func sizeU64s(vs []uint64) int { return 4 + 8*len(vs) }

func appendU64s(b *wire.Buffer, vs []uint64) {
	b.U32(uint32(len(vs)))
	for _, v := range vs {
		b.U64(v)
	}
}

func decodeU64s(r *wire.Reader) []uint64 {
	vs := makeList[uint64](r.Count(8))
	for i := range vs {
		vs[i] = r.U64()
	}
	return vs
}

func sizeByteStrings(ps [][]byte) int {
	n := 4
	for _, p := range ps {
		n += 4 + len(p)
	}
	return n
}

func appendByteStrings(b *wire.Buffer, ps [][]byte) {
	b.U32(uint32(len(ps)))
	for _, p := range ps {
		b.Bytes32(p)
	}
}

func decodeByteStrings(r *wire.Reader) [][]byte {
	ps := makeList[[]byte](r.Count(4))
	for i := range ps {
		ps[i] = r.Slice32()
	}
	return ps
}
