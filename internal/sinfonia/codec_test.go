package sinfonia

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
	"time"

	"minuet/internal/wire"
)

// codecCase is one message for the codec tests. want is what decoding must
// produce; nil means in itself. Empty lists and byte strings decode to nil.
type codecCase struct {
	name string
	in   any
	want any
}

func codecCases() []codecCase {
	writes := []WriteItem{{Node: 1, Addr: 4096, Data: []byte("new")}, {Node: -2, Addr: 1 << 40}}
	return []codecCase{
		{name: "ExecCommitReq", in: &ExecCommitReq{
			Txid:      7,
			Compares:  []CompareItem{{Node: 0, Addr: 64, Kind: CompareVersion, Version: 3}, {Node: 0, Addr: 65, Kind: CompareBytes, Data: []byte("old")}},
			Reads:     []ReadItem{{Node: 0, Addr: 64}},
			Writes:    writes,
			Blocking:  true,
			WaitNanos: -1,
		}},
		{name: "ExecCommitReq/empty", in: &ExecCommitReq{}},
		{
			name: "ExecCommitReq/empty-non-nil",
			in:   &ExecCommitReq{Compares: []CompareItem{}, Reads: []ReadItem{}, Writes: []WriteItem{{Data: []byte{}}}},
			want: &ExecCommitReq{Writes: []WriteItem{{}}},
		},
		{name: "PrepareReq", in: &PrepareReq{Txid: 1<<64 - 1, Writes: writes, WaitNanos: int64(time.Second), Participants: []NodeID{0, 3, 1}}},
		{name: "PrepareReq/empty", in: &PrepareReq{Participants: []NodeID{}}, want: &PrepareReq{}},
		{name: "ExecResp", in: &ExecResp{Vote: voteCompareFail, Failed: []int{0, 2}}},
		{name: "ExecResp/reads", in: &ExecResp{Reads: []ReadResult{{Data: []byte("node"), Version: 9, Exists: true}, {}}}},
		{name: "ExecResp/empty", in: &ExecResp{Failed: []int{}, Reads: []ReadResult{}}, want: &ExecResp{}},
		{name: "CommitReq", in: &CommitReq{Txid: 42}},
		{name: "AbortReq", in: &AbortReq{Txid: 43}},
		{name: "Ack", in: &Ack{}},
		{name: "ReplicaApplyReq", in: &ReplicaApplyReq{From: 2, Txid: 5, Addrs: []Addr{1, 2}, Data: [][]byte{[]byte("a"), nil}, Versions: []uint64{4, 1}}},
		{name: "ReplicaApplyReq/empty", in: &ReplicaApplyReq{Addrs: []Addr{}, Data: [][]byte{}}, want: &ReplicaApplyReq{}},
		{name: "ReplicaStageReq", in: &ReplicaStageReq{From: 1, Txid: 6, Writes: writes, Participants: []NodeID{1, 2}}},
		{name: "ReplicaStageReq/empty", in: &ReplicaStageReq{}},
		{name: "ReplicaResolveReq", in: &ReplicaResolveReq{From: 3, Txid: 8, Aborted: true}},
		{name: "ScanReq", in: &ScanReq{MinAddr: 1, MaxAddr: 1 << 63, PrefixLen: 16}},
		{name: "ScanResp", in: &ScanResp{Items: []ItemInfo{{Addr: 1, Version: 2, Prefix: []byte("hdr")}, {Addr: 3}}}},
		{name: "ScanResp/empty", in: &ScanResp{Items: []ItemInfo{}}, want: &ScanResp{}},
		{name: "SnapshotStateReq", in: &SnapshotStateReq{}},
		{name: "SnapshotStateResp", in: &SnapshotStateResp{
			Addrs: []Addr{10, 11}, Data: [][]byte{[]byte("x"), []byte("yy")}, Versions: []uint64{1, 2},
			StagedTxids: []uint64{99}, StagedWrites: [][]WriteItem{writes}, StagedParticipants: [][]NodeID{{0, 1}},
			MirrorFor: []NodeID{2}, MirrorAddrs: []Addr{12}, MirrorData: [][]byte{[]byte("z")}, MirrorVersions: []uint64{3},
		}},
		{
			name: "SnapshotStateResp/empty-inner",
			in:   &SnapshotStateResp{StagedTxids: []uint64{1}, StagedWrites: [][]WriteItem{{}}, StagedParticipants: [][]NodeID{nil}},
			want: &SnapshotStateResp{StagedTxids: []uint64{1}, StagedWrites: [][]WriteItem{nil}, StagedParticipants: [][]NodeID{nil}},
		},
		{name: "SnapshotStateResp/empty", in: &SnapshotStateResp{}},
		{name: "StatsReq", in: &StatsReq{}},
		{name: "StatsResp", in: &StatsResp{Items: 3, Commits: 1 << 40, Aborts: 2, BusyAborts: 1, Bytes: 12}},
		{name: "InDoubtReq", in: &InDoubtReq{MinAgeNanos: int64(time.Minute)}},
		{name: "InDoubtResp", in: &InDoubtResp{Txns: []InDoubtInfo{{Txid: 1, Participants: []NodeID{0, 1}, AgeNanos: 5}, {Txid: 2}}}},
		{name: "InDoubtResp/empty", in: &InDoubtResp{}},
		{name: "TxnStatusReq", in: &TxnStatusReq{Txid: 77}},
		{name: "TxnStatusResp", in: &TxnStatusResp{Status: TxnCommitted}},
	}
}

func encodeMsg(t testing.TB, msg any) []byte {
	t.Helper()
	n, err := MsgSize(msg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := AppendMsg(make([]byte, 0, n), msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != n || cap(p) != n {
		t.Fatalf("%T: MsgSize %d, encoded %d bytes (cap %d)", msg, n, len(p), cap(p))
	}
	return p
}

// TestMessageCodecRoundTrip covers every message type: encoding is exactly
// MsgSize bytes, decoding restores the message (empty lists as nil), and
// re-encoding the decoded message reproduces the bytes.
func TestMessageCodecRoundTrip(t *testing.T) {
	tags := make(map[byte]bool)
	for _, c := range codecCases() {
		t.Run(c.name, func(t *testing.T) {
			p := encodeMsg(t, c.in)
			tags[p[0]] = true
			got, err := DecodeMsg(p)
			if err != nil {
				t.Fatal(err)
			}
			want := c.want
			if want == nil {
				want = c.in
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded %+v, want %+v", got, want)
			}
			if again := encodeMsg(t, got); !bytes.Equal(again, p) {
				t.Fatalf("re-encoding differs:\n%x\n%x", again, p)
			}
		})
	}
	for tag := tagExecCommitReq; tag <= tagTxnStatusResp; tag++ {
		if !tags[tag] {
			t.Errorf("no test case encodes tag %d", tag)
		}
	}
}

func TestMessageCodecRejects(t *testing.T) {
	if _, err := MsgSize("not a message"); err == nil {
		t.Fatal("MsgSize accepted a non-message")
	}
	if _, err := AppendMsg(nil, struct{}{}); err == nil {
		t.Fatal("AppendMsg accepted a non-message")
	}
	bad := map[string][]byte{
		"empty":       {},
		"unknown tag": {0xEE},
		"tag 0":       {0},
		"trailing":    append(encodeMsg(t, &CommitReq{Txid: 1}), 0),
		"bool 2":      append(encodeMsg(t, &ReplicaResolveReq{})[:13], 2),
		// ReplicaApplyReq with one address and no data or versions.
		"parallel": encodeMsg(t, &ReplicaApplyReq{Addrs: []Addr{1}}),
	}
	for name, p := range bad {
		if msg, err := DecodeMsg(p); err == nil {
			t.Errorf("%s: decoded %+v", name, msg)
		}
	}
}

// checkPrefixes asserts decode rejects every strict prefix of a valid
// encoding p.
func checkPrefixes(t testing.TB, p []byte, decode func([]byte) error) {
	t.Helper()
	for i := 0; i < len(p); i++ {
		if err := decode(p[:i]); err == nil {
			t.Fatalf("strict prefix of %d/%d bytes decoded", i, len(p))
		}
	}
}

// allocBytes returns the bytes allocated by f (the least of a few runs, to
// shed unrelated background allocation).
func allocBytes(f func()) uint64 {
	var best uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < best {
			best = n
		}
	}
	return best
}

// checkHostileCounts overwrites every 4-byte window of a valid encoding p
// with 0xFFFFFFFF. Where the window holds an element count or a byte-string
// length, no input of this size can back it, so decoding must fail; in
// every case decoding must not allocate more than a small multiple of the
// input, because counts are bounded by the unread input before anything is
// allocated for them. (A decoded element takes at most a few times its
// minimum encoding in memory — a slice header for a 4-byte empty byte
// string — hence the multiple.)
func checkHostileCounts(t testing.TB, p []byte, decode func([]byte) error) {
	t.Helper()
	q := make([]byte, len(p))
	rejected := 0
	for off := 0; off+4 <= len(p); off++ {
		copy(q, p)
		binary.LittleEndian.PutUint32(q[off:], 0xFFFF_FFFF)
		var err error
		n := allocBytes(func() { err = decode(q) })
		if err != nil {
			rejected++
		}
		if limit := uint64(8*len(q) + 2048); n > limit {
			t.Fatalf("count at offset %d: decode allocated %d bytes for a %d-byte input (limit %d)", off, n, len(q), limit)
		}
	}
	if len(p) >= 4 && rejected == 0 {
		t.Fatalf("no 4-byte window of a %d-byte encoding was rejected as a count", len(p))
	}
}

func decodeMsgErr(p []byte) error {
	_, err := DecodeMsg(p)
	return err
}

func TestMessageCodecTruncationAndHostileCounts(t *testing.T) {
	for _, c := range codecCases() {
		p := encodeMsg(t, c.in)
		checkPrefixes(t, p, decodeMsgErr)
		checkHostileCounts(t, p, decodeMsgErr)
	}
}

// FuzzMessageCodec: arbitrary bytes never panic the decoder; whatever
// decodes re-encodes to exactly the same bytes; and no strict prefix of an
// accepted encoding is accepted.
func FuzzMessageCodec(f *testing.F) {
	for _, c := range codecCases() {
		f.Add(encodeMsg(f, c.in))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		msg, err := DecodeMsg(p)
		if err != nil {
			return
		}
		if again := encodeMsg(t, msg); !bytes.Equal(again, p) {
			t.Fatalf("decode→encode changed the bytes:\n in %x\nout %x", p, again)
		}
		if len(p) <= 4096 {
			checkPrefixes(t, p, decodeMsgErr)
		}
	})
}

// ---- WAL records and checkpoint state ----

func walRecordCases() [][]byte {
	st := &staged{
		writes:       []WriteItem{{Node: 0, Addr: 64, Data: []byte("staged")}, {Node: 0, Addr: 65}},
		addrs:        []Addr{64, 65, 66},
		participants: []NodeID{0, 1},
	}
	return [][]byte{
		encodeApplyRecord(false, &ReplicaApplyReq{From: 0, Addrs: []Addr{1, 2}, Data: [][]byte{[]byte("one"), nil}, Versions: []uint64{1, 7}}),
		encodeApplyRecord(true, &ReplicaApplyReq{From: 0, Txid: 9, Addrs: []Addr{3}, Data: [][]byte{[]byte("two")}, Versions: []uint64{2}}),
		encodeStageRecord(10, st),
		encodeStageRecord(11, &staged{}),
		encodeResolveRecord(12, true),
		encodeResolveRecord(13, false),
	}
}

// reencodeRecord decodes one WAL record and encodes it again.
func reencodeRecord(p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	var out []byte
	switch p[0] {
	case recApply:
		staged, rep := decodeApplyRecord(r)
		out = encodeApplyRecord(staged, rep)
	case recStage:
		txid, st := decodeStageRecord(r)
		out = encodeStageRecord(txid, st)
	case recResolve:
		txid, aborted := decodeResolveRecord(r)
		out = encodeResolveRecord(txid, aborted)
	default:
		return nil, errBadRecord
	}
	return out, finish(r)
}

func replayErr(p []byte) error { return NewMemnode(0).replayRecordLocked(p) }

func TestWALRecordCodec(t *testing.T) {
	for i, p := range walRecordCases() {
		if cap(p) != len(p) {
			t.Fatalf("record %d: %d bytes in a %d-byte buffer, want an exact-size encoding", i, len(p), cap(p))
		}
		again, err := reencodeRecord(p)
		if err != nil || !bytes.Equal(again, p) {
			t.Fatalf("record %d: decode→encode: %v\n in %x\nout %x", i, err, p, again)
		}
		if err := replayErr(p); err != nil {
			t.Fatalf("record %d: replay: %v", i, err)
		}
		checkPrefixes(t, p, replayErr)
		checkHostileCounts(t, p, replayErr)
	}
}

// TestWALRefusesFormat1 checks that records and checkpoints of the previous
// on-disk format are refused with a clear error, not misread.
func TestWALRefusesFormat1(t *testing.T) {
	for _, p := range [][]byte{{1, 0}, {2, 0}, {3, 0}} {
		if err := replayErr(p); err != errOldFormat {
			t.Fatalf("format-1 record tag %d: got %v, want errOldFormat", p[0], err)
		}
	}
	if err := NewMemnode(0).decodeStateLocked([]byte{1, 0, 0, 0, 0}); err == nil || !bytes.Contains([]byte(err.Error()), []byte("format 1")) {
		t.Fatalf("format-1 checkpoint: got %v", err)
	}
}

// stateNode builds a memnode with items, staged prepares, and outcomes.
func stateNode() *Memnode {
	m := NewMemnode(0)
	m.items[1] = &item{data: []byte("alpha"), version: 3}
	m.items[2] = &item{version: 1}
	m.items[1<<40] = &item{data: bytes.Repeat([]byte{7}, 300), version: 9}
	m.staged[55] = &staged{writes: []WriteItem{{Addr: 2, Data: []byte("b")}}, addrs: []Addr{2, 1}, participants: []NodeID{0, 4}}
	m.staged[56] = &staged{}
	m.outcomes.record(50, TxnCommitted)
	m.outcomes.record(51, TxnAborted)
	return m
}

// sameState compares the durable state of two memnodes.
func sameState(a, b *Memnode) bool {
	if len(a.items) != len(b.items) || len(a.staged) != len(b.staged) ||
		!reflect.DeepEqual(a.outcomes.order, b.outcomes.order) || !reflect.DeepEqual(a.outcomes.m, b.outcomes.m) {
		return false
	}
	for addr, it := range a.items {
		if o := b.items[addr]; o == nil || o.version != it.version || !bytes.Equal(o.data, it.data) {
			return false
		}
	}
	for txid, st := range a.staged {
		o := b.staged[txid]
		if o == nil || !reflect.DeepEqual(o.writes, st.writes) || !reflect.DeepEqual(o.addrs, st.addrs) ||
			!reflect.DeepEqual(o.participants, st.participants) {
			return false
		}
	}
	return true
}

func loadStateErr(p []byte) error { return NewMemnode(0).decodeStateLocked(p) }

// TestCheckpointStateCodec: the checkpoint is encoded in one exact-size
// buffer and loads back to the same state. Items and staged prepares live
// in maps, so encoding order varies between runs; the round-trip property is
// state equality rather than byte identity.
func TestCheckpointStateCodec(t *testing.T) {
	m := stateNode()
	p := m.encodeStateLocked()
	if len(p) != m.sizeStateLocked() || cap(p) != len(p) {
		t.Fatalf("checkpoint: %d bytes, cap %d, sizeStateLocked %d", len(p), cap(p), m.sizeStateLocked())
	}
	loaded := NewMemnode(0)
	if err := loaded.decodeStateLocked(p); err != nil {
		t.Fatal(err)
	}
	if !sameState(m, loaded) {
		t.Fatal("checkpoint did not load back to the same state")
	}
	// Loading copies: the state must not alias the checkpoint buffer.
	for i := range p {
		p[i] = 0xAA
	}
	if !sameState(m, loaded) {
		t.Fatal("loaded state aliases the checkpoint buffer")
	}
	p = m.encodeStateLocked()
	checkPrefixes(t, p, loadStateErr)
	checkHostileCounts(t, p, loadStateErr)
}

// FuzzWALRecord: arbitrary bytes never panic WAL replay or checkpoint load;
// a record that replays re-encodes to the same bytes, and no strict prefix
// of it replays; a checkpoint that loads re-encodes to a checkpoint that
// loads to the same state.
func FuzzWALRecord(f *testing.F) {
	for _, p := range walRecordCases() {
		f.Add(p)
	}
	f.Add(stateNode().encodeStateLocked())
	f.Fuzz(func(t *testing.T, p []byte) {
		if err := replayErr(p); err == nil {
			again, err := reencodeRecord(p)
			if err != nil || !bytes.Equal(again, p) {
				t.Fatalf("record decode→encode: %v\n in %x\nout %x", err, p, again)
			}
			if len(p) <= 4096 {
				checkPrefixes(t, p, replayErr)
			}
		}
		m := NewMemnode(0)
		if err := m.decodeStateLocked(p); err == nil {
			again := NewMemnode(0)
			if err := again.decodeStateLocked(m.encodeStateLocked()); err != nil || !sameState(m, again) {
				t.Fatalf("checkpoint reload: %v", err)
			}
		}
	})
}
