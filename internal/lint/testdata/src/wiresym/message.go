package wiresym

import "minuet/internal/wire"

// stageMsg is a message in the shape of the sinfonia codec: per-type
// append/decode pairs over wire.AppendTo and wire.Reader, with lists read
// through the bounded Reader.Count and byte strings through Slice32.
type stageMsg struct {
	Txid    uint64
	Aborted bool
	Addrs   []uint64
	Data    [][]byte
}

// appendStageMsg and decodeStageMsg drift by one field: the decoder forgot
// the Aborted flag.
func appendStageMsg(dst []byte, m *stageMsg) []byte { // want `wire codec drift between appendStageMsg and decodeStageMsg: op 2 written as bool but read as u32 \(encoder writes 10 ops, decoder reads 9\)`
	b := wire.AppendTo(dst)
	b.U64(m.Txid)
	b.Bool(m.Aborted)
	appendAddrList(&b, m.Addrs)
	b.U32(uint32(len(m.Data)))
	for _, p := range m.Data {
		b.Bytes32(p)
	}
	return b.Bytes()
}

func decodeStageMsg(r *wire.Reader) *stageMsg {
	m := &stageMsg{}
	m.Txid = r.U64()
	m.Addrs = decodeAddrList(r)
	m.Data = make([][]byte, r.Count(4))
	for i := range m.Data {
		m.Data[i] = r.Slice32()
	}
	return m
}

// appendAddrList and decodeAddrList are symmetric: Count reads the u32
// that U32 wrote.
func appendAddrList(b *wire.Buffer, as []uint64) {
	b.U32(uint32(len(as)))
	for _, a := range as {
		b.U64(a)
	}
}

func decodeAddrList(r *wire.Reader) []uint64 {
	as := make([]uint64, r.Count(8))
	for i := range as {
		as[i] = r.U64()
	}
	return as
}
