package core

import (
	"bytes"
	"fmt"
	"testing"

	"minuet/internal/sinfonia"
	"minuet/internal/wire"
)

// sampleNode builds a node with nKeys YCSB-shaped keys: a leaf with 8-byte
// values when height is 0, otherwise an interior node with nKeys+1 kids.
func sampleNode(height uint8, nKeys int) *Node {
	n := &Node{
		Tree: 1, Height: height, Created: 3, Copied: NoSnap,
		Low: wire.FenceAt(key(0)), High: wire.FenceAt(key(1 << 20)),
	}
	for i := 0; i < nKeys; i++ {
		n.Keys = append(n.Keys, key(i+1))
		if height == 0 {
			n.Vals = append(n.Vals, val(i))
		}
	}
	if height > 0 {
		for i := 0; i <= nKeys; i++ {
			n.Kids = append(n.Kids, Ptr{Node: sinfonia.NodeID(i % 3), Addr: sinfonia.Addr(4096 * (i + 1))})
		}
	}
	return n
}

// FuzzNodeCodec checks the node decoder on arbitrary input: it never
// panics; whatever it accepts re-encodes to the same bytes; and the keys,
// values and fence keys it returns, which alias the input, are capped so
// that appending to them cannot write into the input.
func FuzzNodeCodec(f *testing.F) {
	// The random-bytes cases of the decoder tests, plus valid images.
	f.Add([]byte("garbage"))
	f.Add([]byte(nil))
	f.Add([]byte{nodeMagic})
	f.Add(append([]byte{nodeMagic}, make([]byte, HeaderLen)...))
	f.Add(sampleNode(0, 4).encode())
	f.Add(sampleNode(2, 4).encode())
	withRedirect := sampleNode(1, 2)
	withRedirect.Low, withRedirect.High = wire.NegInf, wire.PosInf
	withRedirect.Redirects = []Redirect{{Sid: 9, Ptr: Ptr{Node: 2, Addr: 64}}}
	f.Add(withRedirect.encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		orig := bytes.Clone(data)
		n, err := decodeNode(data)
		if err != nil {
			return
		}
		if enc := n.encode(); !bytes.Equal(enc, orig) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", enc, orig)
		}
		grow := func(p []byte) { _ = append(p, 0xA5, 0x5A, 0xA5, 0x5A) }
		for i := range n.Keys {
			grow(n.Keys[i])
		}
		for i := range n.Vals {
			grow(n.Vals[i])
		}
		for _, f := range []wire.Fence{n.Low, n.High} {
			if !f.IsNegInf() && !f.IsPosInf() {
				grow(f.Key())
			}
		}
		if !bytes.Equal(data, orig) {
			t.Fatalf("appending to a decoded field changed the input:\n got %x\nwant %x", data, orig)
		}
	})
}

// TestDecodeNodeAllocsConstant: decoding copies nothing, so a node costs a
// fixed number of allocations (the Node and its Keys plus Vals or Kids)
// however many keys it holds.
func TestDecodeNodeAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	const budget = 3
	for _, tc := range []struct {
		height uint8
		keys   int
	}{{0, 8}, {0, 128}, {1, 8}, {1, 136}} {
		data := sampleNode(tc.height, tc.keys).encode()
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := decodeNode(data); err != nil {
				panic(err)
			}
		})
		name := fmt.Sprintf("height %d, %d keys", tc.height, tc.keys)
		if allocs > budget {
			t.Errorf("%s: %.0f allocations per decode, want at most %d", name, allocs, budget)
		}
	}
}

// TestCompactKeysDetachesImage: a node compacted for the interior cache
// keeps its keys and fences but no longer shares bytes with the image it
// was decoded from.
func TestCompactKeysDetachesImage(t *testing.T) {
	data := sampleNode(1, 16).encode()
	n, err := decodeNode(data)
	if err != nil {
		t.Fatal(err)
	}
	n.compactKeys()
	for i := range data {
		data[i] = 0
	}
	want := sampleNode(1, 16)
	if !bytes.Equal(n.encode(), want.encode()) {
		t.Fatalf("compacted node changed with its source image: %v", n)
	}
}
