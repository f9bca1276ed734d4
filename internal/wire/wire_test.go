package wire

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBufferReaderRoundTrip(t *testing.T) {
	w := NewBuffer(64)
	w.U8(0xAB)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.Bytes16([]byte("hello"))
	w.Bytes32([]byte("world!"))
	w.Fence(NegInf)
	w.Fence(PosInf)
	w.Fence(FenceAt(Key("mid")))

	r := NewReader(w.Bytes())
	if r.U8() != 0xAB || r.U16() != 0xBEEF || r.U32() != 0xDEADBEEF || r.U64() != 0x0123456789ABCDEF {
		t.Fatal("integer round trip failed")
	}
	if string(r.Slice16()) != "hello" || string(r.Bytes32()) != "world!" {
		t.Fatal("byte-string round trip failed")
	}
	if !r.Fence().IsNegInf() || !r.Fence().IsPosInf() {
		t.Fatal("sentinel fences failed")
	}
	f := r.Fence()
	if f.IsNegInf() || f.IsPosInf() || string(f.Key()) != "mid" {
		t.Fatalf("key fence failed: %v", f)
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

// TestQuickIntegers round-trips random integers through the codec.
func TestQuickIntegers(t *testing.T) {
	f := func(a uint8, b uint16, c uint32, d uint64) bool {
		w := NewBuffer(32)
		w.U8(a)
		w.U16(b)
		w.U32(c)
		w.U64(d)
		r := NewReader(w.Bytes())
		return r.U8() == a && r.U16() == b && r.U32() == c && r.U64() == d && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBytes round-trips random byte strings.
func TestQuickBytes(t *testing.T) {
	f := func(p []byte) bool {
		if len(p) > 0xFFFF {
			p = p[:0xFFFF]
		}
		w := NewBuffer(len(p) + 8)
		w.Bytes16(p)
		w.Bytes32(p)
		r := NewReader(w.Bytes())
		a := r.Slice16()
		b := r.Bytes32()
		return bytes.Equal(a, p) && bytes.Equal(b, p) && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTruncationIsError verifies that any truncation of a valid encoding
// produces an error, never a panic or silent garbage.
func TestTruncationIsError(t *testing.T) {
	w := NewBuffer(64)
	w.U64(7)
	w.Bytes16([]byte("payload"))
	w.Fence(FenceAt(Key("k")))
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.U64()
		r.Slice16()
		r.Fence()
		if r.Err() == nil {
			t.Fatalf("truncation at %d went undetected", cut)
		}
	}
}

func TestFenceOrdering(t *testing.T) {
	ks := []Key{nil, Key(""), Key("a"), Key("ab"), Key("b")}
	for _, k := range ks {
		if NegInf.CompareKey(k) != 1 {
			t.Fatalf("-inf vs %q", k)
		}
		if PosInf.CompareKey(k) != -1 {
			t.Fatalf("+inf vs %q", k)
		}
	}
	if FenceAt(Key("m")).CompareKey(Key("a")) != -1 {
		t.Fatal("a < m")
	}
	if FenceAt(Key("m")).CompareKey(Key("m")) != 0 {
		t.Fatal("m == m")
	}
	if FenceAt(Key("m")).CompareKey(Key("z")) != 1 {
		t.Fatal("z > m")
	}
	// Fence-vs-fence ordering.
	if NegInf.Compare(PosInf) >= 0 || PosInf.Compare(NegInf) <= 0 {
		t.Fatal("sentinel order")
	}
	if NegInf.Compare(NegInf) != 0 || PosInf.Compare(PosInf) != 0 {
		t.Fatal("sentinel self-compare")
	}
	if NegInf.Compare(FenceAt(Key(""))) >= 0 || FenceAt(Key("")).Compare(PosInf) >= 0 {
		t.Fatal("empty key between sentinels")
	}
	if FenceAt(Key("a")).Compare(FenceAt(Key("b"))) >= 0 {
		t.Fatal("a < b as fences")
	}
}

// TestQuickFenceConsistency: CompareKey must agree with Compare through
// FenceAt for arbitrary keys.
func TestQuickFenceConsistency(t *testing.T) {
	f := func(a, b []byte) bool {
		fa := FenceAt(a)
		cmpKey := fa.CompareKey(b)     // orders b against fence a: -1 ⇔ b < a
		cmpF := FenceAt(b).Compare(fa) // orders fence b against fence a
		return cmpKey == cmpF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestU64KeyOrderMatchesNumericOrder(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		a, b := r.Uint64(), r.Uint64()
		ka, kb := U64Key(a), U64Key(b)
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b && cmp >= 0, a > b && cmp <= 0, a == b && cmp != 0:
			t.Fatalf("order mismatch: %d vs %d -> %d", a, b, cmp)
		}
		if KeyU64(ka) != a {
			t.Fatalf("U64Key round trip: %d", a)
		}
	}
}

func TestCloneKeyIndependent(t *testing.T) {
	k := Key("abc")
	c := CloneKey(k)
	k[0] = 'z'
	if string(c) != "abc" {
		t.Fatal("clone aliases source")
	}
}

func TestFenceMarkerGarbage(t *testing.T) {
	r := NewReader([]byte{99})
	r.Fence()
	if r.Err() == nil {
		t.Fatal("bad fence marker must error")
	}
}

// TestCountBoolSlice32 covers the reads the message codec is built on:
// Count bounds a count by the unread input, Bool accepts only 0 and 1, and
// Slice32 aliases the input (nil when empty).
func TestCountBoolSlice32(t *testing.T) {
	b := AppendTo(nil)
	b.U32(2)
	b.U64(7)
	b.U64(8)
	b.Bool(true)
	b.Bytes32([]byte("abc"))
	b.Bytes32(nil)
	p := b.Bytes()

	r := NewReader(p)
	if n := r.Count(8); n != 2 {
		t.Fatalf("Count = %d, want 2", n)
	}
	r.U64()
	r.U64()
	if !r.Bool() {
		t.Fatal("Bool = false, want true")
	}
	s := r.Slice32()
	if string(s) != "abc" || &s[0] != &p[len(p)-7] {
		t.Fatalf("Slice32 = %q, want an alias of the input", s)
	}
	if e := r.Slice32(); e != nil || r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("empty Slice32 = %v, err %v, %d bytes left", e, r.Err(), r.Remaining())
	}

	// Two 8-byte elements cannot fit in the 8 bytes after the count.
	r = NewReader(p[:12])
	if n := r.Count(8); n != 0 || r.Err() == nil {
		t.Fatalf("over-long count: n=%d err=%v", n, r.Err())
	}
	r = NewReader([]byte{2})
	if r.Bool(); r.Err() == nil {
		t.Fatal("Bool accepted 2")
	}
}

// TestSlice16AliasesAndCaps: Slice16 returns the input's own bytes, capped
// so that appending to the result reallocates rather than overwriting the
// bytes that follow; an empty string reads as empty and non-nil.
func TestSlice16AliasesAndCaps(t *testing.T) {
	b := AppendTo(nil)
	b.Bytes16([]byte("abc"))
	b.Bytes16(nil)
	b.U8(0x5A)
	p := b.Bytes()

	r := NewReader(p)
	s := r.Slice16()
	if string(s) != "abc" || &s[0] != &p[2] || cap(s) != len(s) {
		t.Fatalf("Slice16 = %q (cap %d), want a capped alias of the input", s, cap(s))
	}
	_ = append(s, 'X')
	if e := r.Slice16(); e == nil || len(e) != 0 {
		t.Fatalf("empty Slice16 = %#v, want empty non-nil", e)
	}
	if v := r.U8(); v != 0x5A || r.Err() != nil {
		t.Fatalf("append through Slice16 result clobbered the input: %#x, err %v", v, r.Err())
	}

	// A length past the end of the input is an error, not a short slice.
	r = NewReader([]byte{4, 0, 'a', 'b'})
	if s := r.Slice16(); s != nil || r.Err() == nil {
		t.Fatalf("over-long Slice16 = %q, err %v", s, r.Err())
	}
}
