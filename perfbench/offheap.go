package main

import (
	"syscall"
	"unsafe"
)

// offHeap is an append-only list of pointer-free values kept in anonymous
// mmap'd memory, outside the Go heap. A window records millions of
// latencies and spans; on the heap they would raise the live heap as the
// window runs, so the GC would run less often late in a window than early
// and throughput would drift upward with the window's length. Not safe for
// concurrent use.
type offHeap[T any] struct {
	chunks []chunk[T]
	n      int
}

type chunk[T any] struct {
	vals   []T
	mapped []byte // nil when the chunk fell back to the Go heap
}

const offHeapChunk = 1 << 16 // values per chunk

func (b *offHeap[T]) add(v T) {
	if b.n == len(b.chunks)*offHeapChunk {
		b.chunks = append(b.chunks, newChunk[T](offHeapChunk))
	}
	b.chunks[b.n/offHeapChunk].vals[b.n%offHeapChunk] = v
	b.n++
}

func (b *offHeap[T]) len() int { return b.n }

// appendTo copies every value into dst, which must have room for them, and
// returns the rest of dst.
func (b *offHeap[T]) appendTo(dst []T) []T {
	for i, c := range b.chunks {
		n := min(offHeapChunk, b.n-i*offHeapChunk)
		dst = dst[copy(dst, c.vals[:n]):]
	}
	return dst
}

// each calls fn on every value in order.
func (b *offHeap[T]) each(fn func(T)) {
	for i, c := range b.chunks {
		for _, v := range c.vals[:min(offHeapChunk, b.n-i*offHeapChunk)] {
			fn(v)
		}
	}
}

// free releases the memory and empties the list.
func (b *offHeap[T]) free() {
	for _, c := range b.chunks {
		c.release()
	}
	b.chunks, b.n = nil, 0
}

// newChunk maps room for n values. Should the mapping fail, it falls back to
// the Go heap: the run goes on, only less isolated from its bookkeeping.
func newChunk[T any](n int) chunk[T] {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	if size == 0 {
		return chunk[T]{vals: make([]T, n)}
	}
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return chunk[T]{vals: make([]T, n)}
	}
	return chunk[T]{vals: unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), mapped: mem}
}

func (c chunk[T]) release() {
	if c.mapped != nil {
		// The pages are private to this process and nothing references
		// them any more; a failed unmap only leaks address space.
		_ = syscall.Munmap(c.mapped)
	}
}
