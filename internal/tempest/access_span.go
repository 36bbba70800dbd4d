package tempest

import (
	"fmt"

	"lcm/internal/memsys"
)

// Span accessors: bulk loads, stores and copies over [a, a+k*elem) that pay
// the Blizzard-E lookup once per block segment instead of once per element.
// Each span splits at block boundaries; within one segment a single tag
// check (and at most one fault and one makeRoom) covers the whole
// transfer, which is then one copy between the caller's slice and the view
// of the line — no element loop, no staging buffer — while the virtual-cycle
// accounting charges k × Cost.CacheHit and Ctr.Hits += k exactly as k scalar
// accesses would.  The per-block fault sequence is identical to the scalar
// path's: a scalar loop touching the same range faults each block once, at
// its first element, in the same order.  With Machine.ScalarAccess set every
// span decomposes into the scalar accessors so differential tests can assert
// that equivalence.
//
// Spans must start element-aligned (aggregates are allocated that way), so
// segments never straddle a block boundary mid-element.

// spanSeg returns the block, byte offset and element count of the span
// segment starting at a, covering at most max elements of size elem.
func (n *Node) spanSeg(a memsys.Addr, elem uint32, max int) (memsys.BlockID, uint32, int) {
	b, off := n.M.AS.Split(a)
	if off&(elem-1) != 0 {
		panic(fmt.Sprintf("tempest: span of %d-byte elements at %#x is not element-aligned", elem, a))
	}
	k := int((n.M.AS.BlockSize - off) / elem)
	if k > max {
		k = max
	}
	return b, off, k
}

// ReadSpan loads len(dst) consecutive elements starting at a.
func ReadSpan[T memsys.Word](n *Node, a memsys.Addr, dst []T) {
	elem := memsys.SizeOf[T]()
	if n.M.ScalarAccess {
		for i := range dst {
			dst[i] = Read[T](n, a+memsys.Addr(uint32(i)*elem))
		}
		return
	}
	for len(dst) > 0 {
		b, off, k := n.spanSeg(a, elem, len(dst))
		copy(dst[:k], memsys.View[T](n.loadSeg(b, int64(k)).Data[off:]))
		dst = dst[k:]
		a += memsys.Addr(uint32(k) * elem)
	}
}

// WriteSpan stores the elements of src consecutively starting at a.
func WriteSpan[T memsys.Word](n *Node, a memsys.Addr, src []T) {
	elem := memsys.SizeOf[T]()
	if n.M.ScalarAccess {
		for i, v := range src {
			Write(n, a+memsys.Addr(uint32(i)*elem), v)
		}
		return
	}
	for len(src) > 0 {
		_, _, k := n.spanSeg(a, elem, len(src))
		n.storeAt(a, memsys.Bytes(src[:k]), int64(k))
		src = src[k:]
		a += memsys.Addr(uint32(k) * elem)
	}
}

// ReadSpanF32 loads len(dst) consecutive single-precision floats.
func (n *Node) ReadSpanF32(a memsys.Addr, dst []float32) { ReadSpan(n, a, dst) }

// WriteSpanF32 stores the floats of src consecutively starting at a.
func (n *Node) WriteSpanF32(a memsys.Addr, src []float32) { WriteSpan(n, a, src) }

// CopySpan copies k elements of type T from src to dst through the tagged
// access path, exactly as the scalar loop
// "for i: store(dst+i*elem, load(src+i*elem))" would: segments split at
// the earliest next block boundary of either the source or the
// destination, and each segment performs its loads (one tag check) then
// its stores (one tag check), so the per-block fault order matches the
// element-by-element loop's.  Data moves directly from the source line to
// the destination with no staging buffer.
func CopySpan[T memsys.Word](n *Node, dst, src memsys.Addr, k int) {
	elem := memsys.SizeOf[T]()
	if n.M.ScalarAccess {
		for i := 0; i < k; i++ {
			off := memsys.Addr(uint32(i) * elem)
			Write(n, dst+off, Read[T](n, src+off))
		}
		return
	}
	for k > 0 {
		sb, soff, kk := n.spanSeg(src, elem, k)
		_, _, kk = n.spanSeg(dst, elem, kk)
		l := n.loadSeg(sb, int64(kk))
		n.storeAt(dst, l.Data[soff:soff+uint32(kk)*elem], int64(kk))
		k -= kk
		src += memsys.Addr(uint32(kk) * elem)
		dst += memsys.Addr(uint32(kk) * elem)
	}
}
