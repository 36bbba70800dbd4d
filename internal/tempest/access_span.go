package tempest

import (
	"encoding/binary"
	"fmt"
	"math"

	"lcm/internal/memsys"
)

// Span accessors: bulk loads and stores over [a, a+k*elem) that pay the
// Blizzard-E lookup once per block segment instead of once per element.
// Each span splits at block boundaries; within one segment a single tag
// check (and at most one fault and one makeRoom) covers the whole
// transfer, which is then a bulk copy, while the virtual-cycle accounting charges k × Cost.CacheHit
// and Ctr.Hits += k exactly as k scalar accesses would.  The per-block
// fault sequence is identical to the scalar path's: a scalar loop touching
// the same range faults each block once, at its first element, in the same
// order.  With Machine.ScalarAccess set every span decomposes into the
// scalar accessors so differential tests can assert that equivalence.
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

// ReadSpanU32 loads len(dst) consecutive 32-bit words starting at a.
func (n *Node) ReadSpanU32(a memsys.Addr, dst []uint32) {
	if n.M.ScalarAccess {
		for i := range dst {
			dst[i] = n.ReadU32(a + memsys.Addr(4*i))
		}
		return
	}
	for len(dst) > 0 {
		b, off, k := n.spanSeg(a, 4, len(dst))
		seg := n.loadSeg(b, int64(k)).Data[off:]
		for i := 0; i < k; i++ {
			dst[i] = binary.LittleEndian.Uint32(seg[4*i:])
		}
		dst = dst[k:]
		a += memsys.Addr(4 * k)
	}
}

// WriteSpanU32 stores the words of src consecutively starting at a.
func (n *Node) WriteSpanU32(a memsys.Addr, src []uint32) {
	if n.M.ScalarAccess {
		for i, v := range src {
			n.WriteU32(a+memsys.Addr(4*i), v)
		}
		return
	}
	for len(src) > 0 {
		_, _, k := n.spanSeg(a, 4, len(src))
		buf := n.spanBuf[:4*k]
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], src[i])
		}
		n.storeAt(a, buf, int64(k))
		src = src[k:]
		a += memsys.Addr(4 * k)
	}
}

// ReadSpanU64 loads len(dst) consecutive 64-bit words starting at a.
func (n *Node) ReadSpanU64(a memsys.Addr, dst []uint64) {
	if n.M.ScalarAccess {
		for i := range dst {
			dst[i] = n.ReadU64(a + memsys.Addr(8*i))
		}
		return
	}
	for len(dst) > 0 {
		b, off, k := n.spanSeg(a, 8, len(dst))
		seg := n.loadSeg(b, int64(k)).Data[off:]
		for i := 0; i < k; i++ {
			dst[i] = binary.LittleEndian.Uint64(seg[8*i:])
		}
		dst = dst[k:]
		a += memsys.Addr(8 * k)
	}
}

// WriteSpanU64 stores the words of src consecutively starting at a.
func (n *Node) WriteSpanU64(a memsys.Addr, src []uint64) {
	if n.M.ScalarAccess {
		for i, v := range src {
			n.WriteU64(a+memsys.Addr(8*i), v)
		}
		return
	}
	for len(src) > 0 {
		_, _, k := n.spanSeg(a, 8, len(src))
		buf := n.spanBuf[:8*k]
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], src[i])
		}
		n.storeAt(a, buf, int64(k))
		src = src[k:]
		a += memsys.Addr(8 * k)
	}
}

// ReadSpanF32 loads len(dst) consecutive single-precision floats.
func (n *Node) ReadSpanF32(a memsys.Addr, dst []float32) {
	if n.M.ScalarAccess {
		for i := range dst {
			dst[i] = n.ReadF32(a + memsys.Addr(4*i))
		}
		return
	}
	for len(dst) > 0 {
		b, off, k := n.spanSeg(a, 4, len(dst))
		seg := n.loadSeg(b, int64(k)).Data[off:]
		for i := 0; i < k; i++ {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(seg[4*i:]))
		}
		dst = dst[k:]
		a += memsys.Addr(4 * k)
	}
}

// WriteSpanF32 stores the floats of src consecutively starting at a.
func (n *Node) WriteSpanF32(a memsys.Addr, src []float32) {
	if n.M.ScalarAccess {
		for i, v := range src {
			n.WriteF32(a+memsys.Addr(4*i), v)
		}
		return
	}
	for len(src) > 0 {
		_, _, k := n.spanSeg(a, 4, len(src))
		buf := n.spanBuf[:4*k]
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(src[i]))
		}
		n.storeAt(a, buf, int64(k))
		src = src[k:]
		a += memsys.Addr(4 * k)
	}
}

// ReadSpanF64 loads len(dst) consecutive double-precision floats.
func (n *Node) ReadSpanF64(a memsys.Addr, dst []float64) {
	if n.M.ScalarAccess {
		for i := range dst {
			dst[i] = n.ReadF64(a + memsys.Addr(8*i))
		}
		return
	}
	for len(dst) > 0 {
		b, off, k := n.spanSeg(a, 8, len(dst))
		seg := n.loadSeg(b, int64(k)).Data[off:]
		for i := 0; i < k; i++ {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(seg[8*i:]))
		}
		dst = dst[k:]
		a += memsys.Addr(8 * k)
	}
}

// WriteSpanF64 stores the floats of src consecutively starting at a.
func (n *Node) WriteSpanF64(a memsys.Addr, src []float64) {
	if n.M.ScalarAccess {
		for i, v := range src {
			n.WriteF64(a+memsys.Addr(8*i), v)
		}
		return
	}
	for len(src) > 0 {
		_, _, k := n.spanSeg(a, 8, len(src))
		buf := n.spanBuf[:8*k]
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(src[i]))
		}
		n.storeAt(a, buf, int64(k))
		src = src[k:]
		a += memsys.Addr(8 * k)
	}
}

// ReadSpanI32 loads len(dst) consecutive 32-bit signed integers.
func (n *Node) ReadSpanI32(a memsys.Addr, dst []int32) {
	if n.M.ScalarAccess {
		for i := range dst {
			dst[i] = n.ReadI32(a + memsys.Addr(4*i))
		}
		return
	}
	for len(dst) > 0 {
		b, off, k := n.spanSeg(a, 4, len(dst))
		seg := n.loadSeg(b, int64(k)).Data[off:]
		for i := 0; i < k; i++ {
			dst[i] = int32(binary.LittleEndian.Uint32(seg[4*i:]))
		}
		dst = dst[k:]
		a += memsys.Addr(4 * k)
	}
}

// WriteSpanI32 stores the integers of src consecutively starting at a.
func (n *Node) WriteSpanI32(a memsys.Addr, src []int32) {
	if n.M.ScalarAccess {
		for i, v := range src {
			n.WriteI32(a+memsys.Addr(4*i), v)
		}
		return
	}
	for len(src) > 0 {
		_, _, k := n.spanSeg(a, 4, len(src))
		buf := n.spanBuf[:4*k]
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(src[i]))
		}
		n.storeAt(a, buf, int64(k))
		src = src[k:]
		a += memsys.Addr(4 * k)
	}
}

// ReadSpanI64 loads len(dst) consecutive 64-bit signed integers.
func (n *Node) ReadSpanI64(a memsys.Addr, dst []int64) {
	if n.M.ScalarAccess {
		for i := range dst {
			dst[i] = n.ReadI64(a + memsys.Addr(8*i))
		}
		return
	}
	for len(dst) > 0 {
		b, off, k := n.spanSeg(a, 8, len(dst))
		seg := n.loadSeg(b, int64(k)).Data[off:]
		for i := 0; i < k; i++ {
			dst[i] = int64(binary.LittleEndian.Uint64(seg[8*i:]))
		}
		dst = dst[k:]
		a += memsys.Addr(8 * k)
	}
}

// WriteSpanI64 stores the integers of src consecutively starting at a.
func (n *Node) WriteSpanI64(a memsys.Addr, src []int64) {
	if n.M.ScalarAccess {
		for i, v := range src {
			n.WriteI64(a+memsys.Addr(8*i), v)
		}
		return
	}
	for len(src) > 0 {
		_, _, k := n.spanSeg(a, 8, len(src))
		buf := n.spanBuf[:8*k]
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(src[i]))
		}
		n.storeAt(a, buf, int64(k))
		src = src[k:]
		a += memsys.Addr(8 * k)
	}
}

// CopySpan copies k elements of elem bytes (4 or 8) from src to dst
// through the tagged access path, exactly as the scalar loop
// "for i: store(dst+i*elem, load(src+i*elem))" would: segments split at
// the earliest next block boundary of either the source or the
// destination, and each segment performs its loads (one tag check) then
// its stores (one tag check), so the per-block fault order matches the
// element-by-element loop's.  Data moves directly from the source line to
// the destination with no staging buffer.
func (n *Node) CopySpan(dst, src memsys.Addr, k int, elem uint32) {
	if elem != 4 && elem != 8 {
		panic(fmt.Sprintf("tempest: CopySpan element size %d (want 4 or 8)", elem))
	}
	if n.M.ScalarAccess {
		for i := 0; i < k; i++ {
			d, s := dst+memsys.Addr(uint32(i)*elem), src+memsys.Addr(uint32(i)*elem)
			if elem == 4 {
				n.WriteU32(d, n.ReadU32(s))
			} else {
				n.WriteU64(d, n.ReadU64(s))
			}
		}
		return
	}
	for k > 0 {
		sb, soff, kk := n.spanSeg(src, elem, k)
		_, _, dk := n.spanSeg(dst, elem, kk)
		kk = dk
		l := n.loadSeg(sb, int64(kk))
		n.storeAt(dst, l.Data[soff:soff+uint32(kk)*elem], int64(kk))
		k -= kk
		src += memsys.Addr(uint32(kk) * elem)
		dst += memsys.Addr(uint32(kk) * elem)
	}
}

// FillSpanF32 stores v to k consecutive float32 elements starting at a.
func (n *Node) FillSpanF32(a memsys.Addr, k int, v float32) {
	if n.M.ScalarAccess {
		for i := 0; i < k; i++ {
			n.WriteF32(a+memsys.Addr(4*i), v)
		}
		return
	}
	for k > 0 {
		_, _, kk := n.spanSeg(a, 4, k)
		buf := n.spanBuf[:4*kk]
		for i := 0; i < kk; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		n.storeAt(a, buf, int64(kk))
		k -= kk
		a += memsys.Addr(4 * kk)
	}
}
