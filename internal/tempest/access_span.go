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
// Over home lines a span does better than a segment at a time: its run path
// (homeRun) passes every consecutive block whose home line already permits
// the access in one scan, and the whole run moves as one copy against the
// home image.  None of those blocks would fault in the scalar loop either, so
// the block the scan stops at takes the per-block path and the fault sequence
// is unchanged.
//
// Spans must start element-aligned (aggregates are allocated that way), so
// segments never straddle a block boundary mid-element.

// checkAligned panics unless a span of elem-byte elements starting at a is
// element-aligned; every later segment of the span then is too.
func checkAligned(a memsys.Addr, elem uint32) {
	if uint32(a)&(elem-1) != 0 {
		panic(fmt.Sprintf("tempest: span of %d-byte elements at %#x is not element-aligned", elem, a))
	}
}

// spanSeg returns the block, byte offset and element count of the span
// segment starting at a, covering at most max elements of size elem.
func (n *Node) spanSeg(a memsys.Addr, elem uint32, max int) (memsys.BlockID, uint32, int) {
	b, off := n.M.AS.Split(a)
	k := int((n.M.AS.BlockSize - off) / elem)
	if k > max {
		k = max
	}
	return b, off, k
}

// homeRun is the span run path.  With no effect outstanding it scans the
// blocks of the span of max elements of size elem at a, first block first,
// for home lines whose tags permit need, and returns how many of the
// elements the blocks it passed hold; the first block that fails ends the
// run and is the caller's to take through the per-block path.  A store run
// notes each block it passes with Machine.Lock.  It charges nothing: the
// caller moves the run with one copy against the home image and charges it
// as hits.
//
// It is out of line on purpose, unlike lineFor: one call covers a whole run,
// and a span whose lines are not home lines stops calling it after its first
// segment.
func (n *Node) homeRun(a memsys.Addr, elem uint32, max int, need Tag) int {
	if max == 0 || n.fxLen != 0 {
		return 0 // with posts outstanding a home line is withheld (lineFor)
	}
	bs := uint64(n.M.AS.BlockSize)
	b, off := n.M.AS.Split(a)
	end := uint64(off) + uint64(max)*uint64(elem) // the span, from b's start
	var got uint64
	for got < end {
		l := n.lines[b]
		if l == nil || !l.home || l.tag < need {
			break
		}
		if need == TagReadWrite {
			n.M.Lock(b)
		}
		got += bs
		b++
	}
	if got == 0 {
		return 0
	}
	return int((min(got, end) - uint64(off)) / uint64(elem))
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
	checkAligned(a, elem)
	for run := true; len(dst) > 0; {
		if run {
			k := n.homeRun(a, elem, len(dst), TagReadOnly)
			n.hits(int64(k))
			copy(dst[:k], memsys.View[T](n.M.AS.HomeBytes(a, k*int(elem))))
			dst, a = dst[k:], a+memsys.Addr(uint32(k)*elem)
			if len(dst) == 0 {
				return
			}
		}
		b, off, k := n.spanSeg(a, elem, len(dst))
		l := n.loadSeg(b, int64(k))
		copy(dst[:k], memsys.View[T](l.Data[off:]))
		dst, a, run = dst[k:], a+memsys.Addr(uint32(k)*elem), l.home
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
	checkAligned(a, elem)
	for run := true; len(src) > 0; {
		if run {
			k := n.homeRun(a, elem, len(src), TagReadWrite)
			n.hits(int64(k))
			copy(n.M.AS.HomeBytes(a, k*int(elem)), memsys.Bytes(src[:k]))
			src, a = src[k:], a+memsys.Addr(uint32(k)*elem)
			if len(src) == 0 {
				return
			}
		}
		_, _, k := n.spanSeg(a, elem, len(src))
		l := n.storeAt(a, memsys.Bytes(src[:k]), int64(k))
		src, a, run = src[k:], a+memsys.Addr(uint32(k)*elem), l.home
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
// the destination with no staging buffer; a run over home lines on both
// sides is one copy within the home image.
func CopySpan[T memsys.Word](n *Node, dst, src memsys.Addr, k int) {
	elem := memsys.SizeOf[T]()
	if n.M.ScalarAccess {
		for i := 0; i < k; i++ {
			off := memsys.Addr(uint32(i) * elem)
			Write(n, dst+off, Read[T](n, src+off))
		}
		return
	}
	checkAligned(src, elem)
	checkAligned(dst, elem)
	as := n.M.AS
	for run := true; k > 0; {
		if run {
			kk := n.homeRun(dst, elem, n.homeRun(src, elem, k, TagReadOnly), TagReadWrite)
			n.hits(2 * int64(kk))
			copy(as.HomeBytes(dst, kk*int(elem)), as.HomeBytes(src, kk*int(elem)))
			k -= kk
			src += memsys.Addr(uint32(kk) * elem)
			dst += memsys.Addr(uint32(kk) * elem)
			if k == 0 {
				return
			}
		}
		sb, soff, kk := n.spanSeg(src, elem, k)
		_, _, kk = n.spanSeg(dst, elem, kk)
		l := n.loadSeg(sb, int64(kk))
		d := n.storeAt(dst, l.Data[soff:soff+uint32(kk)*elem], int64(kk))
		run = l.home && d.home
		k -= kk
		src += memsys.Addr(uint32(kk) * elem)
		dst += memsys.Addr(uint32(kk) * elem)
	}
}
