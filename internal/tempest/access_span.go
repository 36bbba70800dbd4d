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

// homeRun is the span run path.  It scans the access bytes of the blocks of
// the span of max elements of size elem at a, first block first, for home
// lines whose tags permit need, and returns how many of the elements the
// blocks it passed hold; the first block that fails ends the run and is the
// caller's to take through the per-block path.  A store run notes each block
// it passes with Machine.Lock.  It charges nothing: the caller moves the run
// with one copy against the home image and charges it as hits.
//
// With posts outstanding a home line is withheld (tagFor), so the scan passes
// nothing — unless it is a load from one region declared read-only for the
// epoch, or runs over blocks the node owns for it (the run then ends at the
// first it does not own), which loadFault and storeFault serve without
// draining too.  The owned test runs only over the blocks the home test
// passed: a span whose blocks fault one by one, each followed by a scan of
// the rest, then costs no more than its blocks, not their square.
//
// It is out of line on purpose, unlike tagFor: one call covers a whole run,
// and a span whose lines are not home lines stops calling it after its first
// segment.
func (n *Node) homeRun(a memsys.Addr, elem uint32, max int, need Tag) int {
	k, passed := n.homeScan(a, elem, max, need)
	if need == TagReadWrite {
		n.lockBlocks(a, passed)
	}
	return k
}

// homeScan is homeRun without the store run's notes: it returns how many of
// the max elements the run covers and how many blocks it passed.
func (n *Node) homeScan(a memsys.Addr, elem uint32, max int, need Tag) (k, passed int) {
	if max == 0 {
		return 0, 0
	}
	bs := uint64(n.M.AS.BlockSize)
	b, off := n.M.AS.Split(a)
	end := uint64(off) + uint64(max)*uint64(elem) // the span, from b's start
	tags := n.tags[b : uint64(b)+(end+bs-1)/bs]
	passed = homePrefix(tags, byte(need)<<tagShift)
	if passed != 0 && n.fxLen != 0 && (need != TagReadOnly || !n.M.readOnlyRun(b, b+memsys.BlockID(len(tags)-1))) {
		passed = n.ownedPrefix(b, passed)
	}
	if passed == 0 {
		return 0, 0
	}
	return int((min(uint64(passed)*bs, end) - uint64(off)) / uint64(elem)), passed
}

// lockBlocks notes the count blocks from a's on with Machine.Lock, first
// first: what a store run over them notes.
func (n *Node) lockBlocks(a memsys.Addr, count int) {
	b := n.M.AS.Block(a)
	for i := 0; i < count; i++ {
		n.M.Lock(b + memsys.BlockID(i))
	}
}

// homePrefix returns how many of tags, from the first, are home lines whose
// access byte is need (loadOK or storeOK) or above, testing eight at a time
// while it can: a word passes when every byte has lineHome and, in its top
// two bits, a tag of need's or above.  A home line is never private, so such
// a tag is bit 7 for storeOK and bit 7 or 6 for loadOK.
func homePrefix(tags []byte, need byte) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	i := 0
	for ; i+8 <= len(tags); i += 8 {
		w := load64(tags[i:])
		hi := w
		if need == loadOK {
			hi |= w << 1
		}
		if w&(ones*uint64(lineHome)) != ones*uint64(lineHome) || hi&highs != highs {
			break
		}
	}
	for ; i < len(tags) && tags[i]&lineHome != 0 && tags[i] >= need; i++ {
	}
	return i
}

// load64 reads eight bytes of t little-endian, which the compiler turns into
// one load.
func load64(t []byte) uint64 {
	_ = t[7]
	return uint64(t[0]) | uint64(t[1])<<8 | uint64(t[2])<<16 | uint64(t[3])<<24 |
		uint64(t[4])<<32 | uint64(t[5])<<40 | uint64(t[6])<<48 | uint64(t[7])<<56
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
		t := n.loadSeg(b, int64(k))
		buf, o := n.lineAt(b, t)
		copy(dst[:k], memsys.View[T](buf[o+off:]))
		dst, a, run = dst[k:], a+memsys.Addr(uint32(k)*elem), t&lineHome != 0
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
		t := n.storeAt(a, memsys.Bytes(src[:k]), int64(k))
		src, a, run = src[k:], a+memsys.Addr(uint32(k)*elem), t&lineHome != 0
	}
}

// In-place spans: ReadView and StoreView hand the caller the home image of a
// span instead of moving it through a buffer, when that is exact.
//
//   - A read view exists only for a span of one region declared read-only for
//     the epoch (DeclareReadOnly).  Such a region's lines are home lines (the
//     declaration is a no-op on a region whose lines are copies), and nobody
//     writes its home image before the next barrier: the program declared so,
//     and a write that faults fails with a DeclarationError.  So the view
//     holds, until that barrier, exactly what ReadSpan would have copied at
//     the read.
//   - A store view is handed out only when the run path covers the whole span
//     for a store, so that no fault can intervene: the stores are then hits
//     whatever the caller computes, and between the up-front charge and the
//     stores there is no scheduling point, only the caller's plain clock
//     additions, which commute with it.
//
// Everywhere else, and under Machine.ScalarAccess, the caller goes through
// ReadSpan and WriteSpan with a buffer of its own.

// ReadView loads the len(buf) consecutive elements at a, with exactly
// ReadSpan's faults, clocks and hits, and returns them.  Over a region
// declared read-only for the epoch it copies nothing and returns the span's
// home image, which the caller must not write and which is valid until the
// next barrier; elsewhere, and under Machine.ScalarAccess, it is ReadSpan
// into buf, which it returns.
func ReadView[T memsys.Word](n *Node, a memsys.Addr, buf []T) []T {
	elem, k := memsys.SizeOf[T](), len(buf)
	if n.M.ScalarAccess || k == 0 || !n.M.readOnlySpan(a, uint32(k)*elem) {
		ReadSpan(n, a, buf)
		return buf
	}
	checkAligned(a, elem)
	view := memsys.View[T](n.M.AS.HomeBytes(a, k*int(elem)))
	for left := k; ; {
		r := n.homeRun(a, elem, left, TagReadOnly)
		n.hits(int64(r))
		left, a = left-r, a+memsys.Addr(uint32(r)*elem)
		if left == 0 {
			return view
		}
		// Every line of the region is a home line, so after the block's
		// fault the run path goes on from the next, as in ReadSpan.
		b, _, s := n.spanSeg(a, elem, left)
		n.loadSeg(b, int64(s))
		left, a = left-s, a+memsys.Addr(uint32(s)*elem)
	}
}

// StoreView returns the home image of the k consecutive elements at a for
// the caller to store all k into, charged and noted as WriteSpan charges and
// notes a run of k stores, when the span run path covers the whole span for
// a store: every block is a home line the node may write, and, with posts
// outstanding, one the node owns for the epoch.  The view is valid until the
// caller's next scheduling point.  Otherwise, and under Machine.ScalarAccess,
// it returns nil, having charged and noted nothing: the caller stores through
// WriteSpan.
func StoreView[T memsys.Word](n *Node, a memsys.Addr, k int) []T {
	elem := memsys.SizeOf[T]()
	if n.M.ScalarAccess || k == 0 {
		return nil
	}
	checkAligned(a, elem)
	if r, passed := n.homeScan(a, elem, k, TagReadWrite); r == k {
		n.lockBlocks(a, passed)
		n.hits(int64(k))
		return memsys.View[T](n.M.AS.HomeBytes(a, k*int(elem)))
	}
	return nil
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
		t := n.loadSeg(sb, int64(kk))
		// The store's fault may grow the node's copy slab; buf keeps the
		// array the source copy's bytes are in, which nothing writes before
		// storeAt has copied them.
		buf, o := n.lineAt(sb, t)
		d := n.storeAt(dst, buf[o+soff:o+soff+uint32(kk)*elem], int64(kk))
		run = t&d&lineHome != 0
		k -= kk
		src += memsys.Addr(uint32(kk) * elem)
		dst += memsys.Addr(uint32(kk) * elem)
	}
}
