package tempest

import (
	"fmt"

	"lcm/internal/memsys"
)

// This file implements the program-visible load/store interface.  Every
// access checks the node's fine-grain access-control tag for the block
// (Blizzard-E's lookup) and traps to the protocol's user-level handler on a
// tag violation.  Accesses must not straddle block boundaries; the C**
// runtime allocates aggregates element-aligned so they never do.
//
// The span accessors in access_span.go funnel into loadSeg/storeAt, block by
// block, wherever their run path (homeRun) stops; the scalar accessors Read
// and Write are those two sequences with k=1 flattened in.  The only
// difference is how many permitted accesses a single tag check amortizes.
// Data is read and written through the typed view of the line
// (internal/memsys/view.go), in host order, never decoded; see "Fast-path
// invariants" in DESIGN.md for what was measured.

// lineFor returns the node's line for b via the MRU cache, falling back to
// the line table (and refreshing the MRU) on a different block.  The
// caller must still check the returned line's tag: line pointers are
// assigned once and never reassigned, so a stale MRU entry can at worst
// carry a revoked tag, which the check catches.
//
// A home line is withheld — nil, as if never installed — while the node's
// effect log is non-empty: the caller falls into its fault path, whose first
// step (hitAfterDrain) drains and looks again.  The MRU path needs no such
// test because Emit keeps home lines out of the MRU while posts are
// outstanding.  The drain is not called from here: it would cost lineFor its
// inlining, and every access a call (DESIGN.md "Run-ahead").
func (n *Node) lineFor(b memsys.BlockID) *Line {
	if l := n.mruLine; l != nil && n.mruBlock == b {
		return l
	}
	l := n.lines[b]
	if l != nil {
		// The flag first: an LCM line reads one more byte of a line it is
		// about to tag-check and nothing else.
		if l.home && n.fxLen != 0 {
			return nil
		}
		n.mruBlock, n.mruLine = b, l
	}
	return l
}

// hitAfterDrain is the first step of both fault paths when lineFor withheld
// the line: it drains the effect log, which puts the node where the
// on-the-spot schedule has it at this access, and reports whether the tag
// still permits the access — a plain hit, no miss counted, no handler run.
// False means the line was revoked in between and the access is a fault in
// any schedule.  Only the withheld test is inlined into the fault paths, so
// a fault on a loosely coherent block pays for a byte of the line it is
// about to install into, not for a call.
func (n *Node) hitAfterDrain(l *Line, need Tag) bool {
	n.drain()
	if l.Tag() < need {
		return false
	}
	n.mruBlock, n.mruLine = l.block, l
	return true
}

// loadFault is the out-of-line read-miss path: trap to the protocol and
// refresh the MRU with the installed line.  Kept separate so the hot-path
// functions stay small enough to avoid extra call layers.
func (n *Node) loadFault(b memsys.BlockID) *Line {
	if l := n.lines[b]; n.withheld(l) && n.hitAfterDrain(l, TagReadOnly) {
		return l
	}
	n.preFault(b)
	n.makeRoom()
	l := n.M.protocol.ReadFault(n, b)
	n.mruBlock, n.mruLine = b, l
	return l
}

// storeFault is loadFault's write-miss counterpart.
func (n *Node) storeFault(b memsys.BlockID) *Line {
	if l := n.lines[b]; n.withheld(l) && n.hitAfterDrain(l, TagReadWrite) {
		return l
	}
	n.preFault(b)
	n.makeRoom()
	l := n.M.protocol.WriteFault(n, b)
	n.mruBlock, n.mruLine = b, l
	return l
}

// loadSeg is the span load sequence: one tag check for block b — faulting to
// the protocol when it fails — then a single charge for k permitted loads
// within the block.
func (n *Node) loadSeg(b memsys.BlockID, k int64) *Line {
	l := n.lineFor(b)
	if l == nil || l.Tag() < TagReadOnly {
		l = n.loadFault(b)
	}
	n.hits(k)
	return l
}

// hits charges k permitted accesses.
func (n *Node) hits(k int64) {
	n.clock += k * n.M.Cost.CacheHit
	n.Ctr.Hits += k
}

// Read is the scalar load fast path — loadSeg with k=1 flattened in, so a
// scalar load costs a single non-inlined call (the typed Read* wrappers
// inline down to it).  It is written once for every element type: each
// instantiation is its own width-specialised body.
func Read[T memsys.Word](n *Node, a memsys.Addr) T {
	b, off := n.M.AS.Split(a)
	if off+memsys.SizeOf[T]() > n.M.AS.BlockSize {
		panic(fmt.Sprintf("tempest: load of %d bytes at %#x straddles block boundary", memsys.SizeOf[T](), a))
	}
	l := n.lineFor(b)
	if l == nil || l.Tag() < TagReadOnly {
		l = n.loadFault(b)
	}
	n.clock += n.M.Cost.CacheHit
	n.Ctr.Hits++
	return *memsys.At[T](l.Data, off)
}

// storeAt is the span store sequence: it stores src at address a — one tag
// check and one fault for the whole segment — charges k permitted stores and
// returns the line it stored to.
//
// Stores to private (LCM) copies touch only the node-local line.  A coherent
// exclusive copy is a home line, so its store is the store to the home image
// that protocol handlers serve the block's current value from: they never
// read another node's line buffer, and a permitted store charges one cache
// hit per element like any other.  No scheduling point lies between the tag
// check and the copy, so the line cannot be revoked under the store.
func (n *Node) storeAt(a memsys.Addr, src []byte, k int64) *Line {
	b, off := n.M.AS.Split(a)
	if off+uint32(len(src)) > n.M.AS.BlockSize {
		panic(fmt.Sprintf("tempest: store of %d bytes at %#x straddles block boundary", len(src), a))
	}
	l := n.lineFor(b)
	if l == nil || l.Tag() < TagReadWrite {
		l = n.storeFault(b)
	}
	n.hits(k)
	copy(l.Data[off:], src)
	if l.Tag() != TagPrivate {
		n.M.Lock(b)
	} else if n.M.trackWrites {
		n.recordWrite(b, l, off, uint32(len(src)))
	}
	return l
}

// Write is the scalar store fast path: storeAt with k=1 flattened in and its
// copy replaced by a typed store through the view (a copy whose length the
// compiler cannot see is a call to memmove; see DESIGN.md for what that
// cost).
func Write[T memsys.Word](n *Node, a memsys.Addr, v T) {
	b, off := n.M.AS.Split(a)
	size := memsys.SizeOf[T]()
	if off+size > n.M.AS.BlockSize {
		panic(fmt.Sprintf("tempest: store of %d bytes at %#x straddles block boundary", size, a))
	}
	l := n.lineFor(b)
	if l == nil || l.Tag() < TagReadWrite {
		l = n.storeFault(b)
	}
	n.clock += n.M.Cost.CacheHit
	n.Ctr.Hits++
	*memsys.At[T](l.Data, off) = v
	if l.Tag() != TagPrivate {
		n.M.Lock(b)
	} else if n.M.trackWrites {
		n.recordWrite(b, l, off, size)
	}
}

// ReadU32 loads a 32-bit word.
func (n *Node) ReadU32(a memsys.Addr) uint32 { return Read[uint32](n, a) }

// WriteU32 stores a 32-bit word.
func (n *Node) WriteU32(a memsys.Addr, v uint32) { Write(n, a, v) }

// ReadF32 loads a single-precision float (the element type of the paper's
// meshes: a 32-byte block holds eight of them).
func (n *Node) ReadF32(a memsys.Addr) float32 { return Read[float32](n, a) }

// WriteF32 stores a single-precision float.
func (n *Node) WriteF32(a memsys.Addr, v float32) { Write(n, a, v) }

// recordWrite marks the stored words in the line's write mask when the
// block's region is conflict-checked, so reconciliation can detect
// value-equal stores as modifications (footnote 2 of the paper: trap
// stores and record modified words).  The simulator records directly
// instead of trapping; the observable semantics are the trap scheme's.
func (n *Node) recordWrite(b memsys.BlockID, l *Line, off, size uint32) {
	if !n.M.AS.RegionOfBlock(b).ConflictCheck {
		return
	}
	for w := off / 4; w < (off+size)/4; w++ {
		l.WMask |= 1 << w
	}
}

// Compute charges units of abstract computation to the node (workloads use
// this so arithmetic is not free relative to communication).
func (n *Node) Compute(units int64) { n.clock += units * n.M.Cost.Compute }
