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

// tagFor returns the node's access byte for b from the tag array, to be
// compared against need<<tagShift.
//
// A home line is withheld — 0, as if never installed — while the node's
// effect log is non-empty: the caller falls into its fault path, whose first
// step (hitAfterDrain) drains and looks again.  The drain is not called from
// here: it would cost tagFor its inlining, and every access a call
// (DESIGN.md "Run-ahead").
func (n *Node) tagFor(b memsys.BlockID) byte {
	t := n.tags[b]
	if t&lineHome != 0 && n.fxLen != 0 {
		return 0
	}
	return t
}

// lineAt returns the buffer that holds the node's line for b, whose access
// byte is t, and the offset of the line's first byte in it: the block's home
// image for a home line, the node's data slab at the line's slot for a copy,
// one load away.  The access paths have checked that what they touch lies
// within the block.
func (n *Node) lineAt(b memsys.BlockID, t byte) ([]byte, uint32) {
	if t&lineHome != 0 {
		return n.M.AS.HomeData(b), 0
	}
	return n.data, uint32(n.slot[b])
}

// hitAfterDrain is the first step of both fault paths when tagFor withheld
// the line: it drains the effect log, which puts the node where the
// on-the-spot schedule has it at this access, and reports whether the tag
// still permits the access — a plain hit, no miss counted, no handler run.
// False means the line was revoked in between and the access is a fault in
// any schedule.  Only the withheld test is inlined into the fault paths, so
// a fault on a loosely coherent block pays for a byte it has just read, not
// for a call.
func (n *Node) hitAfterDrain(b memsys.BlockID, need Tag) bool {
	n.drain()
	return n.Tag(b) >= need
}

// loadFault is the out-of-line read-miss path: trap to the protocol and
// return the line's access byte afterwards.  Kept separate so the hot-path
// functions stay small enough to avoid extra call layers.
//
// A withheld line of a region declared read-only for the epoch, or of a block
// the node owns for it, is the exception to draining first: nothing revokes
// it or writes its data before the next barrier but the node itself
// (readonly.go, owned.go), so the read commutes with every outstanding post
// and is served at once — a hit if the tag permits it, a fault that posts in
// turn if not.
func (n *Node) loadFault(b memsys.BlockID) byte {
	if n.withheld(b) {
		if n.M.ReadOnly(b) || n.Owns(b) {
			if t := n.tags[b]; t >= loadOK {
				return t
			}
		} else if n.hitAfterDrain(b, TagReadOnly) {
			return n.tags[b]
		}
	}
	n.preFault(b)
	n.makeRoom()
	n.M.protocol.ReadFault(n, b)
	return n.tags[b]
}

// storeFault is loadFault's write-miss counterpart; its exception is a block
// the node owns for the epoch.
func (n *Node) storeFault(b memsys.BlockID) byte {
	if n.withheld(b) {
		if n.Owns(b) {
			if t := n.tags[b]; t >= storeOK {
				return t
			}
		} else if n.hitAfterDrain(b, TagReadWrite) {
			return n.tags[b]
		}
	}
	n.preFault(b)
	n.makeRoom()
	n.M.protocol.WriteFault(n, b)
	return n.tags[b]
}

// loadSeg is the span load sequence: one tag check for block b — faulting to
// the protocol when it fails — then a single charge for k permitted loads
// within the block.  It returns the line's access byte.
func (n *Node) loadSeg(b memsys.BlockID, k int64) byte {
	t := n.tagFor(b)
	if t < loadOK {
		t = n.loadFault(b)
	}
	n.hits(k)
	return t
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
	t := n.tagFor(b)
	if t < loadOK {
		t = n.loadFault(b)
	}
	buf, o := n.lineAt(b, t)
	p := memsys.At[T](buf, o+off)
	n.clock += n.M.Cost.CacheHit
	n.Ctr.Hits++
	return *p
}

// storeAt is the span store sequence: it stores src at address a — one tag
// check and one fault for the whole segment — charges k permitted stores and
// returns the line's access byte.
//
// Stores to private (LCM) copies touch only the node-local line.  A coherent
// exclusive copy is a home line, so its store is the store to the home image
// that protocol handlers serve the block's current value from: they never
// read another node's copy, and a permitted store charges one cache hit per
// element like any other.  No scheduling point lies between the tag check
// and the copy, so the line cannot be revoked under the store.
func (n *Node) storeAt(a memsys.Addr, src []byte, k int64) byte {
	b, off := n.M.AS.Split(a)
	if off+uint32(len(src)) > n.M.AS.BlockSize {
		panic(fmt.Sprintf("tempest: store of %d bytes at %#x straddles block boundary", len(src), a))
	}
	t := n.tagFor(b)
	if t < storeOK {
		t = n.storeFault(b)
	}
	n.hits(k)
	buf, o := n.lineAt(b, t)
	copy(buf[o+off:], src)
	if t < privateOK {
		n.M.Lock(b)
	} else if n.M.trackWrites {
		n.recordWrite(b, off, uint32(len(src)))
	}
	return t
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
	t := n.tagFor(b)
	if t < storeOK {
		t = n.storeFault(b)
	}
	buf, o := n.lineAt(b, t)
	p := memsys.At[T](buf, o+off)
	n.clock += n.M.Cost.CacheHit
	n.Ctr.Hits++
	*p = v
	if t < privateOK {
		n.M.Lock(b)
	} else if n.M.trackWrites {
		n.recordWrite(b, off, size)
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

// recordWrite marks the stored words in the copy's write mask when the
// block's region is conflict-checked, so reconciliation can detect
// value-equal stores as modifications (footnote 2 of the paper: trap
// stores and record modified words).  The simulator records directly
// instead of trapping; the observable semantics are the trap scheme's.
func (n *Node) recordWrite(b memsys.BlockID, off, size uint32) {
	if !n.M.AS.RegionOfBlock(b).ConflictCheck {
		return
	}
	c := n.Copy(b)
	for w := off / 4; w < (off+size)/4; w++ {
		c.WMask |= 1 << w
	}
}

// Compute charges units of abstract computation to the node (workloads use
// this so arithmetic is not free relative to communication).
func (n *Node) Compute(units int64) { n.clock += units * n.M.Cost.Compute }
