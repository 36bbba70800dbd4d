package tempest

import "lcm/internal/memsys"

// This file is the owner-partitioned licence (DESIGN.md "Run-ahead").  Under
// the explicit two-copy lowering each element of the new copy is written by
// exactly one invocation, and a static or rotating schedule fixes which node
// runs it for the whole call.  A node says so with DeclareOwned over the part
// of the new copy its chunk covers: until the next barrier no other node
// reads, writes or drops a copy of a block wholly inside it.  The directory
// entry of such a block then changes only through the owner's own handlers,
// in the owner's order, and the machine uses that twice:
//
//   - the owner's write fault (and read fault) on the block may post its
//     effect (PostsWrite, PostsRead): the local half takes the line and
//     revokes every other holder's tag at once, the shared half makes the
//     directory transition and prices it at the fault's place in the
//     schedule;
//   - with posts outstanding, the owner's accesses to the block are served
//     without draining (loadFault, storeFault, and the span run path).
//
// The declaration is checked in the other nodes' handlers, after their
// scheduling point (CheckWrite, CheckRead), and where DropCopy peeks.

// DeclareOwned declares that, until the next barrier, no node but n reads,
// writes or drops a copy of a block of region r that lies wholly inside the
// address range [lo, hi); a block the range covers only in part — the one two
// adjacent chunks share — is not declared.  The owner makes the call at the
// start of the phase, before its first access; it charges nothing and is no
// scheduling point.  It is a no-op on a region whose lines are copies
// (CopyKeeper), and on a machine whose caches have a capacity, where an
// eviction the program does not control may drop another node's copy.  A
// block another node has declared its own in the epoch fails n with a
// *DeclarationError.
func (n *Node) DeclareOwned(r *memsys.Region, lo, hi memsys.Addr) {
	m := n.M
	if (m.keeper != nil && m.keeper.KeepsCopies(r)) || m.CacheLines > 0 {
		return
	}
	if lo < r.Base || hi > r.Base+memsys.Addr(r.Size) {
		panic("tempest: DeclareOwned range outside its region " + r.Name)
	}
	bs := memsys.Addr(m.AS.BlockSize)
	first, end := m.AS.Block(lo+bs-1), m.AS.Block(hi)
	if first >= end {
		return
	}
	if m.owned == nil {
		m.owned = make([]uint64, m.AS.NumBlocks())
	}
	key := n.ownKey()
	for b := first; b < end; b++ {
		if o := m.owned[b]; o != key && uint32(o>>32) == m.epoch {
			panic(&DeclarationError{Node: n.ID, Block: b, Region: r.Name, Op: "declared", Owner: int(uint32(o)) - 1})
		}
		m.owned[b] = key
	}
}

// ownKey is what Machine.owned holds for a block n owns in this epoch: the
// epoch in the high word, n's ID plus one in the low.
func (n *Node) ownKey() uint64 { return uint64(n.M.epoch)<<32 | uint64(n.ID+1) }

// Owns reports whether n declared b its own for the current barrier epoch.
func (n *Node) Owns(b memsys.BlockID) bool {
	o := n.M.owned
	return o != nil && o[b] == n.ownKey()
}

// owner returns the node that declared b its own for the current barrier
// epoch, -1 if none did.
func (m *Machine) owner(b memsys.BlockID) int {
	if m.owned == nil || uint32(m.owned[b]>>32) != m.epoch {
		return -1
	}
	return int(uint32(m.owned[b])) - 1
}

// ownedPrefix returns how many of the count blocks from b on, first first, n
// owns for the epoch.
func (n *Node) ownedPrefix(b memsys.BlockID, count int) int {
	if n.M.owned == nil {
		return 0
	}
	key, own := n.ownKey(), n.M.owned[b:int(b)+count]
	for i, o := range own {
		if o != key {
			return i
		}
	}
	return count
}

// PostsWrite reports whether n's write fault on b may post its effect instead
// of yielding: the machine runs ahead, n owns b for the epoch, and b's region
// is not declared read-only (a write there fails, on the spot).
func (n *Node) PostsWrite(b memsys.BlockID) bool {
	return n.runAhead && n.Owns(b) && !n.M.ReadOnly(b)
}

// CheckRead fails node n with a *DeclarationError if another node declared b
// its own for the epoch.  A coherent protocol calls it in its read fault,
// after the handler's scheduling point.
func (n *Node) CheckRead(b memsys.BlockID) { n.checkOwner(b, "read") }

func (n *Node) checkOwner(b memsys.BlockID, op string) {
	if o := n.M.owner(b); o >= 0 && o != n.ID {
		panic(&DeclarationError{Node: n.ID, Block: b, Region: n.M.AS.RegionOfBlock(b).Name, Op: op, Owner: o})
	}
}
