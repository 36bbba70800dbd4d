package tempest

import (
	"fmt"

	"lcm/internal/memsys"
)

// This file is the phase-read-only licence (DESIGN.md "Run-ahead").  A C**
// parallel call is atomic and simultaneous: every invocation reads the state
// from before the call, so under the explicit two-copy lowering the old copy
// is written by nobody until the call's closing barrier.  A program says so
// with DeclareReadOnly, and the machine uses it twice:
//
//   - a read fault on a home line of such a region may post its effect
//     (PostsRead), since nothing revokes the line or changes its data before
//     the effect is applied;
//   - with posts outstanding, a read of such a line is served without
//     draining (loadFault, and the span run path homeRun).
//
// The declaration is checked where writes happen, not where reads do: the
// posting read fault leaves no node write permission on the block, so a write
// before the next barrier takes a write fault, and the write fault fails the
// node (CheckWrite).  owned.go has the other licence, for the new copy.

// DeclareReadOnly declares that no node writes region r, or drops a copy of
// one of its blocks, until the next barrier.  Every node that reads r in the
// phase makes the call at the start of the phase, before its first access;
// it charges nothing and is no scheduling point.  It is a no-op on a region
// whose lines are copies (CopyKeeper): an LCM region's reads post anyway.
func (n *Node) DeclareReadOnly(r *memsys.Region) {
	m := n.M
	if m.keeper != nil && m.keeper.KeepsCopies(r) {
		return
	}
	m.readOnly[m.AS.RegionIndex(m.AS.Block(r.Base))] = m.epoch
}

// ReadOnly reports whether b's region is declared read-only for the current
// barrier epoch.
func (m *Machine) ReadOnly(b memsys.BlockID) bool {
	return m.readOnly[m.AS.RegionIndex(b)] == m.epoch
}

// readOnlyRun reports whether blocks first..last lie in one region, declared
// read-only for the epoch.
func (m *Machine) readOnlyRun(first, last memsys.BlockID) bool {
	r := m.AS.RegionIndex(first)
	return r == m.AS.RegionIndex(last) && m.readOnly[r] == m.epoch
}

// readOnlySpan reports whether the size bytes at a lie in one region, declared
// read-only for the epoch.
func (m *Machine) readOnlySpan(a memsys.Addr, size uint32) bool {
	return m.readOnlyRun(m.AS.Block(a), m.AS.Block(a+memsys.Addr(size)-1))
}

// PostsRead reports whether n's read fault on b may post its effect instead
// of yielding: the machine runs ahead, and b's region is declared read-only
// for the epoch or b is n's own (Owns).
func (n *Node) PostsRead(b memsys.BlockID) bool {
	return n.runAhead && (n.M.ReadOnly(b) || n.Owns(b))
}

// DeclarationError is the failure of a node that broke a declaration: it
// wrote a block, or dropped its copy of one, while the block's region was
// declared read-only; or it touched a block another node declared its own.
type DeclarationError struct {
	Node   int
	Block  memsys.BlockID
	Region string
	Op     string // "read", "wrote", "dropped its copy of", "declared"
	// Owner is the node that declared Block its own, -1 when the region
	// was declared read-only.
	Owner int
}

func (e *DeclarationError) Error() string {
	if e.Owner < 0 {
		return fmt.Sprintf("tempest: node %d %s block %d of region %q, which is declared read-only until the next barrier",
			e.Node, e.Op, e.Block, e.Region)
	}
	return fmt.Sprintf("tempest: node %d %s block %d of region %q, which node %d declared its own until the next barrier",
		e.Node, e.Op, e.Block, e.Region, e.Owner)
}

// CheckWrite fails node n with a *DeclarationError if b's region is declared
// read-only for the epoch or another node declared b its own.  A coherent
// protocol calls it in its write fault, after the handler's scheduling point,
// so that the failure comes at the write's place in the schedule whether or
// not faults run ahead.
func (n *Node) CheckWrite(b memsys.BlockID) {
	n.checkReadOnly(b, "wrote")
	n.checkOwner(b, "wrote")
}

func (n *Node) checkReadOnly(b memsys.BlockID, op string) {
	if n.M.ReadOnly(b) {
		panic(&DeclarationError{Node: n.ID, Block: b, Region: n.M.AS.RegionOfBlock(b).Name, Op: op, Owner: -1})
	}
}
