// Package stache implements the baseline user-level coherence protocol of
// the paper: Stache, a sequentially consistent, directory-based,
// write-invalidate protocol in which a processor's local memory acts as a
// large, fully associative cache for remote data (Reinhardt, Larus & Wood,
// "Tempest and Typhoon", ISCA 1994).
//
// In RSM terms (Section 3 of the LCM paper), Stache is the degenerate
// instance of Reconcilable Shared Memory: its request policy permits at
// most one outstanding writable copy of a block, and its reconciliation
// function simply makes a returned writable copy the new value of the
// location.
//
// The simulation does not model capacity evictions: the paper's Stache
// backs cached blocks with all of local memory, so for the benchmark sizes
// used here a block fetched by a node stays resident until the protocol
// invalidates it.  A home node's own blocks live in the home memory image
// and cost a local fill on first touch.
package stache

import (
	"fmt"

	"lcm/internal/memsys"
	"lcm/internal/nodeset"
	"lcm/internal/tempest"
	"lcm/internal/trace"
)

// dirState is the home directory state of one block.
type dirState uint8

const (
	// stateIdle: only the home memory image is valid; no cached copies.
	stateIdle dirState = iota
	// stateShared: one or more read-only copies; home image valid.
	stateShared
	// stateExcl: exactly one read-write copy; its stores write through, so
	// the home image is current here too.
	stateExcl
)

// entry is one block's home directory record.
type entry struct {
	sharers nodeset.Set // nodes holding read-only copies
	owner   int32       // exclusive owner when state == stateExcl
	state   dirState
}

// Protocol is the Stache coherence protocol.  One instance serves one
// machine.  It also serves as the coherent-region fallback inside the LCM
// protocol (internal/core).
type Protocol struct {
	m       *tempest.Machine
	entries []entry
}

// New creates a Stache protocol instance.
func New() *Protocol { return &Protocol{} }

// Name implements tempest.Protocol.
func (p *Protocol) Name() string { return "stache" }

// Attach implements tempest.Protocol.
func (p *Protocol) Attach(m *tempest.Machine) {
	p.m = m
	p.entries = make([]entry, m.AS.NumBlocks())
	// P > 64 spills the sharer sets past their inline word; carve the
	// spill storage from one arena (see internal/nodeset).
	if ar := nodeset.NewArena(m.P - 1); ar.Words() > 0 {
		for i := range p.entries {
			p.entries[i].sharers = ar.Make()
		}
	}
}

// Entry state inspection for tests: returns (state name, owner, and the
// sharer set's inline word — the tests drive machines of at most 64
// nodes, where the word is the whole set).
func (p *Protocol) inspect(b memsys.BlockID) (string, int, uint64) {
	e := &p.entries[b]
	switch e.state {
	case stateIdle:
		return "idle", -1, e.sharers.Low64()
	case stateShared:
		return "shared", -1, e.sharers.Low64()
	case stateExcl:
		return "excl", int(e.owner), e.sharers.Low64()
	}
	return "?", -1, 0
}

// chargeMiss charges the requester for a data-carrying miss and counts it.
// threeHop records whether the dirty remote copy at owner had to be
// consulted; owner is ignored otherwise.
func (p *Protocol) chargeMiss(n *tempest.Node, home, owner int, threeHop bool) {
	n.Charge(p.missCost(n, home, owner, threeHop, n.Clock()))
}

// missCost counts a data-carrying miss of n's, charges the home its
// occupancy, and returns what the miss costs n when its handler runs at
// clock now: a local fill, or the round trip to the home followed — for a
// three-hop miss — by the forward leg to the owner, each priced when it is
// sent.
func (p *Protocol) missCost(n *tempest.Node, home, owner int, threeHop bool, now int64) int64 {
	m := p.m
	n.Ctr.Misses++
	if home == n.ID && !threeHop {
		n.Ctr.LocalFills++
		return m.Cost.LocalFill
	}
	c := m.Net.RoundTrip(n.ID, home, int64(m.AS.BlockSize), now, &n.Ctr.Net)
	n.Ctr.RemoteMisses++
	if threeHop {
		c += m.Net.Forward(home, owner, now+c, &n.Ctr.Net)
	}
	if home != n.ID {
		m.Nodes[home].ChargeRemote(m.Cost.HomeOccupancy)
	}
	return c
}

// recallDirty downgrades or invalidates the exclusive owner's copy.
// Coherent stores write through to the home image (see tempest), so the
// home already holds the owner's data; only the owner's access rights
// change.
func (p *Protocol) recallDirty(b memsys.BlockID, e *entry, downgradeTo tempest.Tag) {
	p.m.Nodes[int(e.owner)].SetTag(b, downgradeTo)
}

// Effect kinds of Stache's split handlers (DESIGN.md "Run-ahead").
const (
	fxRead  uint8 = iota // a posted read fault (postRead)
	fxWrite              // a posted write fault (postWrite)
)

// ReadFault implements tempest.Protocol: obtain a read-only copy.  On a
// block whose region is declared read-only for the phase, or that the node
// declared its own, a machine that runs ahead posts the handler's shared half
// instead (postRead).
func (p *Protocol) ReadFault(n *tempest.Node, b memsys.BlockID) {
	if n.PostsRead(b) {
		p.postRead(n, b)
		return
	}
	m := p.m
	home := m.AS.HomeOf(b)
	n.SchedYield() // deterministic handler-entry order (see internal/sched)
	m.Lock(b)
	n.CheckRead(b)
	e := &p.entries[b]
	owner, threeHop := p.share(n, b, e)
	n.Install(b, m.AS.HomeData(b), tempest.TagReadOnly)
	e.sharers.Add(n.ID)
	p.chargeMiss(n, home, owner, threeHop)
	if t := m.Trace; t != nil {
		t.Record(n.ID, n.Clock(), trace.ReadMiss, uint32(b), 0)
	}
}

// share is the directory side of n's read of b, whose entry is e: it
// recalls an exclusive owner's copy to read-only and leaves the block
// shared.  It returns the node that supplies the data and whether that took
// a third hop.
func (p *Protocol) share(n *tempest.Node, b memsys.BlockID, e *entry) (owner int, threeHop bool) {
	owner = p.m.AS.HomeOf(b)
	if e.state == stateExcl {
		if int(e.owner) == n.ID {
			// Our own line must still be readable; a read fault here
			// means the tag was dropped without telling the
			// directory, which is a protocol bug.
			panic(fmt.Sprintf("stache: node %d read fault on its own exclusive block %d", n.ID, b))
		}
		owner = int(e.owner)
		p.recallDirty(b, e, tempest.TagReadOnly)
		e.sharers.Clear()
		e.sharers.Add(owner)
		threeHop = true
	}
	e.state = stateShared
	return owner, threeHop
}

// postRead is ReadFault split in two halves, for a block whose region no
// node writes before the next barrier, or that only n touches before it
// (DESIGN.md "Run-ahead").  The local half installs the home image — current,
// since stores write through — and, if the directory names another node as
// exclusive owner, downgrades that owner's tag now: from here on no node but
// n holds write permission on the block, so another node's write before the
// effect is applied takes a write fault, which fails on the declaration
// (tempest.Node.CheckWrite).  It charges nothing.  The shared half,
// ApplyEffect, is everything else ReadFault does, at the fault's place in the
// schedule.
func (p *Protocol) postRead(n *tempest.Node, b memsys.BlockID) {
	m := p.m
	n.CheckRead(b)
	fx := n.EnterHandler(b)
	fx.Kind = fxRead
	if e := &p.entries[b]; e.state == stateExcl && int(e.owner) != n.ID {
		m.Nodes[e.owner].SetTag(b, tempest.TagReadOnly)
	}
	n.Install(b, m.AS.HomeData(b), tempest.TagReadOnly)
	n.Emit(fx)
}

// WriteFault implements tempest.Protocol: obtain the (single) writable
// copy, invalidating all other copies.  On a block the node declared its own
// for the phase, a machine that runs ahead posts the handler's shared half
// instead (postWrite).
func (p *Protocol) WriteFault(n *tempest.Node, b memsys.BlockID) {
	if n.PostsWrite(b) {
		p.postWrite(n, b)
		return
	}
	m := p.m
	home := m.AS.HomeOf(b)
	n.SchedYield() // deterministic handler-entry order (see internal/sched)
	m.Lock(b)
	n.CheckWrite(b)
	e := &p.entries[b]

	if e.state == stateExcl {
		// Three-hop: recall the dirty copy, invalidate the old owner.
		oldOwner := p.recallOwner(n, b, e)
		n.Charge(m.Net.Invalidate(n.ID, oldOwner, n.Clock(), &n.Ctr.Net))
		e.sharers.Clear()
		e.state = stateIdle
		n.Install(b, m.AS.HomeData(b), tempest.TagReadWrite)
		e.state = stateExcl
		e.owner = int32(n.ID)
		p.chargeMiss(n, home, oldOwner, true)
		if t := m.Trace; t != nil {
			t.Record(n.ID, n.Clock(), trace.WriteMiss, uint32(b), 0)
		}
		return
	}

	// Invalidate outstanding read-only copies (other than ours).
	n.Charge(p.invalidateSharers(n, b, e, n.Clock()))

	if e.sharers.Contains(n.ID) || n.Tag(b) >= tempest.TagReadOnly {
		// Upgrade in place: we already hold the current data read-only.
		// (The directory cannot lose track of a copy under the invariants;
		// the tag test keeps the upgrade path robust if it did.)
		n.SetTag(b, tempest.TagReadWrite)
		n.Charge(p.upgradeCost(n, home, n.Clock()))
	} else {
		n.Install(b, m.AS.HomeData(b), tempest.TagReadWrite)
		p.chargeMiss(n, home, home, false)
	}
	if t := m.Trace; t != nil {
		t.Record(n.ID, n.Clock(), writeEvent(n, e), uint32(b), 0)
	}
	p.own(n, e)
}

// recallOwner revokes the copy of b's exclusive owner, which is not n, for
// n's write, counts the invalidation and returns the old owner.
func (p *Protocol) recallOwner(n *tempest.Node, b memsys.BlockID, e *entry) int {
	if int(e.owner) == n.ID {
		panic(fmt.Sprintf("stache: node %d write fault on its own exclusive block %d", n.ID, b))
	}
	p.recallDirty(b, e, tempest.TagInvalid)
	n.Ctr.InvalidationsSent++
	return int(e.owner)
}

// upgradeCost counts n's upgrade of a block homed at home, charges the home
// its occupancy, and returns what the upgrade costs n when sent at clock now.
func (p *Protocol) upgradeCost(n *tempest.Node, home int, now int64) int64 {
	m := p.m
	n.Ctr.Upgrades++
	if home == n.ID {
		return m.Cost.MarkLocal
	}
	c := m.Net.Upgrade(n.ID, home, now, &n.Ctr.Net)
	m.Nodes[home].ChargeRemote(m.Cost.HomeOccupancy)
	return c
}

// writeEvent is the trace event of n's write fault on a block whose entry
// is e, read before own clears the sharers: an upgrade if n shares it.
func writeEvent(n *tempest.Node, e *entry) trace.Kind {
	if e.sharers.Contains(n.ID) {
		return trace.Upgrade
	}
	return trace.WriteMiss
}

// own leaves e exclusive at n.
func (p *Protocol) own(n *tempest.Node, e *entry) {
	e.sharers.Clear()
	e.state = stateExcl
	e.owner = int32(n.ID)
}

// postWrite is WriteFault split in two halves, for a block no node but n
// touches before the next barrier (DESIGN.md "Run-ahead").  The local half
// gives n write permission — an upgrade in place, or the home image, current
// since stores write through — and revokes every other holder's tag now: the
// sharers, and an exclusive owner from an earlier phase.  No node that keeps
// the declaration can tell (the apply revokes them again, in the schedule's
// order); one that breaks it faults on its next access, and fails there
// (tempest.Node.CheckRead, CheckWrite), instead of reading what n has already
// stored through to the home image.  It charges nothing.
// The shared half, ApplyEffect, decides upgrade, two-hop or three-hop miss
// from the directory as it stands when it is applied, which reflects n's
// earlier posts, and is everything else WriteFault does.
func (p *Protocol) postWrite(n *tempest.Node, b memsys.BlockID) {
	m := p.m
	fx := n.EnterHandler(b)
	fx.Kind = fxWrite
	e := &p.entries[b]
	if e.state == stateExcl && int(e.owner) != n.ID {
		m.Nodes[e.owner].SetTag(b, tempest.TagInvalid)
	}
	for it := e.sharers.Iter(); ; {
		id, ok := it.Next()
		if !ok {
			break
		}
		if id != n.ID {
			m.Nodes[id].SetTag(b, tempest.TagInvalid)
		}
	}
	if n.Tag(b) >= tempest.TagReadOnly {
		n.SetTag(b, tempest.TagReadWrite)
	} else {
		n.Install(b, m.AS.HomeData(b), tempest.TagReadWrite)
	}
	n.Emit(fx)
}

// ApplyEffect implements tempest.Protocol: the shared half of node n's
// posted fault on fx.Block — the directory transition, a recall or the
// invalidations included, the counters and the home's occupancy — and its
// price, each exchange sent in the on-the-spot order at the clock of the
// grant that orders the effect and charged to n's stolen cycles, where the
// records behind fx have captured their clocks without it.  The trace events
// are stamped as the on-the-spot handler stamps them.
func (p *Protocol) ApplyEffect(n *tempest.Node, fx *tempest.Effect) {
	m := p.m
	b := fx.Block
	m.Lock(b)
	e := &p.entries[b]
	home := m.AS.HomeOf(b)
	if fx.Kind == fxRead {
		owner, threeHop := p.share(n, b, e)
		e.sharers.Add(n.ID)
		n.ChargeRemote(p.missCost(n, home, owner, threeHop, fx.At(n)))
		if t := m.Trace; t != nil {
			t.Record(n.ID, fx.At(n), trace.ReadMiss, uint32(b), 0)
		}
		return
	}
	k := trace.WriteMiss
	switch {
	case e.state == stateExcl:
		oldOwner := p.recallOwner(n, b, e)
		n.ChargeRemote(m.Net.Invalidate(n.ID, oldOwner, fx.At(n), &n.Ctr.Net))
		n.ChargeRemote(p.missCost(n, home, oldOwner, true, fx.At(n)))
	default:
		n.ChargeRemote(p.invalidateSharers(n, b, e, fx.At(n)))
		k = writeEvent(n, e)
		if k == trace.Upgrade {
			n.ChargeRemote(p.upgradeCost(n, home, fx.At(n)))
		} else {
			n.ChargeRemote(p.missCost(n, home, home, false, fx.At(n)))
		}
	}
	if t := m.Trace; t != nil {
		t.Record(n.ID, fx.At(n), k, uint32(b), 0)
	}
	p.own(n, e)
}

// invalidateSharers invalidates all read-only copies other than n's own,
// counts them, and returns what they cost n when the first is sent at clock
// now, each sent as the one before it is paid for.
func (p *Protocol) invalidateSharers(n *tempest.Node, b memsys.BlockID, e *entry, now int64) int64 {
	var c, count int64
	for it := e.sharers.Iter(); ; {
		id, ok := it.Next()
		if !ok {
			break
		}
		if id == n.ID {
			continue
		}
		p.m.Nodes[id].SetTag(b, tempest.TagInvalid)
		if t := p.m.Trace; t != nil {
			t.Record(n.ID, now+c, trace.Invalidate, uint32(b), int32(id))
		}
		c += p.m.Net.Invalidate(n.ID, id, now+c, &n.Ctr.Net)
		count++
	}
	n.Ctr.InvalidationsSent += count
	return c
}

// Evict implements tempest.Protocol: drop n's copy of b, updating the
// directory.  Coherent stores write through, so the home image is already
// current and even a dirty exclusive copy can be dropped after charging
// the write-back message.
func (p *Protocol) Evict(n *tempest.Node, b memsys.BlockID) bool {
	m := p.m
	n.SchedYield() // deterministic handler-entry order (see internal/sched)
	m.Lock(b)
	if n.Tag(b) == tempest.TagInvalid {
		return true
	}
	e := &p.entries[b]
	switch {
	case e.state == stateExcl && int(e.owner) == n.ID:
		e.state = stateIdle
		e.sharers.Clear()
		// Dirty write-back message (no payload charge: coherent stores
		// wrote the data through to the home image as they happened).
		n.Charge(m.Net.Flush(n.ID, m.AS.HomeOf(b), 0, n.Clock(), &n.Ctr.Net))
	default:
		e.sharers.Remove(n.ID)
		if e.sharers.Empty() && e.state == stateShared {
			e.state = stateIdle
		}
		n.Charge(m.Cost.MarkLocal) // silent drop of a clean copy
	}
	n.SetTag(b, tempest.TagInvalid)
	return true
}

// MarkModification implements tempest.Protocol.  Under plain coherent
// memory the directive degenerates to "make the block writable", which is
// what the C** compiler's explicit-copying code needs anyway.
func (p *Protocol) MarkModification(n *tempest.Node, addr memsys.Addr) {
	b := p.m.AS.Block(addr)
	if n.Tag(b) < tempest.TagReadWrite {
		p.WriteFault(n, b)
	}
}

// FlushCopies implements tempest.Protocol.  Coherent memory has no private
// copies to flush; this is a no-op.
func (p *Protocol) FlushCopies(*tempest.Node) {}

// ReconcileCopies implements tempest.Protocol.  Coherent memory is always
// reconciled; the directive degenerates to the global barrier, which keeps
// workload code identical across memory systems.
func (p *Protocol) ReconcileCopies(n *tempest.Node) { n.Barrier() }

var _ tempest.Protocol = (*Protocol)(nil)
