package tempest

import (
	"lcm/internal/memsys"
	"lcm/internal/net"
)

// This file is the machine side of run-ahead (internal/sched has the
// scheduler side, DESIGN.md "Run-ahead" the argument).
//
// A protocol may write a handler as one body with two halves.  The local
// half touches only what the faulting node owns — its lines, tags, clock
// and counters — plus state that is constant while the node can run (the
// home image of a loosely coherent block between two reconciliations).
// The shared half, an Effect, is everything other nodes can observe:
// directory sets, merge images, side lists, cycles stolen from the home.
// Such a handler brackets its body with two calls:
//
//	fx := n.EnterHandler(b)      // the handler's scheduling point
//	... local half; fill in fx ...
//	n.Emit(fx)                   // hand over the shared half
//
// On the spot — the default — EnterHandler yields like SchedYield and Emit
// applies the effect there and then.  When the machine runs ahead
// (Machine.RunAhead), EnterHandler only notes the clock the yield would have
// offered and Emit appends the effect to the node's log: the node keeps the
// token, and the scheduler applies the effect at exactly the position in the
// grant order where the yield would have resumed.  The handler body cannot
// tell the difference, and neither can any simulated observable.
//
// A handler's message to the block's home is part of the shared half: what
// it costs depends on the sender's clock and on the traffic sent before it.
// The handler sends through Node.Send, after Emit, and the exchange is
// priced when the effect is applied, not when it is posted (DESIGN.md
// "Priced where it is ordered").

// Effect is the shared half of a split protocol handler, a 32-byte record.
// Kind and Mask are the protocol's to define; Node.Snapshot(e) is a
// block-sized buffer owned by the record, for a snapshot of whatever
// node-local bytes the effect needs (the local half may overwrite the
// originals long before the effect is applied).
type Effect struct {
	Kind uint8
	// class, dst and payload are the exchange a posted handler sent
	// (Node.Send); dst < 0 when it sent none.
	class net.Class
	// slot is the record's index in its node's log, which addresses its
	// snapshot; fixed when the log is allocated.
	slot  uint16
	Block memsys.BlockID
	Mask  uint64

	// clock is the node's local clock — stolen cycles excluded — at
	// EnterHandler; the effect's scheduling key is this plus the stolen
	// cycles at the time the key is taken.
	clock        int64
	dst, payload int32
}

// At is the clock of the grant that ordered e — the clock n's handler resumed
// at, or would have, from the yield at EnterHandler — and what an event of
// the handler is stamped with.  Read it while e is being applied: there it
// is the same whether e was posted or applied on the spot.
func (e *Effect) At(n *Node) int64 { return e.clock + n.stolen }

// Snapshot is the block-sized buffer of e, one of n's effect records.
func (n *Node) Snapshot(e *Effect) []byte {
	bs := n.M.AS.BlockSize
	o := uint32(e.slot) * bs
	return n.fxData[o : o+bs : o+bs]
}

// effectRing is the capacity of a node's effect log under run-ahead, a
// power of two.  A full log is a drain point — two token hand-offs,
// amortized over the ring — so the size trades memory per node (a 32-byte
// record and a block-sized snapshot per slot) against switches that are
// already rare.
const effectRing = 128

// Node.fxHead, Node.fxLen and Effect.slot are 16-bit.
const _ uint16 = effectRing

// RunAhead reports whether the machine's next run lets split handlers post
// their effects instead of yielding and, when it does not, why.  Nothing
// configures it: it holds exactly when executing local halves early cannot
// be observed —
//
//   - no checker hook is watching individual grants;
//   - nothing restructures a handler's charges mid-flight (a fault plan:
//     injected faults, delivery loss, recovery replay).
//
// Which regions the address space holds does not enter: run-ahead is per
// region.  A fault on a loosely coherent block posts, and so do a read
// fault on a home line of a region declared read-only for the epoch and a
// fault on a block the node declared its own (PostsRead, PostsWrite);
// whatever else reads or changes a home line's tag, data or
// directory entry while posts are outstanding drains first, then looks again
// (lineHome: tagFor and hitAfterDrain for accesses, the span run path's
// empty-log test, settle for the tag peeks outside handlers; Stache's other
// handlers drain at their SchedYield).  Neither does a trace: a split
// handler's events are recorded where its effect is applied, stamped with
// Effect.At.
//
// Call after Freeze.
func (m *Machine) RunAhead() (on bool, reason string) {
	switch {
	case m.SchedHook != nil:
		return false, "scheduler hook"
	case m.Fault != nil:
		return false, "fault plan"
	}
	return true, ""
}

// setRunAhead sizes every node's effect log for the coming run: the ring
// when effects are posted, a single record when they apply on the spot.
// Storage is kept across runs of the machine.
func (m *Machine) setRunAhead(on bool) {
	size := 1
	if on {
		size = effectRing
	}
	for _, nd := range m.Nodes {
		nd.runAhead = on
		nd.fxHead, nd.fxLen = 0, 0
		if len(nd.fx) >= size {
			continue
		}
		nd.fx = make([]Effect, size)
		nd.fxData = make([]byte, size*int(m.AS.BlockSize))
		for i := range nd.fx {
			nd.fx[i].slot = uint16(i)
		}
	}
}

// EnterHandler is the scheduling point at the entry of a split handler for
// block b, and returns the effect record the handler fills in and passes to
// Emit.
func (n *Node) EnterHandler(b memsys.BlockID) *Effect {
	slot := 0
	if n.runAhead {
		if int(n.fxLen) == len(n.fx) {
			n.drain() // a full log is a drain point
		}
		slot = int(n.fxHead+n.fxLen) & (len(n.fx) - 1)
	} else {
		n.SchedYield()
	}
	e := &n.fx[slot]
	e.Block, e.Mask, e.clock, e.dst = b, 0, n.clock, -1
	return e
}

// Emit hands over the shared half of the handler entered by the
// EnterHandler call that returned e.
func (n *Node) Emit(e *Effect) {
	if !n.runAhead {
		n.M.protocol.ApplyEffect(n, e)
		return
	}
	n.fxLen++
	if n.fxLen == 1 {
		// The log was empty, so no effect that could steal cycles from
		// this node is ahead of it in the schedule: key the post now.
		// Later posts are keyed as their predecessors are applied.
		n.M.schedder.Post(n.ID, e.clock+n.stolen)
	}
}

// Send is the exchange of class cl, carrying payload bytes, that the handler
// which emitted e has with node dst; the handler calls it after Emit, where
// it charged the exchange when the charge was its own to make.  On the spot
// it still is: the node's clock is the schedule's, and the exchange is priced
// and charged here.  A posted handler records the exchange on e, which stays
// the poster's until its next scheduling call, and applyHead prices it.  A
// posted handler charges nothing between EnterHandler and Send, so the record
// keeps one clock for both, and Send panics on one that does (what does
// charge in between — Install healing a corrupted transfer — needs a fault
// plan, which is on the spot).
func (n *Node) Send(e *Effect, cl net.Class, dst int, payload int64) {
	if !n.runAhead {
		n.clock += n.M.Net.Send(cl, n.ID, dst, payload, n.Clock(), &n.Ctr.Net)
		return
	}
	if n.clock != e.clock {
		panic("tempest: a posted handler charged its clock before its Send")
	}
	e.class, e.dst, e.payload = cl, int32(dst), int32(payload)
}

// applyHead is the scheduler's sched.ApplyFunc: it applies the oldest
// effect in node's log, sends what its handler sent, and returns the key of
// the next, read now.
//
// The exchange is priced here because here is where it is ordered: the
// channels are as every send granted earlier left them, and e.clock plus
// n.stolen is the clock the handler would have sent at had it yielded for
// this grant.  The price goes to stolen, not clock: the records behind e
// captured their clocks without it, and their keys are read with stolen added.
func (m *Machine) applyHead(node int) (next int64, more bool) {
	n := m.Nodes[node]
	e := &n.fx[n.fxHead]
	n.fxHead = (n.fxHead + 1) & uint16(len(n.fx)-1)
	n.fxLen--
	m.protocol.ApplyEffect(n, e)
	if e.dst >= 0 {
		n.stolen += m.Net.Send(e.class, n.ID, int(e.dst), int64(e.payload), e.clock+n.stolen, &n.Ctr.Net)
	}
	if n.fxLen == 0 {
		return 0, false
	}
	return n.fx[n.fxHead].clock + n.stolen, true
}

// drain parks the node until every effect it has posted is applied.  It
// precedes everything that reads what other nodes' effects write — the
// node's stolen cycles, so every exact clock reading — and every real
// scheduling call: barriers, yields, simulated locks, the end of the body.
// One compare when the log is empty, which it always is off run-ahead.
func (n *Node) drain() {
	if n.fxLen != 0 && !n.M.schedder.Drain(n.ID) {
		n.abandon() // the run is over: nothing will be applied any more
	}
}

// withheld reports whether the node's line for b is one its owner may not
// look at just now: a home line while posts are outstanding.  Other nodes'
// real handlers write a home line's tag, data and directory entry — on an LCM
// machine the home lines are the coherent ones, on a Stache one every line —
// and the owner's view of them is exact only once its posts are applied.  A
// read of a line of a read-only region, and an access to a block the node
// owns, are exempt (loadFault, storeFault).  tagFor spells the same test out.
func (n *Node) withheld(b memsys.BlockID) bool { return n.tags[b]&lineHome != 0 && n.fxLen != 0 }

// settle drains before the owner looks at a line other nodes' real handlers
// write: the tag peeks outside a handler (makeRoom's victim, DropCopy, the
// Mark directive) read what the on-the-spot schedule reads only after the
// drain has put the node where that schedule has it.  The access paths do
// the same through tagFor and hitAfterDrain.
func (n *Node) settle(b memsys.BlockID) {
	if n.withheld(b) {
		n.drain()
	}
}
