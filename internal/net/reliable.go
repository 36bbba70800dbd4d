package net

import "lcm/internal/fault"

// reliable is the sequence-numbered ack/retransmission state that lets the
// protocols survive an unreliable interconnect.  It sits in front of Send
// at every protocol charge site — stache fetches, LCM flushes and merges,
// invalidations, upgrades — and draws each message's fate from the fault
// plan (fault.Injector.Classify) before pricing it:
//
//   - each message carries a per-sender sequence number; the receiver
//     acks cumulatively;
//   - a dropped message is detected by ack timeout: the sender waits out
//     one timeout window (the timeout class), backs off exponentially
//     (fault.Injector.Backoff), and re-sends, up to the retry budget —
//     every wasted cycle and re-sent message goes through Send, so
//     retransmissions show up in net_msgs and net_queue_cycles like any
//     other traffic;
//   - a duplicated message arrives with a stale sequence number and is
//     discarded by the receiver at zero protocol cost (idempotence);
//   - a reordered message is held in the receiver's resequencing buffer
//     until the gap fills; in virtual time the hold resolves within the
//     same exchange, so only the event is counted.
//
// Flushes are fire-and-forget at the protocol level, but the reliable layer
// still acks them (a lost writeback would lose data), so a dropped flush
// costs the sender the same timeout-and-retry discipline.
type reliable struct {
	f *fault.Injector

	sendSeq []uint64 // per sender: last sequence number issued
	recvSeq []uint64 // per sender: highest sequence delivered in order
}

// SetFaults makes delivery on a p-node network as unreliable as f's plan
// says, reusing the injector's timeout/backoff/budget discipline for the
// retransmissions.  A nil injector, or a plan without delivery faults,
// leaves the network reliable.
func (nw *Network) SetFaults(f *fault.Injector, p int) {
	nw.lossy = nil
	if f != nil && f.Plan().Lossy() {
		nw.lossy = &reliable{f: f, sendSeq: make([]uint64, p), recvSeq: make([]uint64, p)}
	}
}

// retransmit draws the fate of one exchange from src on a lossy network:
// dropped sends are retried with timeout + backoff until one is delivered or
// the retry budget runs out.  It returns the cycles wasted on the way; Send
// prices the surviving exchange at the virtual time it finally happens.
func (nw *Network) retransmit(src, dst int, now int64, c *Counters) (waste int64) {
	r := nw.lossy
	r.sendSeq[src]++ // re-sends of a dropped message reuse its number
	seq := r.sendSeq[src]
	for attempt := 1; ; attempt++ {
		switch r.f.Classify(src) {
		case fault.Dropped:
			if attempt > r.f.RetryBudget() {
				panic(&fault.RetryExhaustedError{Node: src, Op: "retransmission", Attempts: attempt})
			}
			lost := nw.Send(ClassTimeout, src, dst, 0, now+waste, c) + r.f.Backoff(attempt)
			waste += lost
			c.Retransmits++
			c.RetransCycles += lost
			continue
		case fault.Duplicated:
			c.DupDelivered++ // the second copy carries seq <= recvSeq and is discarded
		case fault.Reordered:
			c.ReorderHeld++
		}
		if seq > r.recvSeq[src] {
			r.recvSeq[src] = seq
		}
		return waste
	}
}
