package tempest

import (
	"lcm/internal/fault"
	"lcm/internal/net"
)

// This file is the sequence-numbered ack/retransmission layer that makes
// the protocol survive an unreliable interconnect.  AttachLoss seeds a
// delivery-fault model (drop/duplicate/reorder; see net.Loss) and wraps the
// active network model in reliableNet, which sits between every protocol
// charge site and the model and draws each message's fate before pricing it:
//
//   - each message carries a per-sender sequence number; the receiver
//     acks cumulatively;
//   - a dropped message is detected by ack timeout: the sender waits out
//     one timeout window (priced by the inner model), backs off
//     exponentially (fault.Injector.Backoff), and re-sends, up to the
//     retry budget — every wasted cycle and re-sent message is charged
//     through the inner model, so retransmissions show up in net_msgs
//     and net_queue_cycles like any other traffic;
//   - a duplicated message arrives with a stale sequence number and is
//     discarded by the receiver at zero protocol cost (idempotence);
//   - a reordered message is held in the receiver's resequencing buffer
//     until the gap fills; in virtual time the hold resolves within the
//     same exchange, so only the event is counted.
//
// Wrapping the Network interface covers every protocol charge site —
// stache fetches, LCM flushes and merges, invalidations, upgrades —
// without touching protocol code.  Barriers ride the reliable control
// network and pass through unclassified, as does Timeout (it prices an
// exchange the fault injector already declared lost; reclassifying it
// would double-inject).
type reliableNet struct {
	inner net.Network
	loss  *net.Loss
	f     *fault.Injector

	sendSeq []uint64 // per sender: last sequence number issued
	recvSeq []uint64 // per sender: highest sequence delivered in order
}

func newReliableNet(inner net.Network, l *net.Loss, f *fault.Injector, p int) *reliableNet {
	return &reliableNet{
		inner:   inner,
		loss:    l,
		f:       f,
		sendSeq: make([]uint64, p),
		recvSeq: make([]uint64, p),
	}
}

// AttachLoss attaches a seeded delivery-fault model to the machine's
// network and interposes the retransmission layer.  Call after any
// SetNetwork and before Run.  The retransmission layer reuses the fault
// injector's timeout/backoff/budget discipline; a machine without
// AttachFaults gets a zero-plan injector (defaults only, injecting
// nothing itself).
func (m *Machine) AttachLoss(cfg net.LossConfig) *net.Loss {
	if m.frozen {
		panic("tempest: AttachLoss after Freeze")
	}
	if m.Fault == nil {
		m.AttachFaults(fault.Plan{})
	}
	l := net.NewLoss(cfg, m.P)
	m.Net = newReliableNet(m.Net, l, m.Fault, m.P)
	m.Loss = l
	return l
}

// nextSeq issues the sequence number for src's next message.  Re-sends
// of a dropped message reuse its number.
func (r *reliableNet) nextSeq(src int) uint64 {
	r.sendSeq[src]++
	return r.sendSeq[src]
}

// delivered records the arrival of message seq from src, counting
// duplicate discards and resequencing holds into c.
func (r *reliableNet) delivered(src int, seq uint64, d net.Delivery, c *net.Counters) {
	switch d {
	case net.Duplicated:
		// The second copy carries seq <= recvSeq and is discarded.
		c.DupDelivered++
	case net.Reordered:
		c.ReorderHeld++
	}
	if seq > r.recvSeq[src] {
		r.recvSeq[src] = seq
	}
}

// exchange runs one message exchange from src under the loss model:
// dropped sends are retried with timeout + backoff until delivered or the
// retry budget runs out; the surviving exchange is priced by price at the
// virtual time it finally happens.
func (r *reliableNet) exchange(src, dst int, now int64, c *net.Counters, price func(now int64) int64) int64 {
	seq := r.nextSeq(src)
	var waste int64
	for attempt := 1; ; attempt++ {
		d := r.loss.Classify(src)
		if d == net.Dropped {
			if attempt > r.f.RetryBudget() {
				panic(&fault.RetryExhaustedError{
					Node: src, Op: "retransmission", Attempts: attempt,
				})
			}
			backoff := r.f.Backoff(attempt)
			lost := r.inner.Timeout(src, dst, now+waste, c) + backoff
			waste += lost
			c.Retransmits++
			c.RetransCycles += lost
			continue
		}
		r.delivered(src, seq, d, c)
		return waste + price(now+waste)
	}
}

// Name implements net.Network.
func (r *reliableNet) Name() string { return r.inner.Name() }

// RoundTrip implements net.Network with retransmission.
func (r *reliableNet) RoundTrip(src, dst int, payload int64, now int64, c *net.Counters) int64 {
	return r.exchange(src, dst, now, c, func(t int64) int64 {
		return r.inner.RoundTrip(src, dst, payload, t, c)
	})
}

// Timeout passes through: it prices an exchange the fault injector
// already declared lost, so the loss model must not reclassify it.
func (r *reliableNet) Timeout(src, dst int, now int64, c *net.Counters) int64 {
	return r.inner.Timeout(src, dst, now, c)
}

// Forward implements net.Network with retransmission.
func (r *reliableNet) Forward(src, dst int, now int64, c *net.Counters) int64 {
	return r.exchange(src, dst, now, c, func(t int64) int64 {
		return r.inner.Forward(src, dst, t, c)
	})
}

// Upgrade implements net.Network with retransmission.
func (r *reliableNet) Upgrade(src, dst int, now int64, c *net.Counters) int64 {
	return r.exchange(src, dst, now, c, func(t int64) int64 {
		return r.inner.Upgrade(src, dst, t, c)
	})
}

// Invalidate implements net.Network with retransmission.
func (r *reliableNet) Invalidate(src, dst int, now int64, c *net.Counters) int64 {
	return r.exchange(src, dst, now, c, func(t int64) int64 {
		return r.inner.Invalidate(src, dst, t, c)
	})
}

// Flush implements net.Network with retransmission.  Flushes are fire-
// and-forget at the protocol level, but the reliable layer still acks
// them (a lost writeback would lose data), so a dropped flush costs the
// sender the same timeout-and-retry discipline.
func (r *reliableNet) Flush(src, dst int, payload int64, now int64, c *net.Counters) int64 {
	return r.exchange(src, dst, now, c, func(t int64) int64 {
		return r.inner.Flush(src, dst, payload, t, c)
	})
}

// Barrier rides the dedicated control network, which stays reliable.
func (r *reliableNet) Barrier(node int, c *net.Counters) { r.inner.Barrier(node, c) }

// LinkStats implements net.Network.
func (r *reliableNet) LinkStats() net.LinkStats { return r.inner.LinkStats() }

// OrderFree reports false: each message draws its fate from the sender's
// loss stream, in send order.
func (r *reliableNet) OrderFree() bool { return false }
